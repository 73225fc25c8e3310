#!/usr/bin/env bash
# Runs the ingestion + pipeline + storage + sharding + query + serve +
# layout + per-case fold benchmarks and writes BENCH_parse.json,
# BENCH_pipeline.json, BENCH_elog.json, BENCH_shard.json,
# BENCH_query.json, BENCH_serve.json, BENCH_render.json and
# BENCH_fold.json at the repo root — the perf trajectory record future
# PRs compare against.
#
#   bench/run_bench.sh [build-dir] [out-dir]
#
# With no build-dir argument the release-native preset is configured
# and built (build-native/, -march=native) so the scan kernels run with
# the widest vector ISA of the machine; an explicit build-dir is used
# as-is and must already contain bench_parse.
#
# BENCH_parse.json layout:
#   {
#     "baseline_seed": <bench/baseline_seed.json — pre-zero-copy numbers>,
#     "speedup_vs_seed": <BM_ReadTraceMixed/131072 bytes/s over baseline>,
#     "event_log_speedup_vs_copying": <arena-interned event construction
#         over the PR 1 per-event string copies, 131072-line corpus>,
#     "mixed_vs_best_either_or": <mixed (file, chunk) work-queue ingest
#         over the better of PR 1's per-file-only / intra-file-only
#         paths on a 1-big+8-small file set>,
#     "scan_kernel_speedup_vs_scalar": <SWAR/SIMD structural scan over
#         the scalar reference loops, 131072-line corpus>,
#     "convert_scaling" / "query_scaling": <items/s at 1/2/4 workers>,
#     "convert_parallel_speedup": <best multi-worker conversion point
#         over the 1-worker point>,
#     "query_parallel_speedup": <best multi-worker Query::apply point
#         over the 1-worker point>,
#     "nproc": <CPUs of the recording machine>,
#     "repetitions": 5,
#     "cv_by_benchmark": {"<run name>": <coefficient of variation of
#         its real time over the repetitions>},
#     "current": <google-benchmark JSON of bench_parse (aggregates only)>
#   }
# Every figure above is computed from the median of 5 repetitions.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-}"
out_dir="${2:-$repo_root}"

if [[ -z "$build_dir" ]]; then
  build_dir="$repo_root/build-native"
  # --preset resolves relative to the working directory, so build from
  # the repo root regardless of where the script was invoked. Always
  # build: an incremental no-op is cheap, while a stale build-native/
  # would silently benchmark last PR's binaries.
  # Key on the cache, not the directory: an interrupted first configure
  # leaves build-native/ without a usable CMakeCache.txt.
  if [[ ! -f "$build_dir/CMakeCache.txt" ]]; then
    (cd "$repo_root" && cmake --preset release-native)
  fi
  (cd "$repo_root" && cmake --build --preset release-native -j "$(nproc)")
fi

if [[ ! -x "$build_dir/bench/bench_parse" ]]; then
  echo "bench_parse not built; run: cmake --preset release-native && cmake --build --preset release-native -j" >&2
  exit 1
fi

mkdir -p "$out_dir"

parse_raw="$(mktemp)"
pipeline_raw="$(mktemp)"
elog_raw="$(mktemp)"
shard_raw="$(mktemp)"
nofault_raw="$(mktemp)"
query_raw="$(mktemp)"
serve_raw="$(mktemp)"
render_raw="$(mktemp)"
dfg_raw="$(mktemp)"
stats_raw="$(mktemp)"
trap 'rm -f "$parse_raw" "$pipeline_raw" "$elog_raw" "$shard_raw" "$nofault_raw" "$query_raw" "$serve_raw" "$render_raw" "$dfg_raw" "$stats_raw"' EXIT

"$build_dir/bench/bench_parse" \
  --benchmark_format=json \
  --benchmark_min_time=0.2 \
  --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true \
  >"$parse_raw"

"$build_dir/bench/bench_pipeline" \
  --benchmark_format=json \
  --benchmark_min_time=0.2 \
  >"$pipeline_raw"

"$build_dir/bench/bench_elog" \
  --benchmark_format=json \
  --benchmark_min_time=0.2 \
  >"$elog_raw"

# ST_ELOG_TOOL lets bench_shard also register the spawned-subprocess
# variant (posix_spawn of the real fold-shard verb).
ST_ELOG_TOOL="$build_dir/examples/elog_tool" \
  "$build_dir/bench/bench_shard" \
  --benchmark_format=json \
  --benchmark_min_time=0.2 \
  --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true \
  >"$shard_raw"

"$build_dir/bench/bench_query" \
  --benchmark_format=json \
  --benchmark_min_time=0.2 \
  >"$query_raw"

# DFG layout time against node count (BM_LayoutDfg's complexity fit).
"$build_dir/bench/bench_render" \
  --benchmark_filter='^BM_LayoutDfg' \
  --benchmark_format=json \
  --benchmark_min_time=0.2 \
  >"$render_raw"

# The per-case folds: DFG construction and I/O statistics over the
# event count, under top2 and last2 (BM_BuildSerial and
# BM_Stats_EventSweep complexity fits, 5 repetitions per point).
"$build_dir/bench/bench_dfg" \
  --benchmark_filter='^BM_BuildSerial/' \
  --benchmark_format=json \
  --benchmark_min_time=0.2 \
  --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true \
  >"$dfg_raw"
"$build_dir/bench/bench_stats" \
  --benchmark_filter='^BM_Stats_EventSweep/' \
  --benchmark_format=json \
  --benchmark_min_time=0.2 \
  --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true \
  >"$stats_raw"

# bench_serve is a plain main (latency distribution, not throughput —
# see its header): it prints one JSON record; the wrapper below lifts
# the headline numbers to the top level of BENCH_serve.json.
"$build_dir/bench/bench_serve" \
  --clients=4 --requests=128 --cache-entries=16 \
  >"$serve_raw"

# faultpoint_disabled_overhead: the same BM_RunSharded points from a
# twin build with -DST_DISABLE_FAULT_POINTS=ON (the FAULT_POINT macros
# compile out entirely), so BENCH_shard.json records what the always-on
# registry costs when nothing is armed. Only meaningful when this run
# built build-native itself — an explicit build-dir's flags are unknown
# and the twin would not be apples-to-apples.
echo '{}' >"$nofault_raw"
if [[ "$build_dir" == "$repo_root/build-native" ]]; then
  nofault_dir="$repo_root/build-nofaults"
  cmake -B "$nofault_dir" -S "$repo_root" \
        -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS="-march=native" \
        -DST_DISABLE_FAULT_POINTS=ON >/dev/null
  cmake --build "$nofault_dir" --target bench_shard -j "$(nproc)"
  "$nofault_dir/bench/bench_shard" \
    --benchmark_filter='^BM_RunSharded/' \
    --benchmark_format=json \
    --benchmark_min_time=0.2 \
    --benchmark_repetitions=5 \
    --benchmark_report_aggregates_only=true \
    >"$nofault_raw"
fi

# BENCH_pipeline.json layout:
#   {
#     "pipeline_overlap_speedup_vs_staged": <best streamed-over-staged
#         trace->EventLog->DFG ratio across worker counts; parity is
#         the ceiling on a 1-CPU box>,
#     "pipeline_overlap_speedup_by_workers": {"1": .., "2": .., "4": ..},
#     "pipeline_scaling": {"staged": {...}, "streamed": {...}}  (items/s),
#     "multi_sink_single_pass_speedup_vs_staged": <best ratio of ONE
#         pipeline::run pass folding DFG + case stats + variants sinks
#         over the staged workflow (streamed ingest barrier, then three
#         separate analytic passes) across worker counts>,
#     "multi_sink_speedup_by_workers": {"1": .., "2": .., "4": ..},
#     "multi_sink_scaling": {"staged": {...}, "single_pass": {...}}  (items/s),
#     "current": <google-benchmark JSON of bench_pipeline>
#   }
python3 - "$pipeline_raw" "$out_dir/BENCH_pipeline.json" <<'EOF'
import json
import sys

current = json.load(open(sys.argv[1]))

def metric(name, key):
    for bench in current.get("benchmarks", []):
        if bench.get("name") == name and key in bench:
            return bench[key]
    return None

def scaling(prefix):
    points = {}
    for w in (1, 2, 4):
        ips = metric(f"{prefix}/{w}/real_time", "items_per_second")
        if ips is not None:
            points[str(w)] = round(ips)
    return points

def ratios(fast, slow):
    return {w: round(fast[w] / slow[w], 2)
            for w in fast if w in slow and slow[w]}

staged = scaling("BM_PipelineStaged")
streamed = scaling("BM_PipelineStreamed")
by_workers = ratios(streamed, staged)
best = max(by_workers.values()) if by_workers else None

sink_staged = scaling("BM_MultiSinkStaged")
sink_single = scaling("BM_MultiSinkSinglePass")
sink_by_workers = ratios(sink_single, sink_staged)
sink_best = max(sink_by_workers.values()) if sink_by_workers else None

out = {
    "pipeline_overlap_speedup_vs_staged": best,
    "pipeline_overlap_speedup_by_workers": by_workers,
    "pipeline_scaling": {"staged": staged, "streamed": streamed},
    "multi_sink_single_pass_speedup_vs_staged": sink_best,
    "multi_sink_speedup_by_workers": sink_by_workers,
    "multi_sink_scaling": {"staged": sink_staged, "single_pass": sink_single},
    "current": current,
}
json.dump(out, open(sys.argv[2], "w"), indent=1)
print(f"wrote {sys.argv[2]} (pipeline_overlap_speedup_vs_staged = {best}x, "
      f"by_workers = {by_workers}, "
      f"multi_sink_single_pass_speedup_vs_staged = {sink_best}x, "
      f"multi_sink_by_workers = {sink_by_workers})")
EOF

python3 - "$parse_raw" "$repo_root/bench/baseline_seed.json" "$out_dir/BENCH_parse.json" <<'EOF'
import json
import os
import sys

current = json.load(open(sys.argv[1]))
baseline = json.load(open(sys.argv[2]))

def metric(name, key):
    """`key` of the median over the repetitions of run `name`."""
    for bench in current.get("benchmarks", []):
        if (bench.get("run_name") == name and bench.get("aggregate_name") == "median"
                and key in bench):
            return bench[key]
    return None

cv_by_benchmark = {
    bench["run_name"]: round(bench["real_time"], 3)
    for bench in current.get("benchmarks", [])
    if bench.get("aggregate_name") == "cv"
}

def ratio(num, den):
    if num is None or den is None or den == 0:
        return None
    return round(num / den, 2)

speedup = None
base_bps = baseline["corpus"]["bytes"] / baseline["sequential_read"]["best_seconds"]
mixed_bps = metric("BM_ReadTraceMixed/131072", "bytes_per_second")
if mixed_bps is not None:
    speedup = round(mixed_bps / base_bps, 2)

# Arena-interned event construction vs the PR 1 per-event string copies.
elog_speedup = ratio(metric("BM_EventLogFromRecords/131072", "items_per_second"),
                     metric("BM_EventLogFromRecordsCopying/131072", "items_per_second"))

# Mixed (file, chunk) work queue vs the better either/or path.
mixed = metric("BM_MixedFiles_Mixed/real_time", "bytes_per_second")
per_file = metric("BM_MixedFiles_PerFileOnly/real_time", "bytes_per_second")
intra = metric("BM_MixedFiles_IntraFileOnly/real_time", "bytes_per_second")
mixed_vs_best = None
if mixed and per_file and intra:
    mixed_vs_best = round(mixed / max(per_file, intra), 2)

# SWAR/SIMD scan kernels vs the scalar reference loops (this PR's
# acceptance metric: >= 1.3x).
scan_speedup = ratio(metric("BM_ScanKernel/131072", "bytes_per_second"),
                     metric("BM_ScanScalar/131072", "bytes_per_second"))
swar_speedup = ratio(metric("BM_ScanSwar/131072", "bytes_per_second"),
                     metric("BM_ScanScalar/131072", "bytes_per_second"))

# Multi-thread scaling points (1/2/4 workers). On a 1-CPU host the
# multi-worker points record contention, not speedup — the scaling
# dict keeps the raw numbers either way.
def scaling(prefix):
    points = {}
    for w in (1, 2, 4):
        ips = metric(f"{prefix}/{w}/real_time", "items_per_second")
        if ips is not None:
            points[str(w)] = round(ips)
    return points

convert_scaling = scaling("BM_ConvertCasesParallel")
query_scaling = scaling("BM_QueryApplyParallel")

def parallel_speedup(points):
    if "1" not in points:
        return None
    multi = [v for k, v in points.items() if k != "1"]
    if not multi:
        return None
    return round(max(multi) / points["1"], 2)

out = {
    "baseline_seed": baseline,
    "speedup_vs_seed": speedup,
    "event_log_speedup_vs_copying": elog_speedup,
    "mixed_vs_best_either_or": mixed_vs_best,
    "scan_kernel_speedup_vs_scalar": scan_speedup,
    "scan_swar_speedup_vs_scalar": swar_speedup,
    "convert_scaling": convert_scaling,
    "convert_parallel_speedup": parallel_speedup(convert_scaling),
    "query_scaling": query_scaling,
    "query_parallel_speedup": parallel_speedup(query_scaling),
    "nproc": os.cpu_count(),
    "repetitions": 5,
    "cv_by_benchmark": cv_by_benchmark,
    "current": current,
}
json.dump(out, open(sys.argv[3], "w"), indent=1)
print(f"wrote {sys.argv[3]} (speedup_vs_seed = {out['speedup_vs_seed']}x, "
      f"event_log_speedup_vs_copying = {out['event_log_speedup_vs_copying']}x, "
      f"mixed_vs_best_either_or = {out['mixed_vs_best_either_or']}x, "
      f"scan_kernel_speedup_vs_scalar = {out['scan_kernel_speedup_vs_scalar']}x, "
      f"convert_parallel_speedup = {out['convert_parallel_speedup']}x, "
      f"query_parallel_speedup = {out['query_parallel_speedup']}x)")
EOF

# BENCH_elog.json layout:
#   {
#     "open_speedup_v2_vs_reparse": <open + first case query: mmap'd
#         columnar v2 over re-ingesting the raw strace text (>= 10x)>,
#     "open_micros": {"v2": .., "reparse": ..}  (real time),
#     "current": <google-benchmark JSON of bench_elog>
#   }
python3 - "$elog_raw" "$out_dir/BENCH_elog.json" <<'EOF'
import json
import sys

current = json.load(open(sys.argv[1]))

def metric(name, key):
    for bench in current.get("benchmarks", []):
        if bench.get("name") == name and key in bench:
            return bench[key]
    return None

def ratio(num, den):
    if num is None or den is None or den == 0:
        return None
    return round(num / den, 2)

v2 = metric("BM_OpenFirstQueryV2", "real_time")
reparse = metric("BM_OpenFirstQueryReparse", "real_time")

out = {
    "open_speedup_v2_vs_reparse": ratio(reparse, v2),
    "open_micros": {"v2": round(v2, 1) if v2 else None,
                    "reparse": round(reparse, 1) if reparse else None},
    "current": current,
}
json.dump(out, open(sys.argv[2], "w"), indent=1)
print(f"wrote {sys.argv[2]} (open_speedup_v2_vs_reparse = {out['open_speedup_v2_vs_reparse']}x, "
      f"open_micros = {out['open_micros']})")
EOF

# BENCH_shard.json layout:
#   {
#     "sharded_scaling": {"in_process": {"1": .., "2": .., "4": ..},
#                         "spawned": {...}}  (events/s over run_sharded
#         at 1/2/4 shards; in_process still round-trips the codec,
#         spawned adds posix_spawn + blob I/O),
#     "sharded_parallel_speedup": <best multi-shard spawned point over
#         the 1-shard spawned point: spawned shards fold concurrently in
#         their own processes, while in-process shards fold one after
#         another, so only the spawned points measure parallelism;
#         parity is the ceiling on a 1-CPU box>,
#     "spawned_overhead_at_1_shard": <in-process over spawned events/s
#         at 1 shard — what the subprocess boundary costs>,
#     "faultpoint_disabled_overhead": <BM_RunSharded events/s with the
#         fault registry compiled in (default build) over the same
#         point from a -DST_DISABLE_FAULT_POINTS=ON twin build; ~1.0
#         means the disabled registry costs nothing measurable>,
#     "faultpoint_overhead_by_shards": {"1": .., "2": .., "4": ..},
#     "nproc": <CPUs of the recording machine>,
#     "repetitions": 5,
#     "cv_by_benchmark": {"<run name>": <coefficient of variation of
#         its real time over the repetitions>},
#     "nofault_cv_by_benchmark": {...the same for the twin build},
#     "current": <google-benchmark JSON of bench_shard (aggregates only)>
#   }
# Every figure above is computed from the median of 5 repetitions.
python3 - "$shard_raw" "$nofault_raw" "$out_dir/BENCH_shard.json" <<'EOF'
import json
import os
import sys

current = json.load(open(sys.argv[1]))
nofault = json.load(open(sys.argv[2]))

def metric(name, key, data=None):
    """`key` of the median over the repetitions of run `name`."""
    for bench in (current if data is None else data).get("benchmarks", []):
        if (bench.get("run_name") == name and bench.get("aggregate_name") == "median"
                and key in bench):
            return bench[key]
    return None

def cv_by_benchmark(data):
    return {
        bench["run_name"]: round(bench["real_time"], 3)
        for bench in data.get("benchmarks", [])
        if bench.get("aggregate_name") == "cv"
    }

def scaling(prefix, data=None):
    points = {}
    for k in (1, 2, 4):
        ips = metric(f"{prefix}/{k}/real_time", "items_per_second", data)
        if ips is not None:
            points[str(k)] = round(ips)
    return points

in_process = scaling("BM_RunSharded")
spawned = scaling("BM_RunShardedSpawned")
nofault_points = scaling("BM_RunSharded", nofault)

def parallel_speedup(points):
    if "1" not in points:
        return None
    multi = [v for k, v in points.items() if k != "1"]
    if not multi:
        return None
    return round(max(multi) / points["1"], 2)

overhead = None
if "1" in in_process and "1" in spawned and spawned["1"]:
    overhead = round(in_process["1"] / spawned["1"], 2)

fault_by_shards = {k: round(in_process[k] / nofault_points[k], 3)
                   for k in in_process if nofault_points.get(k)}
fault_overhead = fault_by_shards.get("1")

out = {
    "sharded_scaling": {"in_process": in_process, "spawned": spawned},
    "sharded_parallel_speedup": parallel_speedup(spawned),
    "spawned_overhead_at_1_shard": overhead,
    "faultpoint_disabled_overhead": fault_overhead,
    "faultpoint_overhead_by_shards": fault_by_shards,
    "nproc": os.cpu_count(),
    "repetitions": 5,
    "cv_by_benchmark": cv_by_benchmark(current),
    "nofault_cv_by_benchmark": cv_by_benchmark(nofault),
    "current": current,
}
json.dump(out, open(sys.argv[3], "w"), indent=1)
print(f"wrote {sys.argv[3]} (sharded_parallel_speedup = "
      f"{out['sharded_parallel_speedup']}x, spawned = {spawned}, "
      f"in_process = {in_process}, "
      f"spawned_overhead_at_1_shard = {out['spawned_overhead_at_1_shard']}x, "
      f"faultpoint_disabled_overhead = {out['faultpoint_disabled_overhead']})")
EOF

# BENCH_query.json layout:
#   {
#     "indexed_speedup_by_selectivity": {"sel0": .., "sel1": ..,
#         "sel50": .., "sel100": ..} — Query::apply over the resident
#         EventLog divided by select_v2 over the mmap'd indexed
#         container, per selectivity tier (sel1 is one case in 128),
#     "indexed_speedup_at_1pct_selectivity": <the sel1 point — this
#         PR's acceptance metric: >= 5x; byte-identity of the two paths
#         is enforced by test_v2_select and the CI serve-mode cmp>,
#     "combined_restriction_speedup": <calls + fp + window at the sel1
#         tier — the interactive narrow-it-down query shape>,
#     "noindex_vs_scan": <select_v2 over an index-free file divided by
#         Query::apply — the column-scan fallback, per tier>,
#     "scan_micros" / "indexed_micros": <real time per tier>,
#     "current": <google-benchmark JSON of bench_query>
#   }
python3 - "$query_raw" "$out_dir/BENCH_query.json" <<'EOF'
import json
import sys

current = json.load(open(sys.argv[1]))

def metric(name, key):
    for bench in current.get("benchmarks", []):
        if bench.get("name") == name and key in bench:
            return bench[key]
    return None

def ratio(num, den):
    if num is None or den is None or den == 0:
        return None
    return round(num / den, 2)

tiers = ("sel0", "sel1", "sel50", "sel100")
scan = {t: metric(f"BM_QueryScan/{t}", "real_time") for t in tiers}
indexed = {t: metric(f"BM_QueryIndexed/{t}", "real_time") for t in tiers}
speedup = {t: ratio(scan[t], indexed[t]) for t in tiers}

noindex = {t: ratio(scan[t], metric(f"BM_QueryNoIndex/{t}", "real_time"))
           for t in ("sel1", "sel50")}

combined = ratio(metric("BM_QueryScan/sel1_combined", "real_time"),
                 metric("BM_QueryIndexed/sel1_combined", "real_time"))

out = {
    "indexed_speedup_by_selectivity": speedup,
    "indexed_speedup_at_1pct_selectivity": speedup.get("sel1"),
    "combined_restriction_speedup": combined,
    "noindex_vs_scan": noindex,
    "scan_micros": {t: round(v, 1) for t, v in scan.items() if v is not None},
    "indexed_micros": {t: round(v, 1) for t, v in indexed.items() if v is not None},
    "current": current,
}
json.dump(out, open(sys.argv[2], "w"), indent=1)
print(f"wrote {sys.argv[2]} (indexed_speedup_at_1pct_selectivity = "
      f"{out['indexed_speedup_at_1pct_selectivity']}x, by_selectivity = {speedup}, "
      f"combined_restriction_speedup = {combined}x, noindex_vs_scan = {noindex})")
EOF

# BENCH_serve.json layout:
#   {
#     "p50_us" / "p99_us": <overall request latency of the mixed
#         query/report/diff/stat workload, 4 clients x 128 requests
#         against one resident Catalog (cache capacity 16 — small
#         enough that eviction happens)>,
#     "report_p50_us": <the heavyweight verb on its own — a cold full
#         HTML report dominates the overall p99>,
#     "report_cold_p50_us" / "report_warm_p50_us": <the same verb split
#         by first-seen vs later-hit: the cold render cost vs the cache
#         hit that replaces it (first-seen approximation — see
#         bench_serve's header)>,
#     "cache_hit_rate": <catalog hits / (hits + misses) at the end of
#         the run; cold misses and eviction refills included>,
#     "requests_per_second": <aggregate across clients>,
#     "current": <bench_serve's full JSON record (per-verb p50/p99,
#         cache counters, corpus size)>
#   }
python3 - "$serve_raw" "$out_dir/BENCH_serve.json" <<'EOF'
import json
import sys

current = json.load(open(sys.argv[1]))
latency = current.get("latency_us", {})
report_split = latency.get("cold_warm", {}).get("report", {})
out = {
    "p50_us": latency.get("overall", {}).get("p50"),
    "p99_us": latency.get("overall", {}).get("p99"),
    "report_p50_us": latency.get("per_verb", {}).get("report", {}).get("p50"),
    "report_cold_p50_us": report_split.get("cold", {}).get("p50"),
    "report_warm_p50_us": report_split.get("warm", {}).get("p50"),
    "cache_hit_rate": current.get("cache", {}).get("hit_rate"),
    "requests_per_second": current.get("requests_per_second"),
    "current": current,
}
json.dump(out, open(sys.argv[2], "w"), indent=1)
print(f"wrote {sys.argv[2]} (p50_us = {out['p50_us']}, p99_us = {out['p99_us']}, "
      f"report_p50_us = {out['report_p50_us']}, "
      f"report_cold_p50_us = {out['report_cold_p50_us']}, "
      f"report_warm_p50_us = {out['report_warm_p50_us']}, "
      f"cache_hit_rate = {out['cache_hit_rate']}, "
      f"requests_per_second = {out['requests_per_second']})")
EOF

# BENCH_render.json layout:
#   {
#     "layout_complexity": {"big_o": <fitted class, e.g. "NlgN">,
#         "real_coefficient": <ns per unit of the class>,
#         "rms": <relative RMS error of the fit>} — BM_LayoutDfg's
#         google-benchmark complexity fit of layout_dfg over layered
#         DAGs of 64..4096 nodes (about 2 edges per node),
#     "layout_micros_by_nodes": {"64": .., ..., "4096": ..} (real time),
#     "current": <google-benchmark JSON of the BM_LayoutDfg run>
#   }
python3 - "$render_raw" "$out_dir/BENCH_render.json" <<'EOF'
import json
import sys

current = json.load(open(sys.argv[1]))
points = {}
fit = {}
for bench in current.get("benchmarks", []):
    name = bench.get("name", "")
    if name == "BM_LayoutDfg_BigO":
        fit["big_o"] = bench.get("big_o")
        fit["real_coefficient"] = round(bench.get("real_coefficient", 0.0), 2)
    elif name == "BM_LayoutDfg_RMS":
        fit["rms"] = round(bench.get("rms", 0.0), 3)
    elif name.startswith("BM_LayoutDfg/"):
        points[name.split("/")[1]] = round(bench["real_time"] / 1000.0, 1)

out = {
    "layout_complexity": fit,
    "layout_micros_by_nodes": points,
    "current": current,
}
json.dump(out, open(sys.argv[2], "w"), indent=1)
print(f"wrote {sys.argv[2]} (layout_complexity = {fit}, "
      f"layout_micros_by_nodes = {points})")
EOF

# BENCH_fold.json layout:
#   {
#     "<fold>": {"<mapping>": {
#         "ns_per_event_by_events": {"1024": .., ..., "131072": ..}
#             (median real time over 5 repetitions / event count),
#         "cv_by_events": {...} (coefficient of variation of those runs),
#         "big_o": .., "rms": ..}} — google-benchmark's complexity fit,
#       for fold in build_serial (bench_dfg BM_BuildSerial) and
#       io_stats (bench_stats BM_Stats_EventSweep), mapping in top2 and
#       last2,
#     "current": {"bench_dfg": <google-benchmark JSON>,
#                 "bench_stats": <google-benchmark JSON>}
#   }
python3 - "$dfg_raw" "$stats_raw" "$out_dir/BENCH_fold.json" <<'EOF'
import json
import sys


def summarize(current, prefix):
    out = {}
    for bench in current.get("benchmarks", []):
        name = bench.get("name", "")
        if not name.startswith(prefix + "/"):
            continue
        parts = name[len(prefix) + 1:].split("/")
        mapping = parts[0].split("_")[0]
        slot = out.setdefault(mapping, {"ns_per_event_by_events": {}, "cv_by_events": {}})
        aggregate = bench.get("aggregate_name")
        if aggregate == "BigO":
            slot["big_o"] = bench.get("big_o")
        elif aggregate == "RMS":
            slot["rms"] = round(bench.get("rms", 0.0), 3)
        elif len(parts) == 2:
            events = parts[1].split("_")[0]
            if aggregate == "median":
                slot["ns_per_event_by_events"][events] = round(bench["real_time"] / int(events), 1)
            elif aggregate == "cv":
                slot["cv_by_events"][events] = round(bench["real_time"], 3)
    return out


dfg = json.load(open(sys.argv[1]))
stats = json.load(open(sys.argv[2]))
out = {
    "build_serial": summarize(dfg, "BM_BuildSerial"),
    "io_stats": summarize(stats, "BM_Stats_EventSweep"),
    "current": {"bench_dfg": dfg, "bench_stats": stats},
}
json.dump(out, open(sys.argv[3], "w"), indent=1)
print(f"wrote {sys.argv[3]} (build_serial = {out['build_serial']}, io_stats = {out['io_stats']})")
EOF
