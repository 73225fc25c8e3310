// The built trace_explorer CLI, run as a subprocess. ST_TRACE_EXPLORER
// points at the binary (ctest sets it); without it these tests skip.
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "elog/v2_format.hpp"
#include "elog/v2_store.hpp"
#include "elog_v1_fixture.hpp"
#include "testing_cli.hpp"
#include "testing_corpus.hpp"
#include "testing_util.hpp"

namespace st {
namespace {

using testing::CliRun;
using testing::ev;
using testing::make_case;

const char* trace_explorer_exe() { return testing::exe_from_env("ST_TRACE_EXPLORER"); }

class TraceExplorerCli : public testing::CorpusTest {
 protected:
  TraceExplorerCli() : CorpusTest("st_trace_explorer") {}

  CliRun run_cli(const char* exe, const std::vector<std::string>& args) {
    return testing::run_cli(exe, args, dir_);
  }
};

TEST_F(TraceExplorerCli, KeepGoingPrintsQuarantinedCasesOfAV2Container) {
  const char* exe = trace_explorer_exe();
  if (exe == nullptr) GTEST_SKIP() << "ST_TRACE_EXPLORER unset or not built";

  model::EventLog log;
  log.add_case(make_case("a", 1, {ev("openat", "/p/x", 0, 5), ev("read", "/p/x", 6, 9, 64)}));
  log.add_case(make_case("b", 2, {ev("openat", "/p/y", 0, 4), ev("write", "/p/y", 5, 7, 32)}));
  log.add_case(make_case("c", 3, {ev("read", "/p/z", 1, 3, 16)}));
  const std::string path = (dir_ / "corpus.elog").string();
  elog::write_event_log_v2_file(path, log);

  // Flip one byte inside case 1's call column: its section CRC fails,
  // so a keep-going read quarantines that case and keeps the others.
  std::uint64_t offset = 0;
  {
    const auto mapped = elog::open_v2(path);
    for (const auto& e : mapped->sections()) {
      if (e.kind == elog::SectionKind::kColCall && e.case_index == 1 && e.length > 0) {
        offset = e.offset + e.length / 2;
      }
    }
  }
  ASSERT_NE(offset, 0u);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(offset));
    const char c = static_cast<char>(f.get());
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(static_cast<char>(c ^ 0x5a));
  }

  const CliRun strict = run_cli(exe, {path, "--render", "summary"});
  EXPECT_NE(strict.status, 0);

  const CliRun r = run_cli(exe, {path, "--keep-going", "--render", "summary"});
  EXPECT_EQ(r.status, 0) << r.err;
  EXPECT_NE(r.err.find("warning: " + path + ": case 1 (b_host1_2) quarantined: "),
            std::string::npos)
      << r.err;
  EXPECT_NE(r.out.find("a_host1_1"), std::string::npos) << r.out;
  EXPECT_EQ(r.out.find("b_host1_2"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("c_host1_3"), std::string::npos) << r.out;
}

TEST_F(TraceExplorerCli, TimelineRejectsAnExplicitRender) {
  const char* exe = trace_explorer_exe();
  if (exe == nullptr) GTEST_SKIP() << "ST_TRACE_EXPLORER unset or not built";
  // No inputs: the built-in ls / ls -l demo traces.
  const std::string activity = "openat\\n/usr/lib";
  const CliRun alone = run_cli(exe, {"--timeline", activity});
  EXPECT_EQ(alone.status, 0) << alone.err;
  EXPECT_FALSE(alone.out.empty());

  // --render would be silently dropped: a usage error instead.
  const CliRun both = run_cli(exe, {"--timeline", activity, "--render", "report"});
  EXPECT_EQ(both.status, 1);
  EXPECT_EQ(both.out.find("<html"), std::string::npos) << both.out;
  EXPECT_NE(both.err.find("--timeline"), std::string::npos) << both.err;
  EXPECT_NE(both.err.find("usage"), std::string::npos) << both.err;
}

TEST_F(TraceExplorerCli, StreamReportEmbedsTheTimeline) {
  const char* exe = trace_explorer_exe();
  if (exe == nullptr) GTEST_SKIP() << "ST_TRACE_EXPLORER unset or not built";
  const auto paths = make_corpus();
  std::vector<std::string> args = {"--stream-report", "--timeline", "read\\n/p/data"};
  args.insert(args.end(), paths.begin(), paths.end());
  const CliRun r = run_cli(exe, args);
  EXPECT_EQ(r.status, 0) << r.err;
  EXPECT_NE(r.out.find("<html"), std::string::npos);
  EXPECT_NE(r.out.find("Timeline"), std::string::npos);
}

TEST_F(TraceExplorerCli, V1ContainerReadsLikeItsV2Upgrade) {
  const char* exe = trace_explorer_exe();
  if (exe == nullptr) GTEST_SKIP() << "ST_TRACE_EXPLORER unset or not built";
  model::EventLog log;
  log.add_case(make_case("a", 1, {ev("openat", "/p/x", 0, 5), ev("read", "/p/x", 6, 9, 64)}));
  log.add_case(make_case("b", 2, {ev("write", "/p/y", 5, 7, 32)}));
  const std::string v1 = (dir_ / "old.elog").string();
  const std::string v2 = (dir_ / "new.elog").string();
  testing::write_event_log_v1_file(v1, log);
  elog::write_event_log_v2_file(v2, log);
  for (const char* render : {"summary", "stats", "report"}) {
    const CliRun from_v1 = run_cli(exe, {v1, "--render", render});
    const CliRun from_v2 = run_cli(exe, {v2, "--render", render});
    EXPECT_EQ(from_v1.status, 0) << from_v1.err;
    EXPECT_EQ(from_v1.out, from_v2.out) << render;
  }
}

}  // namespace
}  // namespace st
