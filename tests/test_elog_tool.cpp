// The built elog_tool CLI, run as a subprocess. ST_ELOG_TOOL points at
// the binary (ctest sets it); without it these tests skip.
//
// Every verb writes elog v2; v1 files are input only, and `convert`
// is their upgrade path. The retired output-format switches
// (--v1, --v2, --reindex) are unknown flags.
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "elog/store.hpp"
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

const char* elog_tool_exe() { return testing::exe_from_env("ST_ELOG_TOOL"); }

model::EventLog sample_log() {
  model::EventLog log;
  log.add_case(make_case("a", 9042,
                         {ev("read", "/usr/lib/x/libselinux.so.1", 100, 203, 832),
                          ev("read", "/usr/lib/x/libselinux.so.1", 400, 79, 832),
                          ev("write", "/dev/pts/7", 600, 111, 50)}));
  log.add_case(make_case("b", 9157, {ev("openat", "/p/scratch/ssf/test", 0, 25, -1)}, "node2"));
  return log;
}

class ElogToolCli : public testing::CorpusTest {
 protected:
  ElogToolCli() : CorpusTest("st_elog_tool") {}

  CliRun run_cli(const char* exe, const std::vector<std::string>& args) {
    return testing::run_cli(exe, args, dir_);
  }

  /// sample_log() stored as elog v1.
  std::string write_v1_input() {
    const std::string path = (dir_ / "in_v1.elog").string();
    testing::write_event_log_v1_file(path, sample_log());
    return path;
  }
};

TEST_F(ElogToolCli, ConvertUpgradesAV1FileToV2) {
  const char* exe = elog_tool_exe();
  if (exe == nullptr) GTEST_SKIP() << "ST_ELOG_TOOL unset or not built";
  const std::string in = write_v1_input();
  const std::string out = (dir_ / "out.elog").string();

  const CliRun r = run_cli(exe, {"convert", out, in});
  ASSERT_EQ(r.status, 0) << r.err;
  const std::string bytes = testing::slurp(out);
  ASSERT_GE(bytes.size(), elog::kMagicV2.size());
  EXPECT_EQ(bytes.substr(0, elog::kMagicV2.size()), elog::kMagicV2);
  testing::expect_same_log(elog::read_event_log_file(out), sample_log());

  // The upgrade writes exactly the bytes of a direct v2 write.
  const std::string direct = (dir_ / "direct.elog").string();
  elog::write_event_log_v2_file(direct, sample_log());
  EXPECT_EQ(bytes, testing::slurp(direct));
}

TEST_F(ElogToolCli, StatStillReadsAV1File) {
  const char* exe = elog_tool_exe();
  if (exe == nullptr) GTEST_SKIP() << "ST_ELOG_TOOL unset or not built";
  const CliRun r = run_cli(exe, {"stat", write_v1_input(), "--verify"});
  ASSERT_EQ(r.status, 0) << r.err;
  EXPECT_NE(r.out.find("elog v1, 2 cases, 4 events"), std::string::npos) << r.out;
}

TEST_F(ElogToolCli, RetiredFormatFlagsAreUnknown) {
  const char* exe = elog_tool_exe();
  if (exe == nullptr) GTEST_SKIP() << "ST_ELOG_TOOL unset or not built";
  const std::string in = write_v1_input();
  const std::string out = (dir_ / "out.elog").string();
  for (const char* flag : {"--v1", "--v2", "--reindex"}) {
    const CliRun r = run_cli(exe, {"convert", out, in, flag});
    EXPECT_EQ(r.status, 1) << flag;
    EXPECT_NE(r.err.find(std::string("unknown flag")), std::string::npos) << flag << ": " << r.err;
    EXPECT_FALSE(std::filesystem::exists(out)) << flag;
  }
}

}  // namespace
}  // namespace st
