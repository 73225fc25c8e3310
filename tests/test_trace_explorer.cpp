// The built trace_explorer CLI, run as a subprocess. ST_TRACE_EXPLORER
// points at the binary (ctest sets it); without it these tests skip.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "elog/v2_format.hpp"
#include "elog/v2_store.hpp"
#include "testing_corpus.hpp"
#include "testing_util.hpp"

extern char** environ;

namespace st {
namespace {

using testing::ev;
using testing::make_case;

const char* trace_explorer_exe() {
  const char* exe = std::getenv("ST_TRACE_EXPLORER");
  if (exe == nullptr || *exe == '\0' || !std::filesystem::exists(exe)) return nullptr;
  return exe;
}

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct CliRun {
  int status = -1;  ///< exit status (-1: did not exit normally)
  std::string out;
  std::string err;
};

class TraceExplorerCli : public testing::CorpusTest {
 protected:
  TraceExplorerCli() : CorpusTest("st_trace_explorer") {}

  /// Runs `exe args...` with stdout and stderr captured in files.
  CliRun run_cli(const char* exe, const std::vector<std::string>& args) {
    const std::string out_path = (dir_ / "stdout.txt").string();
    const std::string err_path = (dir_ / "stderr.txt").string();
    std::vector<char*> argv = {const_cast<char*>(exe)};
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    ::posix_spawn_file_actions_init(&actions);
    ::posix_spawn_file_actions_addopen(&actions, 1, out_path.c_str(),
                                       O_WRONLY | O_CREAT | O_TRUNC, 0600);
    ::posix_spawn_file_actions_addopen(&actions, 2, err_path.c_str(),
                                       O_WRONLY | O_CREAT | O_TRUNC, 0600);
    pid_t pid = 0;
    const int rc = ::posix_spawn(&pid, exe, &actions, nullptr, argv.data(), environ);
    ::posix_spawn_file_actions_destroy(&actions);
    CliRun r;
    if (rc != 0) return r;
    int wstatus = 0;
    if (::waitpid(pid, &wstatus, 0) == pid && WIFEXITED(wstatus)) {
      r.status = WEXITSTATUS(wstatus);
    }
    r.out = slurp(out_path);
    r.err = slurp(err_path);
    return r;
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

}  // namespace
}  // namespace st
