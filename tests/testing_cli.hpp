// Runs a built CLI tool as a subprocess for the CLI tests
// (test_trace_explorer, test_elog_tool). ctest points an environment
// variable at each binary; a test whose variable is unset skips.
#pragma once

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

extern char** environ;

namespace st::testing {

/// The binary named by environment variable `var`, or nullptr when it
/// is unset or does not exist.
inline const char* exe_from_env(const char* var) {
  const char* exe = std::getenv(var);
  if (exe == nullptr || *exe == '\0' || !std::filesystem::exists(exe)) return nullptr;
  return exe;
}

inline std::string slurp(const std::filesystem::path& p) {
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

/// Runs `exe args...` with stdout and stderr captured in files under
/// `dir`.
inline CliRun run_cli(const char* exe, const std::vector<std::string>& args,
                      const std::filesystem::path& dir) {
  const std::string out_path = (dir / "stdout.txt").string();
  const std::string err_path = (dir / "stderr.txt").string();
  std::vector<char*> argv = {const_cast<char*>(exe)};
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  ::posix_spawn_file_actions_init(&actions);
  ::posix_spawn_file_actions_addopen(&actions, 1, out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                                     0600);
  ::posix_spawn_file_actions_addopen(&actions, 2, err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                                     0600);
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

}  // namespace st::testing
