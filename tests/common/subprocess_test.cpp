// run_subprocess contract: exit codes and output capture, env plumbing,
// the SIGTERM -> SIGKILL timeout escalation (grandchildren included), and
// exec-failure reporting.
#include "common/subprocess.hpp"

#include <gtest/gtest.h>

#include <sys/types.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

namespace {

namespace fs = std::filesystem;

using htpb::common::run_subprocess;
using htpb::common::SubprocessOptions;
using htpb::common::SubprocessResult;

class TempDir {
 public:
  TempDir() : path_(fs::current_path() / "subprocess_tmp") {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const fs::path& path() const noexcept { return path_; }

 private:
  fs::path path_;
};

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// True once `pid` is gone or a zombie (a killed orphan waits for its new
/// parent to reap it). Polls for up to two seconds.
bool process_dead(pid_t pid) {
  for (int i = 0; i < 400; ++i) {
    std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
    if (!stat) return true;
    std::string line;
    std::getline(stat, line);
    // Field 3, after the parenthesised command name, is the state.
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos || close + 2 >= line.size() ||
        line[close + 2] == 'Z') {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

/// Runs `script` under a short timeout; it must write the pid of a
/// long-sleeping grandchild to $PIDFILE. Returns that pid.
pid_t grandchild_of_timed_out_run(const std::string& script,
                                  double term_grace_seconds) {
  const TempDir dir;
  const fs::path pidfile = dir.path() / "grandchild.pid";
  SubprocessOptions opts;
  opts.env = {{"PIDFILE", pidfile.string()}};
  opts.timeout_seconds = 0.3;
  opts.term_grace_seconds = term_grace_seconds;
  const SubprocessResult r = run_subprocess({"/bin/sh", "-c", script}, opts);
  EXPECT_TRUE(r.timed_out);
  EXPECT_LT(r.seconds, 10.0);
  std::istringstream in(slurp(pidfile));
  long long pid = 0;
  in >> pid;
  return static_cast<pid_t>(pid);
}

TEST(Subprocess, CapturesStreamsAndExitCode) {
  const TempDir dir;
  SubprocessOptions opts;
  opts.stdout_path = (dir.path() / "out").string();
  opts.stderr_path = (dir.path() / "err").string();
  const SubprocessResult r = run_subprocess(
      {"/bin/sh", "-c", "echo to-stdout; echo to-stderr >&2; exit 3"}, opts);
  EXPECT_FALSE(r.timed_out);
  EXPECT_FALSE(r.signaled);
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_EQ(slurp(dir.path() / "out"), "to-stdout\n");
  EXPECT_EQ(slurp(dir.path() / "err"), "to-stderr\n");
}

TEST(Subprocess, EnvReachesTheChild) {
  const TempDir dir;
  SubprocessOptions opts;
  opts.env = {{"HTPB_SUBPROCESS_PROBE", "visible"}};
  opts.stdout_path = (dir.path() / "out").string();
  const SubprocessResult r = run_subprocess(
      {"/bin/sh", "-c", "printf %s \"$HTPB_SUBPROCESS_PROBE\""}, opts);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(slurp(dir.path() / "out"), "visible");
}

TEST(Subprocess, TimeoutSendsTermAndReportsTimedOut) {
  SubprocessOptions opts;
  opts.timeout_seconds = 0.2;
  opts.term_grace_seconds = 5.0;
  const SubprocessResult r = run_subprocess({"/bin/sleep", "30"}, opts);
  EXPECT_TRUE(r.timed_out);
  // The kill we sent is a timeout verdict, not a child crash.
  EXPECT_FALSE(r.signaled);
  EXPECT_LT(r.seconds, 4.0);
}

TEST(Subprocess, TermIgnoringChildIsKilledAfterGrace) {
  SubprocessOptions opts;
  opts.timeout_seconds = 0.2;
  opts.term_grace_seconds = 0.3;
  // The hang fault's worst case: SIGTERM is ignored, only the KILL
  // escalation ends the child.
  const SubprocessResult r =
      run_subprocess({"/bin/sh", "-c", "trap '' TERM; sleep 30"}, opts);
  EXPECT_TRUE(r.timed_out);
  EXPECT_LT(r.seconds, 10.0);
}

TEST(Subprocess, TimeoutKillsTermIgnoringGrandchild) {
  // Child and grandchild both ignore SIGTERM; the KILL escalation must
  // reach the grandchild too, not only the child.
  const pid_t grandchild = grandchild_of_timed_out_run(
      "trap '' TERM; sleep 30 & echo $! > \"$PIDFILE\"; wait", 0.3);
  ASSERT_GT(grandchild, 0);
  EXPECT_TRUE(process_dead(grandchild));
}

TEST(Subprocess, NoGrandchildOutlivesAChildThatDiesOnTerm) {
  // The child dies on SIGTERM at once, leaving a TERM-ignoring
  // grandchild behind; it must not survive the call.
  const pid_t grandchild = grandchild_of_timed_out_run(
      "(trap '' TERM; exec sleep 30) & echo $! > \"$PIDFILE\"; wait", 30.0);
  ASSERT_GT(grandchild, 0);
  EXPECT_TRUE(process_dead(grandchild));
}

TEST(Subprocess, ChildKilledByItsOwnSignalIsACrash) {
  SubprocessOptions opts;
  const SubprocessResult r =
      run_subprocess({"/bin/sh", "-c", "kill -ABRT $$"}, opts);
  EXPECT_FALSE(r.timed_out);
  EXPECT_TRUE(r.signaled);
  EXPECT_EQ(r.term_signal, SIGABRT);
}

TEST(Subprocess, ExecFailureExitsWith127) {
  const TempDir dir;
  SubprocessOptions opts;
  opts.stderr_path = (dir.path() / "err").string();
  const SubprocessResult r =
      run_subprocess({"/no/such/binary/anywhere"}, opts);
  EXPECT_EQ(r.exit_code, 127);
  EXPECT_NE(slurp(dir.path() / "err").find("exec"), std::string::npos);
}

TEST(Subprocess, EmptyArgvThrows) {
  EXPECT_THROW((void)run_subprocess({}, {}), std::runtime_error);
}

}  // namespace
