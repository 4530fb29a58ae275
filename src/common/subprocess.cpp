#include "common/subprocess.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace htpb::common {

namespace {

using clock_type = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(clock_type::time_point t0) {
  // htpb-lint: allow(nondet-call) wall-clock deadline for child-process timeout, never feeds results
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

/// Child-side stream redirection; _exit(127) on failure (the parent sees
/// the same code an exec failure produces -- both mean "never ran").
void redirect_or_die(const std::string& path, int target_fd) {
  if (path.empty()) return;
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0 || ::dup2(fd, target_fd) < 0) _exit(127);
  ::close(fd);
}

}  // namespace

SubprocessResult run_subprocess(const std::vector<std::string>& argv,
                                const SubprocessOptions& opts) {
  if (argv.empty()) {
    throw std::runtime_error("run_subprocess: empty argv");
  }
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);

  // htpb-lint: allow(nondet-call) timeout reference point for the child process, never feeds results
  const auto t0 = clock_type::now();
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error("run_subprocess: fork failed");
  }
  if (pid == 0) {
    // Child. Its own process group, so a timeout signal reaches every
    // process it starts, not just this one.
    ::setpgid(0, 0);
    // setenv/open are not async-signal-safe in theory; in
    // practice every scheduler-shaped tool does exactly this between
    // fork and exec, and the parent is single-purpose at this point.
    for (const auto& [key, value] : opts.env) {
      ::setenv(key.c_str(), value.c_str(), 1);
    }
    redirect_or_die(opts.stdout_path, STDOUT_FILENO);
    redirect_or_die(opts.stderr_path, STDERR_FILENO);
    ::execvp(cargv[0], cargv.data());
    std::fprintf(stderr, "run_subprocess: exec %s failed: %s\n", cargv[0],
                 std::strerror(errno));
    _exit(127);
  }
  // Also set it from the parent: whichever side runs first wins, so the
  // group exists before the first kill(-pid) below. EACCES (the child
  // already exec'd) means the child's own call succeeded.
  ::setpgid(pid, pid);

  // Parent: poll with WNOHANG so the timeout clock keeps running, then
  // escalate SIGTERM -> SIGKILL on the child's whole process group.
  // WNOWAIT leaves the exited child a zombie, which keeps its pid (and so
  // the group id) from being reused until the group is cleaned up below.
  SubprocessResult result;
  bool sent_term = false;
  bool sent_kill = false;
  double kill_deadline = 0.0;
  for (;;) {
    siginfo_t info{};
    if (::waitid(P_PID, static_cast<id_t>(pid), &info,
                 WEXITED | WNOHANG | WNOWAIT) < 0) {
      if (errno != EINTR) {
        throw std::runtime_error("run_subprocess: waitid failed");
      }
    } else if (info.si_pid == pid) {
      break;
    }
    const double elapsed = seconds_since(t0);
    if (opts.timeout_seconds > 0.0 && !sent_term &&
        elapsed >= opts.timeout_seconds) {
      ::kill(-pid, SIGTERM);
      sent_term = true;
      result.timed_out = true;
      kill_deadline = elapsed + opts.term_grace_seconds;
    } else if (sent_term && !sent_kill && elapsed >= kill_deadline) {
      ::kill(-pid, SIGKILL);
      sent_kill = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // The child has exited; nothing it started may outlive it (ESRCH when
  // the group is already empty).
  ::kill(-pid, SIGKILL);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      throw std::runtime_error("run_subprocess: waitpid failed");
    }
  }

  result.seconds = seconds_since(t0);
  if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    result.term_signal = WTERMSIG(status);
    // A signal we sent is a timeout, not a crash of the child's making.
    result.signaled = !result.timed_out;
  }
  return result;
}

}  // namespace htpb::common
