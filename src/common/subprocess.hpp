// Crash-isolated subprocess execution for the fleet scheduler (and any
// tool that shells a worker): fork/exec with output redirection, extra
// environment variables, and a wall-clock timeout enforced by SIGTERM
// with escalation to SIGKILL -- a worker that ignores SIGTERM (a hung
// simulation, an injected hang fault) still dies on schedule. The child
// runs in its own process group; signals go to the whole group, and
// whatever is left of the group when the child exits is killed, so no
// grandchild outlives the call.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace htpb::common {

struct SubprocessOptions {
  /// Extra environment variables set in the child (on top of the
  /// inherited environment).
  std::vector<std::pair<std::string, std::string>> env;
  /// Redirect targets; empty = inherit the parent's stream.
  std::string stdout_path;
  std::string stderr_path;
  /// Wall-clock budget; 0 = unlimited. On expiry the child's process
  /// group gets SIGTERM, then SIGKILL `term_grace_seconds` later if the
  /// child is still alive.
  double timeout_seconds = 0.0;
  double term_grace_seconds = 2.0;
};

struct SubprocessResult {
  /// The wall-clock budget expired and the child was killed (regardless
  /// of whether SIGTERM sufficed or SIGKILL was needed).
  bool timed_out = false;
  /// The child died on a signal it did not ask for (crash); exclusive
  /// with a valid exit_code. Timeout kills are reported as timed_out,
  /// not signaled.
  bool signaled = false;
  int exit_code = -1;   ///< valid when !signaled && !timed_out
  int term_signal = 0;  ///< valid when signaled
  double seconds = 0.0;
};

/// Runs `argv` (argv[0] resolved via PATH) and waits for it to finish
/// under the options' timeout policy. Throws std::runtime_error when the
/// child cannot even be spawned (fork failure); an exec failure inside
/// the child surfaces as exit code 127.
[[nodiscard]] SubprocessResult run_subprocess(
    const std::vector<std::string>& argv, const SubprocessOptions& opts = {});

}  // namespace htpb::common
