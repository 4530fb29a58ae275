// End-to-end driver contract: shell the REAL htpb_run binary (path baked
// in as HTPB_RUN_BINARY) through a scratch directory and assert on its
// observable surface -- exit codes, stderr diagnostics, the report it
// prints and the JSON it writes. In-process runner tests can't catch argv
// plumbing, exit-code mapping, or file-emission regressions; this one
// does.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.hpp"

#ifndef HTPB_RUN_BINARY
#error "HTPB_RUN_BINARY must be defined to the htpb_run executable path"
#endif

namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Scratch directory under the ctest working dir, wiped on entry and exit.
class TempDir {
 public:
  TempDir() : path_(fs::current_path() / "htpb_run_e2e_tmp") {
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

struct RunResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

/// `prefix` wraps the binary (e.g. "timeout 30 ").
RunResult run_tool(const TempDir& dir, const std::string& args,
                   const std::string& prefix = "") {
  const fs::path out = dir.path() / "stdout.txt";
  const fs::path err = dir.path() / "stderr.txt";
  const std::string cmd = prefix + "\"" + HTPB_RUN_BINARY + "\" " + args +
                          " > \"" + out.string() + "\" 2> \"" +
                          err.string() + "\"";
  const int status = std::system(cmd.c_str());
  RunResult r;
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  r.out = slurp(out);
  r.err = slurp(err);
  return r;
}

TEST(HtpbRunE2e, ClosedLoopQuickRunEmitsTradeoffCurves) {
  const TempDir dir;
  const fs::path json_out = dir.path() / "closed_loop.json";
  const RunResult r = run_tool(
      dir, "--scenario defense-closed-loop --quick --threads 2 --json \"" +
               json_out.string() + "\"");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  ASSERT_TRUE(fs::exists(json_out)) << r.err;

  const htpb::json::Value result = htpb::json::parse(slurp(json_out));
  const htpb::json::Object& root = result.as_object();
  ASSERT_NE(root.find("scenario"), nullptr);
  EXPECT_EQ(root.find("scenario")->as_string(), "defense-closed-loop");
  EXPECT_EQ(root.find("quick")->as_bool(), true);

  // 1 quick placement x {static, adaptive} x {none + 3 policies}, every
  // policy name present on both Trojan sides.
  ASSERT_NE(root.find("arms"), nullptr);
  const htpb::json::Array& arms = root.find("arms")->as_array();
  ASSERT_EQ(arms.size(), 8U);
  int seen[2][4] = {};
  for (const auto& v : arms) {
    const htpb::json::Object& row = v.as_object();
    const int t = row.find("trojan")->as_string() == "adaptive" ? 1 : 0;
    const std::string& resp = row.find("response")->as_string();
    const int p = resp == "none"         ? 0
                  : resp == "quarantine" ? 1
                  : resp == "throttle"   ? 2
                                         : 3;
    ++seen[t][p];
  }
  for (int t = 0; t < 2; ++t) {
    for (int p = 0; p < 4; ++p) EXPECT_EQ(seen[t][p], 1) << t << "," << p;
  }

  // The acceptance headline survives the full CLI path: the adaptive
  // Trojan's detection rate is below the equal-duty static Trojan's.
  const htpb::json::Object& cmp =
      root.find("duty_comparison")->as_object();
  EXPECT_LT(cmp.find("adaptive")->as_object().find("detection_rate")
                ->as_double(),
            cmp.find("static")->as_object().find("detection_rate")
                ->as_double());
}

/// The tree minus its one non-deterministic member.
htpb::json::Value without_timing(htpb::json::Value v) {
  v.as_object()["timing"] = htpb::json::Value();
  return v;
}

TEST(HtpbRunE2e, DefaultOutputIsTheReport) {
  const TempDir dir;
  const RunResult r = run_tool(dir, "--scenario table1");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("paper: Table I"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("expected shape:"), std::string::npos) << r.out;
  // The zero-load latency identity holds, not just gets reported.
  EXPECT_NE(r.out.find("(MATCH)"), std::string::npos) << r.out;
}

TEST(HtpbRunE2e, JsonToStdoutEqualsJsonFile) {
  const TempDir dir;
  const fs::path json_out = dir.path() / "table1.json";
  const RunResult to_file = run_tool(
      dir, "--scenario table1 --json \"" + json_out.string() + "\"");
  ASSERT_EQ(to_file.exit_code, 0) << to_file.err;
  // A file target leaves stdout to the report.
  EXPECT_NE(to_file.out.find("(MATCH)"), std::string::npos);
  const htpb::json::Value from_file = htpb::json::parse(slurp(json_out));

  const RunResult to_stdout = run_tool(dir, "--scenario table1 --json -");
  ASSERT_EQ(to_stdout.exit_code, 0) << to_stdout.err;
  const htpb::json::Value from_stdout = htpb::json::parse(to_stdout.out);
  EXPECT_EQ(without_timing(from_stdout), without_timing(from_file));
}

TEST(HtpbRunE2e, ReportKindsRender) {
  const TempDir dir;
  for (const char* name : {"secIIID-area-power", "table2"}) {
    const RunResult r =
        run_tool(dir, std::string("--scenario ") + name + " --quick");
    EXPECT_EQ(r.exit_code, 0) << name << ": " << r.err;
    EXPECT_NE(r.out.find("expected shape:"), std::string::npos) << name;
    EXPECT_TRUE(r.err.empty()) << name << ": " << r.err;
  }
}

TEST(HtpbRunE2e, MissingSpecFileFailsWithThePathNamed) {
  const TempDir dir;
  const fs::path missing = dir.path() / "no_such_spec.json";
  const RunResult r =
      run_tool(dir, "--scenario \"" + missing.string() + "\"");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("no_such_spec.json"), std::string::npos) << r.err;
  // ... and the OS reason, not just the name.
  EXPECT_NE(r.err.find("No such file"), std::string::npos) << r.err;
}

TEST(HtpbRunE2e, MalformedSpecFileReportsPathAndParsePosition) {
  const TempDir dir;
  const fs::path torn = dir.path() / "torn_spec.json";
  std::ofstream(torn) << "{\"name\": \"x\", \"kind\": ";
  const RunResult r = run_tool(dir, "--scenario \"" + torn.string() + "\"");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("torn_spec.json"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("at offset"), std::string::npos) << r.err;
}

TEST(HtpbRunE2e, BadSetOverridesFailLoudly) {
  const TempDir dir;
  // A typo'd key parses as JSON surgery but is rejected by the strict
  // spec reader, naming the bad key.
  const RunResult typo = run_tool(
      dir,
      "--scenario defense-closed-loop --quick --set "
      "response.sanction_epoch=2");
  EXPECT_EQ(typo.exit_code, 1);
  EXPECT_NE(typo.err.find("sanction_epoch"), std::string::npos) << typo.err;

  // Grammar violation (no '='): usage error, distinct exit code.
  const RunResult noeq =
      run_tool(dir, "--scenario defense-closed-loop --set epochs.measure");
  EXPECT_EQ(noeq.exit_code, 2);
  EXPECT_NE(noeq.err.find("key=value"), std::string::npos) << noeq.err;

  // An out-of-range value is caught by validate(), not simulated.
  const RunResult range = run_tool(
      dir,
      "--scenario defense-closed-loop --quick --set "
      "response.sanction_epochs=0");
  EXPECT_EQ(range.exit_code, 1);
  EXPECT_NE(range.err.find("sanction_epochs"), std::string::npos)
      << range.err;
}

// Regression test for a hang: a negative epoch length must not wrap to
// 2^64 - 1 cycles (a run that never reaches its first epoch boundary).
// The strict reader refuses it up front, naming the field; `timeout`
// bounds the check so a regression fails instead of stalling the suite.
TEST(HtpbRunE2e, NegativeEpochCyclesIsAUsageErrorNotAHang) {
  const TempDir dir;
  const RunResult r = run_tool(
      dir, "--scenario table2 --set system.epoch_cycles=-1", "timeout 30 ");
  EXPECT_EQ(r.exit_code, 2) << r.err;  // timeout's 124 on a hang
  EXPECT_NE(r.err.find("system.epoch_cycles"), std::string::npos) << r.err;
}

// A huge but representable mesh passes the reader; validate() must
// refuse it, naming the field, before anything is allocated.
TEST(HtpbRunE2e, OversizedMeshIsRefusedBeforeAllocation) {
  const TempDir dir;
  const RunResult r = run_tool(
      dir, "--scenario table2 --set system.width=100000", "timeout 30 ");
  EXPECT_EQ(r.exit_code, 1) << r.err;  // timeout's 124 on a hang
  EXPECT_NE(r.err.find("scenario.system.width"), std::string::npos) << r.err;
}

TEST(HtpbRunE2e, UnknownArgumentPrintsUsage) {
  const TempDir dir;
  const RunResult r = run_tool(dir, "--scenarios defense-closed-loop");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos) << r.err;
}

}  // namespace
