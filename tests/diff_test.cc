// dfil_report library tests: ParseRun hardening (malformed-input corpus), fingerprint
// comparability, run diffing, the result-history round trip, and the command line — flag parsing
// and the exit-code contract of every command family, driven in-process through RunCli.
//
// The pinned acceptance test at the bottom re-creates the PR's motivating story: two fixed-seed
// 8-node Jacobi runs that differ only in PCP (write-invalidate vs the multiple-writer diff
// protocol), diffed from their metrics alone — the report must name the shared edge pages and
// the dsm.page_data_bytes movement without any trace in hand.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/jacobi.h"
#include "src/common/json.h"
#include "src/core/cluster.h"
#include "src/core/metrics_io.h"
#include "tools/report_lib.h"

namespace dfil {
namespace {

// --- ParseRun hardening ---------------------------------------------------------------------

// A syntactically minimal but structurally complete document (the floor ParseRun accepts).
const char kMinimalV2[] =
    "{\"schema\": \"dfil-metrics-v2\", \"label\": \"t\", \"pcp\": \"wi\", \"nodes\": 1,"
    " \"completed\": 1, \"makespan_us\": 5.0, \"fingerprint\": {\"config\": \"c\", \"git\": \"g\","
    " \"seed\": \"1\", \"app\": \"a\"}, \"per_node\": [{\"node\": 0}]}";

TEST(ParseRunHardeningTest, AcceptsMinimalV2Document) {
  report::RunSummary run;
  std::string error;
  ASSERT_TRUE(report::ParseRun(kMinimalV2, &run, &error)) << error;
  EXPECT_EQ(run.label, "t");
  EXPECT_EQ(run.nodes, 1);
  EXPECT_TRUE(run.completed);
  ASSERT_EQ(run.per_node.size(), 1u);
  EXPECT_EQ(run.fingerprint.config, "c");
  EXPECT_EQ(run.fingerprint.app, "a");
}

TEST(ParseRunHardeningTest, RejectsMalformedCorpus) {
  // Every entry must be rejected with a non-empty, field-level error — never parsed into a
  // zeroed summary a downstream gate would silently "pass".
  const std::string head =
      "{\"schema\": \"dfil-metrics-v2\", \"label\": \"t\", \"pcp\": \"wi\", \"nodes\": 1,"
      " \"completed\": 1, \"makespan_us\": 1, \"fingerprint\": {},";
  const struct {
    const char* name;
    std::string text;
  } corpus[] = {
      {"empty", ""},
      {"garbage", "not json at all"},
      {"root array", "[1, 2, 3]"},
      {"root number", "42"},
      {"unterminated object", "{\"schema\": \"dfil-metrics-v2\""},
      {"missing schema", "{\"label\": \"t\", \"pcp\": \"wi\", \"nodes\": 1, \"completed\": 1,"
                         " \"makespan_us\": 1, \"fingerprint\": {}, \"per_node\": []}"},
      {"schema wrong type", "{\"schema\": 2, \"label\": \"t\", \"pcp\": \"wi\", \"nodes\": 1,"
                            " \"completed\": 1, \"makespan_us\": 1, \"fingerprint\": {},"
                            " \"per_node\": []}"},
      {"unknown schema", "{\"schema\": \"dfil-metrics-v9\", \"label\": \"t\", \"pcp\": \"wi\","
                         " \"nodes\": 1, \"completed\": 1, \"makespan_us\": 1,"
                         " \"fingerprint\": {}, \"per_node\": []}"},
      {"retired v1 schema", "{\"schema\": \"dfil-metrics-v1\", \"label\": \"t\", \"pcp\": \"wi\","
                            " \"nodes\": 1, \"completed\": 1, \"makespan_us\": 5.0,"
                            " \"per_node\": [{\"node\": 0}]}"},
      {"missing label", "{\"schema\": \"dfil-metrics-v2\", \"pcp\": \"wi\", \"nodes\": 1,"
                        " \"completed\": 1, \"makespan_us\": 1, \"fingerprint\": {},"
                        " \"per_node\": []}"},
      {"missing pcp", "{\"schema\": \"dfil-metrics-v2\", \"label\": \"t\", \"nodes\": 1,"
                      " \"completed\": 1, \"makespan_us\": 1, \"fingerprint\": {},"
                      " \"per_node\": []}"},
      {"nodes wrong type", "{\"schema\": \"dfil-metrics-v2\", \"label\": \"t\", \"pcp\": \"wi\","
                           " \"nodes\": \"eight\", \"completed\": 1, \"makespan_us\": 1,"
                           " \"fingerprint\": {}, \"per_node\": []}"},
      {"missing makespan", "{\"schema\": \"dfil-metrics-v2\", \"label\": \"t\", \"pcp\": \"wi\","
                           " \"nodes\": 1, \"completed\": 1, \"fingerprint\": {},"
                           " \"per_node\": []}"},
      {"missing fingerprint", "{\"schema\": \"dfil-metrics-v2\", \"label\": \"t\","
                              " \"pcp\": \"wi\", \"nodes\": 1, \"completed\": 1,"
                              " \"makespan_us\": 1, \"per_node\": []}"},
      {"fingerprint wrong type", "{\"schema\": \"dfil-metrics-v2\", \"label\": \"t\","
                                 " \"pcp\": \"wi\", \"nodes\": 1, \"completed\": 1,"
                                 " \"makespan_us\": 1, \"fingerprint\": \"x\", \"per_node\": []}"},
      {"missing per_node", head.substr(0, head.size() - 1) + "}"},
      {"per_node not array", head + " \"per_node\": {}}"},
      {"per_node entry not object", head + " \"per_node\": [7]}"},
      {"per_node entry missing node", head + " \"per_node\": [{}]}"},
      {"cluster wrong type", head + " \"cluster\": 3, \"per_node\": []}"},
  };
  for (const auto& c : corpus) {
    report::RunSummary run;
    std::string error;
    EXPECT_FALSE(report::ParseRun(c.text, &run, &error)) << c.name;
    EXPECT_FALSE(error.empty()) << c.name;
  }
}

TEST(ParseRunHardeningTest, RejectsTruncatedRealDocument) {
  // A real artifact chopped mid-write (disk full, killed bench) must fail loudly at every
  // truncation point, not just at a lucky prefix.
  apps::JacobiParams p;
  p.n = 256;
  p.iterations = 1;
  core::ClusterConfig cfg;
  cfg.nodes = 2;
  apps::AppRun run = apps::RunJacobiDf(p, cfg);
  ASSERT_TRUE(run.report.completed);
  std::ostringstream os;
  core::WriteMetricsJson(run.report, "trunc", os);
  const std::string full = os.str();
  report::RunSummary summary;
  std::string error;
  ASSERT_TRUE(report::ParseRun(full, &summary, &error)) << error;
  for (const double frac : {0.1, 0.5, 0.9, 0.99}) {
    const std::string cut = full.substr(0, static_cast<size_t>(full.size() * frac));
    error.clear();
    EXPECT_FALSE(report::ParseRun(cut, &summary, &error)) << "fraction " << frac;
    EXPECT_FALSE(error.empty()) << "fraction " << frac;
  }
}

// --- CLI flag vocabulary --------------------------------------------------------------------

report::CliOptions ParseArgs(std::vector<std::string> tokens, int first) {
  std::vector<char*> argv;
  argv.reserve(tokens.size());
  for (std::string& t : tokens) {
    argv.push_back(t.data());
  }
  return report::ParseCliOptions(static_cast<int>(argv.size()), argv.data(), first);
}

TEST(CliOptionsTest, ParsesBothFlagForms) {
  const report::CliOptions opt =
      ParseArgs({"tool", "--top", "5", "a.json", "--force", "--check=g.json", "b.json"}, 1);
  EXPECT_TRUE(opt.error.empty()) << opt.error;
  EXPECT_EQ(opt.top_n, 5u);
  EXPECT_TRUE(opt.force);
  EXPECT_EQ(opt.check_baseline, "g.json");
  ASSERT_EQ(opt.paths.size(), 2u);
  EXPECT_EQ(opt.paths[0], "a.json");
  EXPECT_EQ(opt.paths[1], "b.json");
}

TEST(CliOptionsTest, FlagsArePositionIndependent) {
  const report::CliOptions a = ParseArgs({"tool", "--check", "c.json", "x.json"}, 1);
  const report::CliOptions b = ParseArgs({"tool", "x.json", "--check=c.json"}, 1);
  EXPECT_EQ(a.check_baseline, "c.json");
  EXPECT_EQ(a.check_baseline, b.check_baseline);
  EXPECT_EQ(a.paths, b.paths);
}

TEST(CliOptionsTest, RejectsUnknownFlagAndMissingValue) {
  EXPECT_EQ(ParseArgs({"tool", "--bogus"}, 1).error, "--bogus");
  EXPECT_FALSE(ParseArgs({"tool", "--check"}, 1).error.empty());
  EXPECT_FALSE(ParseArgs({"tool", "--top"}, 1).error.empty());
  // The gate baseline and the history file are operands of their commands, not flags.
  EXPECT_EQ(ParseArgs({"tool", "--gate", "g.json"}, 1).error, "--gate");
  EXPECT_EQ(ParseArgs({"tool", "--history=h.jsonl"}, 1).error, "--history=h.jsonl");
}

// --- Fingerprints and diffing ---------------------------------------------------------------

report::RunSummary SummaryWith(const std::string& app, const std::string& config) {
  report::RunSummary run;
  run.label = "s";
  run.nodes = 4;
  run.fingerprint.app = app;
  run.fingerprint.config = config;
  run.fingerprint.seed = "1";
  return run;
}

TEST(FingerprintTest, IdenticalConfigsCompareIdentical) {
  const report::FingerprintCheck check =
      report::CompareFingerprints(SummaryWith("jacobi", "abc"), SummaryWith("jacobi", "abc"));
  EXPECT_TRUE(check.compatible);
  EXPECT_TRUE(check.identical_config);
  EXPECT_TRUE(check.mismatches.empty());
}

TEST(FingerprintTest, ConfigDeltaIsCompatibleButItemized) {
  report::RunSummary a = SummaryWith("jacobi", "abc");
  report::RunSummary b = SummaryWith("jacobi", "def");
  a.provenance["pcp"] = "write_invalidate";
  b.provenance["pcp"] = "diff";
  const report::FingerprintCheck check = report::CompareFingerprints(a, b);
  EXPECT_TRUE(check.compatible);
  EXPECT_FALSE(check.identical_config);
  ASSERT_FALSE(check.config_notes.empty());
  EXPECT_NE(check.config_notes[0].find("pcp"), std::string::npos);
}

TEST(FingerprintTest, DifferentAppsAreIncompatible) {
  const report::FingerprintCheck check =
      report::CompareFingerprints(SummaryWith("jacobi", "abc"), SummaryWith("fft", "abc"));
  EXPECT_FALSE(check.compatible);
  ASSERT_FALSE(check.mismatches.empty());
  EXPECT_NE(check.mismatches[0].find("app"), std::string::npos);
}

TEST(FingerprintTest, JacobiIterationCountsAreIncompatible) {
  // bench_jacobi_pcp's jacobi_ii8 (60 iterations) vs jacobi_ii8_co (120): not a coalescing A/B.
  apps::JacobiParams ii8;
  ii8.iterations = 60;
  apps::JacobiParams co = ii8;
  co.iterations = 120;
  const report::FingerprintCheck check = report::CompareFingerprints(
      SummaryWith(apps::AppIdentity(ii8), "abc"), SummaryWith(apps::AppIdentity(co), "def"));
  EXPECT_FALSE(check.compatible);
  ASSERT_FALSE(check.mismatches.empty());
  EXPECT_EQ(check.mismatches[0], "app: jacobi n=256 iterations=60 pools=3 vs jacobi n=256 "
                                 "iterations=120 pools=3");
}

TEST(FingerprintTest, DifferentNodeCountsAreIncompatible) {
  report::RunSummary a = SummaryWith("jacobi", "abc");
  report::RunSummary b = SummaryWith("jacobi", "abc");
  b.nodes = 8;
  EXPECT_FALSE(report::CompareFingerprints(a, b).compatible);
}

TEST(DiffRunsTest, RanksByRelativeMovementAndSkipsUnchanged) {
  report::RunSummary a = SummaryWith("jacobi", "abc");
  report::RunSummary b = SummaryWith("jacobi", "abc");
  a.cluster_counters = {{"same", 100}, {"doubled", 50}, {"nudged", 1000}, {"gone", 7}};
  b.cluster_counters = {{"same", 100}, {"doubled", 100}, {"nudged", 1010}, {"fresh", 3}};
  const report::RunDiff diff = report::DiffRuns(a, b);
  std::vector<std::string> names;
  for (const report::Delta& d : diff.counters) {
    names.push_back(d.name);
  }
  // "same" is unchanged and omitted; counters present on only one side surface as full-swing
  // deltas ("fresh" 0 -> 3 is +300% against the ±1 floor base); "doubled" (+100%) outranks
  // "gone" (-100%) on |diff| at equal |rel|, and "nudged" (+1%) ranks last.
  EXPECT_EQ(names, (std::vector<std::string>{"fresh", "doubled", "gone", "nudged"}));
  EXPECT_DOUBLE_EQ(diff.counters[0].rel(), 3.0);
}

// --- Result history -------------------------------------------------------------------------

TEST(HistoryTest, MetricsLineRoundTripsThroughJson) {
  report::RunSummary run;
  std::string error;
  ASSERT_TRUE(report::ParseRun(kMinimalV2, &run, &error)) << error;
  run.fingerprint.app = "jacobi";
  run.cluster_counters["dsm.page_request_messages"] = 42;
  const std::string line = report::HistoryLine(run);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  json::ParseResult parsed = json::Parse(line);
  ASSERT_TRUE(parsed.ok()) << parsed.error << " in " << line;
  EXPECT_EQ(parsed.value->GetString("kind"), "metrics");
  EXPECT_EQ(parsed.value->GetString("label"), "t");
  EXPECT_EQ(parsed.value->GetString("app"), "jacobi");
  const json::Value* counters = parsed.value->Get("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->GetNumber("dsm.page_request_messages"), 42.0);
}

TEST(HistoryTest, BenchLineRoundTripsThroughJson) {
  const std::string bench =
      "{\n  \"bench\": \"jacobi_pcp\",\n  \"nodes\": 8,\n  \"rows\": [\n    {\"x\": 1},\n"
      "    {\"x\": 2}\n  ]\n}\n";
  std::string line;
  std::string error;
  ASSERT_TRUE(report::BenchHistoryLine(bench, &line, &error)) << error;
  json::ParseResult parsed = json::Parse(line);
  ASSERT_TRUE(parsed.ok()) << parsed.error << " in " << line;
  EXPECT_EQ(parsed.value->GetString("kind"), "bench");
  EXPECT_EQ(parsed.value->GetString("bench"), "jacobi_pcp");
  EXPECT_EQ(parsed.value->GetNumber("rows"), 2.0);

  // Anything without a "bench" tag is rejected, not guessed at.
  EXPECT_FALSE(report::BenchHistoryLine("{\"rows\": []}", &line, &error));
  EXPECT_FALSE(error.empty());
}

TEST(HistoryTest, AppendIsIdempotent) {
  const std::string path = ::testing::TempDir() + "/dfil_history_test.jsonl";
  std::remove(path.c_str());
  const std::vector<std::string> lines = {"{\"kind\": \"bench\", \"bench\": \"a\"}",
                                          "{\"kind\": \"bench\", \"bench\": \"b\"}"};
  size_t appended = 0;
  std::string error;
  ASSERT_TRUE(report::AppendHistory(path, lines, &appended, &error)) << error;
  EXPECT_EQ(appended, 2u);
  // Re-appending the same lines (plus one new) only writes the new one.
  std::vector<std::string> again = lines;
  again.push_back("{\"kind\": \"bench\", \"bench\": \"c\"}");
  ASSERT_TRUE(report::AppendHistory(path, again, &appended, &error)) << error;
  EXPECT_EQ(appended, 1u);
  std::ifstream in(path);
  std::string file_line;
  std::vector<std::string> contents;
  while (std::getline(in, file_line)) {
    contents.push_back(file_line);
  }
  EXPECT_EQ(contents, again);
  std::remove(path.c_str());
}

TEST(HistoryTest, QuotesAndBackslashesRoundTrip) {
  // A label carrying both JSON metacharacters survives the metrics writer, the metrics reader
  // and the history line; a bench name does the same through its history line.
  const std::string label = "a\"b\\c";
  apps::JacobiParams p;
  p.n = 64;
  p.iterations = 1;
  core::ClusterConfig cfg;
  cfg.nodes = 2;
  apps::AppRun app = apps::RunJacobiDf(p, cfg);
  ASSERT_TRUE(app.report.completed);
  std::ostringstream os;
  core::WriteMetricsJson(app.report, label, os);
  report::RunSummary run;
  std::string error;
  ASSERT_TRUE(report::ParseRun(os.str(), &run, &error)) << error;
  EXPECT_EQ(run.label, label);
  json::ParseResult line = json::Parse(report::HistoryLine(run));
  ASSERT_TRUE(line.ok()) << line.error;
  EXPECT_EQ(line.value->GetString("label"), label);

  std::string bench_line;
  ASSERT_TRUE(report::BenchHistoryLine("{\"bench\": \"x\\\\y\"}", &bench_line, &error)) << error;
  json::ParseResult bench = json::Parse(bench_line);
  ASSERT_TRUE(bench.ok()) << bench.error << " in " << bench_line;
  EXPECT_EQ(bench.value->GetString("bench"), "x\\y");
}

// --- The command line: one dispatch, one exit-code contract ---------------------------------

struct CliResult {
  int rc = -1;
  std::string out;
  std::string err;
};

CliResult RunCli(std::vector<std::string> args) {
  args.insert(args.begin(), "dfil_report");
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  std::ostringstream out;
  std::ostringstream err;
  CliResult r;
  r.rc = report::RunCli(static_cast<int>(argv.size()), argv.data(), out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

// The file name carries the test's name: ctest runs every test in its own process, in parallel,
// so a name shared between tests lets one rewrite another's input while it is being read.
std::string WriteTemp(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/dfil_cli_" +
                           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                           "_" + name;
  std::ofstream(path) << text;
  return path;
}

// A one-node run whose page requests all land on page 3.
std::string MetricsDoc(const std::string& label, const std::string& app, int requests) {
  const std::string counters = "{\"dsm.page_request_messages\": " + std::to_string(requests) + "}";
  return "{\"schema\": \"dfil-metrics-v2\", \"label\": \"" + label +
         "\", \"pcp\": \"wi\", \"nodes\": 1, \"completed\": 1, \"makespan_us\": 5.0,"
         " \"fingerprint\": {\"config\": \"c\", \"git\": \"g\", \"seed\": \"1\", \"app\": \"" +
         app + "\"}, \"cluster\": {\"counters\": " + counters +
         "}, \"per_node\": [{\"node\": 0, \"metrics\": {\"counters\": " + counters +
         "}, \"page_heat\": [[3, " + std::to_string(requests) + "]]}]}";
}

std::string GateDoc(int expected) {
  return "{\"schema\": \"dfil-gate-v1\", \"tolerance\": 0.10, \"runs\": {\"a\": "
         "{\"dsm.page_request_messages\": " +
         std::to_string(expected) + "}}}";
}

TEST(ReportCliTest, GatePassesWithoutAttribution) {
  const std::string run = WriteTemp("a.json", MetricsDoc("a", "jacobi", 100));
  const CliResult r = RunCli({"gate", WriteTemp("pass_gate.json", GateDoc(105)), run});
  EXPECT_EQ(r.rc, report::kExitOk) << r.err;
  EXPECT_NE(r.out.find("ok   a dsm.page_request_messages: expected 105, got 100"),
            std::string::npos)
      << r.out;
  EXPECT_EQ(r.out.find("Where the drift lives"), std::string::npos);
  EXPECT_NE(r.out.find("gate: PASS\n"), std::string::npos);
}

TEST(ReportCliTest, FailingGateExitsOneAndLocatesTheDrift) {
  const std::string run = WriteTemp("a.json", MetricsDoc("a", "jacobi", 100));
  const CliResult r = RunCli({"gate", WriteTemp("fail_gate.json", GateDoc(200)), run});
  EXPECT_EQ(r.rc, report::kExitCheckFailed) << r.err;
  const size_t drift = r.out.find("\nWhere the drift lives:\n");
  ASSERT_NE(drift, std::string::npos) << r.out;
  EXPECT_NE(r.out.find("per-node: n0=100", drift), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("hottest pages: p3=100", drift), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("gate: FAIL\n"), std::string::npos);
}

TEST(ReportCliTest, UnreadableGateBaselineExitsThree) {
  const std::string run = WriteTemp("a.json", MetricsDoc("a", "jacobi", 100));
  // A run entry that is not an object of counters would otherwise pass with nothing compared.
  for (const char* baseline : {"{\"schema\": \"dfil-gate-v1\", \"runs\": {\"a\": 100}}",
                               "{\"schema\": \"dfil-gate-v2\", \"runs\": {}}"}) {
    const CliResult r = RunCli({"gate", WriteTemp("bad_gate.json", baseline), run});
    EXPECT_EQ(r.rc, report::kExitIo) << baseline << "\n" << r.out;
    EXPECT_EQ(r.out.find("gate: PASS"), std::string::npos) << baseline;
  }
}

TEST(ReportCliTest, DiffRefusesMismatchedAppsUnlessForced) {
  const std::string a = WriteTemp("a.json", MetricsDoc("a", "jacobi", 100));
  const std::string b = WriteTemp("b.json", MetricsDoc("b", "fft", 150));
  const CliResult refused = RunCli({"diff", a, b});
  EXPECT_EQ(refused.rc, report::kExitCheckFailed);
  EXPECT_NE(refused.out.find("INCOMPATIBLE"), std::string::npos) << refused.out;
  EXPECT_NE(refused.err.find("--force"), std::string::npos) << refused.err;
  const CliResult forced = RunCli({"diff", "--force", a, b});
  EXPECT_EQ(forced.rc, report::kExitOk) << forced.err;
  EXPECT_NE(forced.out.find("dsm.page_request_messages"), std::string::npos) << forced.out;
}

TEST(ReportCliTest, HistorySkipsDuplicateLines) {
  const std::string a = WriteTemp("a.json", MetricsDoc("a", "jacobi", 100));
  const std::string bench = WriteTemp("bench.json", "{\"bench\": \"x\", \"nodes\": 8}");
  const std::string history = ::testing::TempDir() + "/dfil_cli_history.jsonl";
  std::remove(history.c_str());
  const CliResult first = RunCli({"history", history, a, bench, a});
  EXPECT_EQ(first.rc, report::kExitOk) << first.err;
  EXPECT_NE(first.out.find("appended 2 line(s)"), std::string::npos) << first.out;
  EXPECT_NE(first.out.find("(1 duplicate(s) skipped)"), std::string::npos) << first.out;
  const CliResult again = RunCli({"history", history, bench, a});
  EXPECT_EQ(again.rc, report::kExitOk) << again.err;
  EXPECT_NE(again.out.find("appended 0 line(s)"), std::string::npos) << again.out;
  std::ifstream in(history);
  size_t lines = 0;
  for (std::string line; std::getline(in, line);) {
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
  std::remove(history.c_str());

  // A metrics file where the history file belongs (`history METRICS_*.json`) is refused as it is.
  const std::string before = MetricsDoc("a", "jacobi", 100);
  EXPECT_EQ(RunCli({"history", a, bench}).rc, report::kExitIo);
  std::ifstream target(a);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(target), {}), before);
}

TEST(ReportCliTest, UnparseableTraceExitsThreeFromEveryTraceCommand) {
  const std::string garbage = WriteTemp("garbage_trace.json", "[{\"ph\": \"B\",");
  const std::string no_events = WriteTemp("no_events_trace.json", "{\"events\": []}");
  for (const std::string& bad : {garbage, no_events}) {
    for (const char* cmd : {"check-trace", "paths", "critpath", "blame"}) {
      EXPECT_EQ(RunCli({cmd, bad}).rc, report::kExitIo) << cmd << " " << bad;
    }
    const std::string a = WriteTemp("a.json", MetricsDoc("a", "jacobi", 100));
    EXPECT_EQ(RunCli({"diff", a, a, bad, bad}).rc, report::kExitIo) << bad;
  }
  // A trace that parses but is structurally broken is a failed check, not an unreadable input.
  const std::string unbalanced = WriteTemp("unbalanced_trace.json", "[{\"ph\": \"E\"}]");
  const CliResult r = RunCli({"check-trace", unbalanced});
  EXPECT_EQ(r.rc, report::kExitCheckFailed) << r.err;
  EXPECT_NE(r.out.find("MALFORMED"), std::string::npos) << r.out;
}

TEST(ReportCliTest, UsageErrorsExitTwo) {
  const std::string a = WriteTemp("a.json", MetricsDoc("a", "jacobi", 100));
  EXPECT_EQ(RunCli({}).rc, report::kExitUsage);
  EXPECT_EQ(RunCli({"frobnicate", a}).rc, report::kExitUsage);
  EXPECT_EQ(RunCli({"report", "--bogus", a}).rc, report::kExitUsage);
  EXPECT_EQ(RunCli({"report", a, "--top"}).rc, report::kExitUsage);
  EXPECT_EQ(RunCli({"--gate", a, a}).rc, report::kExitUsage);
  EXPECT_EQ(RunCli({"report"}).rc, report::kExitUsage);
  EXPECT_EQ(RunCli({"gate", a}).rc, report::kExitUsage);
  EXPECT_EQ(RunCli({"diff", a}).rc, report::kExitUsage);
  EXPECT_EQ(RunCli({"diff", a, a, a}).rc, report::kExitUsage);
  EXPECT_EQ(RunCli({"history", a}).rc, report::kExitUsage);
  EXPECT_EQ(RunCli({"help"}).rc, report::kExitOk);
}

TEST(ReportCliTest, FlagsTheCommandDoesNotReadExitTwo) {
  const std::string a = WriteTemp("a.json", MetricsDoc("a", "jacobi", 100));
  const std::string gate = WriteTemp("pass_gate.json", GateDoc(100));
  for (const std::vector<std::string>& args : std::vector<std::vector<std::string>>{
           {"check-trace", "--check", gate, a},
           {"report", "--force", a},
           {"figure9", "--top", "3", a},
           {"gate", "--check", gate, gate, a},
           {"history", "--force", a, a},
       }) {
    const CliResult r = RunCli(args);
    EXPECT_EQ(r.rc, report::kExitUsage) << args[0] << " " << args[1];
    EXPECT_NE(r.err.find("does not take " + args[1]), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("usage: dfil_report"), std::string::npos) << r.err;
  }
  // The same flags on the commands that read them are accepted.
  EXPECT_EQ(RunCli({"report", "--top", "3", a}).rc, report::kExitOk);
  EXPECT_EQ(RunCli({"diff", "--force", a, a}).rc, report::kExitOk);
}

TEST(ReportCliTest, MissingFileExitsThree) {
  const std::string a = WriteTemp("a.json", MetricsDoc("a", "jacobi", 100));
  const std::string missing = ::testing::TempDir() + "/dfil_cli_does_not_exist.json";
  for (const std::vector<std::string>& args : std::vector<std::vector<std::string>>{
           {"report", missing},
           {"check-trace", missing},
           {"critpath", "--check", missing, missing},
           {"flight", missing},
           {"gate", missing, a},
           {"gate", WriteTemp("pass_gate.json", GateDoc(100)), missing},
           {"diff", a, missing},
           {"history", ::testing::TempDir() + "/dfil_cli_unused.jsonl", missing},
       }) {
    const CliResult r = RunCli(args);
    EXPECT_EQ(r.rc, report::kExitIo) << args[0];
    EXPECT_NE(r.err.find("cannot open"), std::string::npos) << args[0] << ": " << r.err;
  }
}

// --- Pinned acceptance: the false-sharing story from counters alone -------------------------

report::RunSummary JacobiRunSummary(dsm::Pcp pcp) {
  apps::JacobiParams p;
  // 248 rows across 8 nodes = 31-row strips whose boundaries split 4 KB pages: genuine false
  // sharing (two neighbours write distinct rows of one page), the scenario the diff protocol
  // exists for. The aligned 256-row default never write-shares a page and diffs nothing.
  p.n = 248;
  p.iterations = 3;
  core::ClusterConfig cfg;
  cfg.nodes = 8;
  cfg.seed = 42;
  cfg.costs = sim::CostModel::SunIpcEthernet();
  cfg.network = core::NetworkKind::kSharedEthernet;
  cfg.dsm.pcp = pcp;
  apps::AppRun run = apps::RunJacobiDf(p, cfg);
  EXPECT_TRUE(run.report.completed) << run.report.deadlock_report;
  std::ostringstream os;
  // Same label for both runs: the app identity (label fallback) must match for the runs to be
  // comparable; the PCP difference is exactly the deliberate A/B the fingerprint itemizes.
  core::WriteMetricsJson(run.report, "jacobi8", os);
  report::RunSummary summary;
  std::string error;
  EXPECT_TRUE(report::ParseRun(os.str(), &summary, &error)) << error;
  return summary;
}

TEST(DiffAcceptanceTest, JacobiWiVsDiffNamesEdgePagesFromCountersAlone) {
  const report::RunSummary wi = JacobiRunSummary(dsm::Pcp::kWriteInvalidate);
  const report::RunSummary df = JacobiRunSummary(dsm::Pcp::kDiff);
  const report::RunDiff diff = report::DiffRuns(wi, df);

  // Same app, same shape, deliberately different protocol: comparable, non-identical config,
  // and the PCP move is itemized by name.
  EXPECT_TRUE(diff.fingerprints.compatible);
  EXPECT_FALSE(diff.fingerprints.identical_config);
  bool pcp_note = false;
  for (const std::string& note : diff.fingerprints.config_notes) {
    pcp_note = pcp_note || note.find("pcp") != std::string::npos;
  }
  EXPECT_TRUE(pcp_note);

  // The page-data movement is the headline: multiple-writer diffs replace the write-invalidate
  // ownership ping-pong on the shared boundary pages, cutting whole-page transfers by well over
  // the gate tolerance while the diff-merge counters appear from zero.
  auto find = [&](const std::string& name) -> const report::Delta* {
    for (const report::Delta& d : diff.counters) {
      if (d.name == name) {
        return &d;
      }
    }
    return nullptr;
  };
  const report::Delta* data_bytes = find("dsm.page_data_bytes");
  ASSERT_NE(data_bytes, nullptr)
      << "dsm.page_data_bytes moved out of the ranked counter deltas";
  EXPECT_LT(data_bytes->b, data_bytes->a);
  EXPECT_GT((data_bytes->a - data_bytes->b) / data_bytes->a, 0.10);
  const report::Delta* merges = find("dsm.diff_merges_sent");
  ASSERT_NE(merges, nullptr);
  EXPECT_EQ(merges->a, 0.0);
  EXPECT_GT(merges->b, 0.0);
  const report::Delta* write_faults = find("dsm.write_faults");
  ASSERT_NE(write_faults, nullptr);
  EXPECT_LT(write_faults->b, write_faults->a);

  // The per-page fault heat names the edge pages and nothing else. A strip boundary k lives at
  // byte 31k * 1984 (row = 248 doubles) inside each of the two grids (the second starts at byte
  // 248*248*8 of the shared heap); every ranked page delta must land within one page of a
  // boundary — interior pages behave identically under both protocols.
  ASSERT_FALSE(diff.pages.empty());
  std::set<uint64_t> pages_named;
  for (const report::Delta& d : diff.pages) {
    ASSERT_EQ(d.name.rfind("page ", 0), 0u) << d.name;
    pages_named.insert(std::stoull(d.name.substr(5)));
  }
  std::set<uint64_t> boundary_pages;
  const uint64_t row_bytes = 248 * sizeof(double);
  for (const uint64_t grid_base : {uint64_t{0}, uint64_t{248 * row_bytes}}) {
    for (uint64_t k = 1; k < 8; ++k) {
      boundary_pages.insert((grid_base + 31 * k * row_bytes) / 4096);
    }
  }
  for (const uint64_t page : pages_named) {
    uint64_t nearest = ~uint64_t{0};
    for (const uint64_t b : boundary_pages) {
      nearest = std::min(nearest, page > b ? page - b : b - page);
    }
    EXPECT_LE(nearest, 1u) << "page " << page << " is not a strip-edge page";
  }
  // The first boundary (rows 30/31 of grid one share page 15) is the canonical false-sharing
  // page; it must be named, with its write-invalidate fault heat halved by the diff protocol.
  EXPECT_TRUE(pages_named.count(15));

  // The report renders end to end (smoke: the CLI path over the same data; --top 50 keeps the
  // byte counters in view below the full-swing diff-protocol rows).
  std::ostringstream os;
  report::PrintRunDiff(diff, wi, df, 50, os);
  EXPECT_NE(os.str().find("dsm.page_data_bytes"), std::string::npos);
  EXPECT_NE(os.str().find("dsm.diff_merges_sent"), std::string::npos);
}

}  // namespace
}  // namespace dfil
