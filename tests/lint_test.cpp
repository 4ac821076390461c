// Tests for drbw_lint's rule engine (tools/lint/lint_rules.hpp).
//
// Each rule is pinned against fixture snippets: the construct it must catch,
// the look-alikes it must not (member calls, comments, string literals,
// digit separators), and the allow-comment escape hatch.  A final fixture
// seeds a violation into a temp tree and runs the directory walker, proving
// the ctest registration actually fails on real files.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "lint_rules.hpp"

namespace drbw::lint {
namespace {

std::vector<Finding> check(const std::string& path, std::string_view source) {
  return check_file(classify(path), source);
}

bool has_rule(const std::vector<Finding>& findings, std::string_view rule) {
  for (const auto& f : findings) {
    if (f.rule == rule) return true;
  }
  return false;
}

TEST(LintClassifyTest, LayersAndEmittersFollowPaths) {
  EXPECT_TRUE(classify("src/mem/address_space.cpp").in_mem_layer);
  EXPECT_TRUE(classify("include/drbw/mem/address_space.hpp").in_mem_layer);
  EXPECT_FALSE(classify("src/sim/engine.cpp").in_mem_layer);
  EXPECT_TRUE(classify("include/drbw/util/rng.hpp").is_rng_home);
  EXPECT_TRUE(classify("include/drbw/util/json.hpp").is_public_header);
  EXPECT_FALSE(classify("bench/bench_common.hpp").is_public_header);
  EXPECT_TRUE(classify("src/report/markdown.cpp").is_emitter);
  EXPECT_TRUE(classify("src/pebs/trace_io.cpp").is_emitter);
  EXPECT_TRUE(classify("src/ml/dataset.cpp").is_emitter);
  EXPECT_TRUE(classify("src/ml/decision_tree.cpp").is_emitter);
  EXPECT_TRUE(classify("src/util/artifact.cpp").is_artifact_home);
  EXPECT_FALSE(classify("src/pebs/trace_io.cpp").is_artifact_home);
  EXPECT_TRUE(classify("tools/drbw_cli.cpp").is_emitter);
  EXPECT_FALSE(classify("src/sim/engine.cpp").is_emitter);
  EXPECT_FALSE(classify("tools/lint/lint_rules.cpp").is_emitter);
  EXPECT_TRUE(classify("src/obs/wall_clock.cpp").is_obs_wall_home);
  EXPECT_FALSE(classify("include/drbw/obs/trace.hpp").is_obs_wall_home);
  EXPECT_TRUE(classify("bench/micro.cpp").is_bench);
  EXPECT_FALSE(classify("src/obs/trace.cpp").is_bench);
}

TEST(LintPreprocessTest, BlanksCommentsAndLiteralsKeepsLines) {
  const SourceText s = preprocess(
      "int a; // trailing note\n"
      "/* block\n   spanning */ int b;\n"
      "const char* s = \"text with )\\\" escape\";\n"
      "char c = 'x'; int n = 6'000'000;\n");
  EXPECT_EQ(s.blanked.find("trailing"), std::string::npos);
  EXPECT_EQ(s.blanked.find("spanning"), std::string::npos);
  EXPECT_EQ(s.blanked.find("text"), std::string::npos);
  EXPECT_NE(s.blanked.find("int b;"), std::string::npos);
  // Digit separators are not char literals: the numeral survives blanking.
  EXPECT_NE(s.blanked.find("6'000'000"), std::string::npos);
  // Newlines survive so findings keep their line numbers.
  EXPECT_EQ(std::count(s.blanked.begin(), s.blanked.end(), '\n'), 5);
}

TEST(LintPreprocessTest, RawStringsAreBlanked) {
  const SourceText s = preprocess(
      "auto j = Json::parse(R\"({\"seed\": \"rand\"})\");\nint keep;\n");
  EXPECT_EQ(s.blanked.find("seed"), std::string::npos);
  EXPECT_NE(s.blanked.find("int keep;"), std::string::npos);
}

TEST(LintPreprocessTest, HarvestsAllowAnnotations) {
  const SourceText s = preprocess(
      "// drbw-lint: allow(unordered-iter) keys are re-sorted before emission\n"
      "// drbw-lint: allow(raw-alloc)\n");
  ASSERT_EQ(s.allows.size(), 2u);
  EXPECT_EQ(s.allows[0].rule, "unordered-iter");
  EXPECT_TRUE(s.allows[0].has_reason);
  EXPECT_EQ(s.allows[0].line, 1u);
  EXPECT_EQ(s.allows[1].rule, "raw-alloc");
  EXPECT_FALSE(s.allows[1].has_reason);
}

TEST(LintPreprocessTest, TokenReasonsDoNotCountAsJustification) {
  // "." / "--" / "ok" say nothing — a reason needs at least three
  // characters with a letter in them.
  const SourceText s = preprocess(
      "// drbw-lint: allow(unordered-iter) .\n"
      "// drbw-lint: allow(unordered-iter) --\n"
      "// drbw-lint: allow(unordered-iter) ok\n"
      "// drbw-lint: allow(unordered-iter) 1234\n"
      "// drbw-lint: allow(unordered-iter) see sort() two lines down\n");
  ASSERT_EQ(s.allows.size(), 5u);
  EXPECT_FALSE(s.allows[0].has_reason);
  EXPECT_FALSE(s.allows[1].has_reason);
  EXPECT_FALSE(s.allows[2].has_reason);
  EXPECT_FALSE(s.allows[3].has_reason);
  EXPECT_TRUE(s.allows[4].has_reason);
}

TEST(LintRandTest, CatchesRandFamilyCalls) {
  EXPECT_TRUE(has_rule(check("src/sim/engine.cpp", "int x = rand();\n"),
                       "no-rand"));
  EXPECT_TRUE(has_rule(check("src/sim/engine.cpp", "srand(42);\n"), "no-rand"));
  EXPECT_TRUE(
      has_rule(check("src/sim/engine.cpp", "int x = std::rand();\n"),
               "no-rand"));
}

TEST(LintRandTest, IgnoresMembersCommentsAndStrings) {
  EXPECT_FALSE(has_rule(check("a.cpp", "dist.rand();\n"), "no-rand"));
  EXPECT_FALSE(has_rule(check("a.cpp", "gen->srand(1);\n"), "no-rand"));
  EXPECT_FALSE(has_rule(check("a.cpp", "// rand() was here\n"), "no-rand"));
  EXPECT_FALSE(
      has_rule(check("a.cpp", "const char* s = \"rand()\";\n"), "no-rand"));
  EXPECT_FALSE(has_rule(check("a.cpp", "int random_index = f();\n"),
                        "no-rand"));
}

TEST(LintRandomDeviceTest, BannedOutsideRngHome) {
  const std::string snippet = "std::random_device rd;\n";
  EXPECT_TRUE(has_rule(check("src/sim/engine.cpp", snippet),
                       "no-random-device"));
  EXPECT_FALSE(has_rule(check("include/drbw/util/rng.hpp",
                              "#pragma once\nstd::random_device rd;\n"),
                        "no-random-device"));
}

TEST(LintWallclockTest, CatchesTimeCallsNotLookalikes) {
  EXPECT_TRUE(has_rule(check("a.cpp", "auto seed = time(nullptr);\n"),
                       "no-wallclock"));
  EXPECT_TRUE(
      has_rule(check("a.cpp", "auto t = std::time(0);\n"), "no-wallclock"));
  EXPECT_TRUE(has_rule(check("a.cpp", "auto c = clock();\n"), "no-wallclock"));
  // Includes, members, plain variables named clock/time.
  EXPECT_FALSE(has_rule(check("a.cpp", "#include <ctime>\n"), "no-wallclock"));
  EXPECT_FALSE(has_rule(check("a.cpp", "stopwatch.time();\n"), "no-wallclock"));
  EXPECT_FALSE(
      has_rule(check("a.cpp", "clock += epoch_cycles;\n"), "no-wallclock"));
  // chrono-based benchmark timing is deliberately out of scope.
  EXPECT_FALSE(has_rule(check("bench/micro.cpp",
                              "auto t0 = Clock::now();\n"),
                        "no-wallclock"));
}

TEST(LintObsWallclockTest, ChronoClocksConfinedToObsShim) {
  // Anywhere outside src/obs/ the clock types are findings...
  EXPECT_TRUE(has_rule(
      check("src/sim/engine.cpp",
            "auto t = std::chrono::steady_clock::now();\n"),
      "obs-wallclock"));
  EXPECT_TRUE(has_rule(
      check("src/core/profiler.cpp",
            "using C = std::chrono::system_clock;\n"),
      "obs-wallclock"));
  EXPECT_TRUE(has_rule(
      check("tools/drbw_cli.cpp",
            "std::chrono::high_resolution_clock::now();\n"),
      "obs-wallclock"));
  // ...and an allow comment cannot launder them there.
  EXPECT_TRUE(has_rule(
      check("src/sim/engine.cpp",
            "// drbw-lint: allow(obs-wallclock) trust me\n"
            "auto t = std::chrono::steady_clock::now();\n"),
      "obs-wallclock"));
}

TEST(LintObsWallclockTest, ObsShimNeedsJustifiedAllow) {
  // Bare use inside src/obs/ still fires...
  EXPECT_TRUE(has_rule(
      check("src/obs/wall_clock.cpp",
            "using WallClock = std::chrono::steady_clock;\n"),
      "obs-wallclock"));
  // ...but a justified allow suppresses it (the designed escape hatch).
  EXPECT_FALSE(has_rule(
      check("src/obs/wall_clock.cpp",
            "// drbw-lint: allow(obs-wallclock) sole wall-time source\n"
            "using WallClock = std::chrono::steady_clock;\n"),
      "obs-wallclock"));
}

TEST(LintObsWallclockTest, BenchesAndProseAreExempt) {
  EXPECT_FALSE(has_rule(
      check("bench/micro.cpp",
            "using Clock = std::chrono::steady_clock;\n"),
      "obs-wallclock"));
  EXPECT_FALSE(has_rule(
      check("src/sim/engine.cpp", "// steady_clock would break goldens\n"),
      "obs-wallclock"));
}

TEST(LintBuildStampTest, CatchesDateTimeMacros) {
  EXPECT_TRUE(has_rule(check("a.cpp", "const char* built = __DATE__;\n"),
                       "no-build-stamp"));
  EXPECT_TRUE(has_rule(check("a.cpp", "puts(__TIMESTAMP__);\n"),
                       "no-build-stamp"));
  EXPECT_FALSE(has_rule(check("a.cpp", "// __DATE__ in prose\n"),
                        "no-build-stamp"));
}

TEST(LintUnorderedTest, BannedOnlyInEmitters) {
  const std::string snippet =
      "std::unordered_map<std::string, int> m;\nfor (auto& kv : m) {}\n";
  EXPECT_TRUE(has_rule(check("src/report/markdown.cpp", snippet),
                       "unordered-iter"));
  EXPECT_TRUE(
      has_rule(check("src/pebs/trace_io.cpp", snippet), "unordered-iter"));
  // Non-emitter files may hash freely.
  EXPECT_FALSE(has_rule(check("src/sim/engine.cpp", snippet),
                        "unordered-iter"));
  // The include line itself is not the violation site.
  EXPECT_FALSE(has_rule(check("src/report/markdown.cpp",
                              "#include <unordered_map>\n"),
                        "unordered-iter"));
}

TEST(LintUnorderedTest, AllowCommentSuppressesWithReason) {
  EXPECT_FALSE(has_rule(
      check("src/report/markdown.cpp",
            "// drbw-lint: allow(unordered-iter) keys sorted before emission\n"
            "std::unordered_map<int, int> m;\n"),
      "unordered-iter"));
  EXPECT_FALSE(has_rule(
      check("src/report/markdown.cpp",
            "std::unordered_map<int, int> m;  // drbw-lint: "
            "allow(unordered-iter) keys sorted before emission\n"),
      "unordered-iter"));
  // No reason: the violation stands and the allow itself is flagged.
  const auto findings =
      check("src/report/markdown.cpp",
            "// drbw-lint: allow(unordered-iter)\n"
            "std::unordered_map<int, int> m;\n");
  EXPECT_TRUE(has_rule(findings, "unordered-iter"));
  EXPECT_TRUE(has_rule(findings, "allow-missing-reason"));
  // A placeholder reason ("." etc.) is rejected the same way.
  const auto placeholder =
      check("src/report/markdown.cpp",
            "// drbw-lint: allow(unordered-iter) .\n"
            "std::unordered_map<int, int> m;\n");
  EXPECT_TRUE(has_rule(placeholder, "unordered-iter"));
  EXPECT_TRUE(has_rule(placeholder, "allow-missing-reason"));
}

TEST(LintIncludeHygieneTest, HeaderRules) {
  // Missing #pragma once.
  EXPECT_TRUE(has_rule(check("include/drbw/x.hpp", "int f();\n"),
                       "include-hygiene"));
  EXPECT_FALSE(has_rule(check("include/drbw/x.hpp", "#pragma once\nint f();\n"),
                        "include-hygiene"));
  // using namespace in any header.
  EXPECT_TRUE(has_rule(check("bench/bench_common.hpp",
                             "#pragma once\nusing namespace std;\n"),
                       "include-hygiene"));
  // ...but not in a .cpp.
  EXPECT_FALSE(has_rule(check("tools/drbw_cli.cpp", "using namespace drbw;\n"),
                        "include-hygiene"));
  // Public headers name project includes as "drbw/...".
  EXPECT_TRUE(has_rule(check("include/drbw/x.hpp",
                             "#pragma once\n#include \"../util/rng.hpp\"\n"),
                       "include-hygiene"));
  EXPECT_TRUE(has_rule(check("include/drbw/x.hpp",
                             "#pragma once\n#include <drbw/util/rng.hpp>\n"),
                       "include-hygiene"));
  EXPECT_FALSE(has_rule(check("include/drbw/x.hpp",
                              "#pragma once\n#include \"drbw/util/rng.hpp\"\n"
                              "#include <vector>\n"),
                        "include-hygiene"));
}

TEST(LintArtifactWriteTest, OfstreamBannedInEmitters) {
  const std::string snippet = "std::ofstream out(path);\nout << body;\n";
  EXPECT_TRUE(has_rule(check("src/pebs/trace_io.cpp", snippet),
                       "no-naked-artifact-write"));
  EXPECT_TRUE(has_rule(check("src/ml/decision_tree.cpp", snippet),
                       "no-naked-artifact-write"));
  EXPECT_TRUE(has_rule(check("src/report/markdown.cpp", snippet),
                       "no-naked-artifact-write"));
  EXPECT_TRUE(has_rule(check("tools/drbw_cli.cpp", snippet),
                       "no-naked-artifact-write"));
  // Non-emitters may open streams; the artifact home *implements* the
  // atomic path, so its own ofstream is the one legitimate use.
  EXPECT_FALSE(has_rule(check("src/sim/engine.cpp", snippet),
                        "no-naked-artifact-write"));
  EXPECT_FALSE(has_rule(check("src/util/artifact.cpp", snippet),
                        "no-naked-artifact-write"));
  // Reading is not writing, and prose is not code.
  EXPECT_FALSE(has_rule(check("src/pebs/trace_io.cpp",
                              "std::ifstream in(path);\n"),
                        "no-naked-artifact-write"));
  EXPECT_FALSE(has_rule(check("src/pebs/trace_io.cpp",
                              "// a std::ofstream scoped by the harness\n"),
                        "no-naked-artifact-write"));
}

TEST(LintArtifactWriteTest, AllowEscapeNeedsReason) {
  EXPECT_FALSE(has_rule(
      check("src/report/markdown.cpp",
            "// drbw-lint: allow(no-naked-artifact-write) streaming sink, "
            "caller owns atomicity\n"
            "std::ofstream out(path);\n"),
      "no-naked-artifact-write"));
  const auto findings =
      check("src/report/markdown.cpp",
            "// drbw-lint: allow(no-naked-artifact-write)\n"
            "std::ofstream out(path);\n");
  EXPECT_TRUE(has_rule(findings, "no-naked-artifact-write"));
  EXPECT_TRUE(has_rule(findings, "allow-missing-reason"));
}

TEST(LintNakedDiagnosticTest, CerrBannedOutsideDiagnosticHomes) {
  const std::string snippet = "std::cerr << \"load failed\\n\";\n";
  EXPECT_TRUE(has_rule(check("src/pebs/trace_io.cpp", snippet),
                       "no-naked-diagnostic"));
  EXPECT_TRUE(has_rule(check("src/sim/engine.cpp", snippet),
                       "no-naked-diagnostic"));
  EXPECT_TRUE(has_rule(check("include/drbw/core/profiler.hpp",
                             "#pragma once\n" + snippet),
                       "no-naked-diagnostic"));
  // The CLI front-end, the lint driver, the obs sinks, the error
  // primitives, and self-reporting benches legitimately write stderr.
  EXPECT_FALSE(has_rule(check("tools/drbw_cli.cpp", snippet),
                        "no-naked-diagnostic"));
  EXPECT_FALSE(has_rule(check("tools/lint/drbw_lint.cpp", snippet),
                        "no-naked-diagnostic"));
  EXPECT_FALSE(has_rule(check("src/obs/trace.cpp", snippet),
                        "no-naked-diagnostic"));
  EXPECT_FALSE(has_rule(check("include/drbw/util/error.hpp",
                              "#pragma once\n" + snippet),
                        "no-naked-diagnostic"));
  EXPECT_FALSE(has_rule(check("bench/micro.cpp", snippet),
                        "no-naked-diagnostic"));
  // Prose and string literals are not diagnostics.
  EXPECT_FALSE(has_rule(check("src/sim/engine.cpp", "// std::cerr is banned\n"),
                        "no-naked-diagnostic"));
  EXPECT_FALSE(has_rule(
      check("src/sim/engine.cpp", "const char* s = \"std::cerr\";\n"),
      "no-naked-diagnostic"));
}

TEST(LintNakedDiagnosticTest, AllowEscapeWithReasonWorks) {
  EXPECT_FALSE(has_rule(
      check("src/sim/engine.cpp",
            "// drbw-lint: allow(no-naked-diagnostic) best-effort warning "
            "after the manifest is already written\n"
            "std::cerr << \"warning\\n\";\n"),
      "no-naked-diagnostic"));
  const auto findings = check("src/sim/engine.cpp",
                              "// drbw-lint: allow(no-naked-diagnostic)\n"
                              "std::cerr << \"warning\\n\";\n");
  EXPECT_TRUE(has_rule(findings, "no-naked-diagnostic"));
  EXPECT_TRUE(has_rule(findings, "allow-missing-reason"));
}

TEST(LintRawAllocTest, CatchesNewDeleteMallocOutsideMem) {
  EXPECT_TRUE(has_rule(check("src/sim/engine.cpp", "int* p = new int[4];\n"),
                       "raw-alloc"));
  EXPECT_TRUE(has_rule(check("src/sim/engine.cpp", "delete p;\n"),
                       "raw-alloc"));
  EXPECT_TRUE(has_rule(check("src/sim/engine.cpp",
                             "void* p = std::malloc(64);\n"),
                       "raw-alloc"));
  EXPECT_TRUE(has_rule(check("src/sim/engine.cpp", "free(p);\n"), "raw-alloc"));
}

TEST(LintRawAllocTest, MemLayerAndLookalikesPass) {
  EXPECT_FALSE(has_rule(check("src/mem/address_space.cpp",
                              "void* p = malloc(64); free(p);\n"),
                        "raw-alloc"));
  // Deleted special members and member functions named free.
  EXPECT_FALSE(has_rule(check("include/drbw/util/task_pool.hpp",
                              "#pragma once\nTaskPool(const TaskPool&) = "
                              "delete;\n"),
                        "raw-alloc"));
  EXPECT_FALSE(has_rule(check("tests/mem_test.cpp", "space_.free(id);\n"),
                        "raw-alloc"));
  EXPECT_FALSE(has_rule(check("a.cpp", "auto p = std::make_unique<int>();\n"),
                        "raw-alloc"));
  EXPECT_FALSE(has_rule(check("a.cpp", "int renew = 0; renew = 1;\n"),
                        "raw-alloc"));
}

TEST(LintFormatTest, RendersCompilerStyleLocation) {
  const Finding f{"src/a.cpp", 12, "no-rand", "banned"};
  EXPECT_EQ(format_finding(f), "src/a.cpp:12: [no-rand] banned");
}

TEST(LintRunTest, WalkerFindsSeededViolation) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(::testing::TempDir()) / "lint_fixture";
  fs::create_directories(root / "src" / "sim");
  {
    std::ofstream out(root / "src" / "sim" / "bad.cpp");
    out << "int seed() { return rand(); }\n";
  }
  {
    std::ofstream out(root / "src" / "sim" / "good.cpp");
    out << "int seed() { return 42; }\n";
  }
  const RunResult result = run(root.string(), {"src"});
  EXPECT_EQ(result.files_scanned, 2u);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, "no-rand");
  EXPECT_EQ(result.findings[0].file, "src/sim/bad.cpp");
  EXPECT_EQ(result.findings[0].line, 1u);
  fs::remove_all(root);
}

TEST(LintRunTest, CleanTreeAndMissingDirsAreQuiet) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(::testing::TempDir()) / "lint_clean";
  fs::create_directories(root / "src");
  {
    std::ofstream out(root / "src" / "ok.cpp");
    out << "int f() { return 1; }\n";
  }
  const RunResult result = run(root.string(), {"src", "does_not_exist"});
  EXPECT_EQ(result.files_scanned, 1u);
  EXPECT_TRUE(result.findings.empty());
  fs::remove_all(root);
}

}  // namespace
}  // namespace drbw::lint
