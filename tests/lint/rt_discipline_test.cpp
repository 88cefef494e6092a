// The real-time discipline pass (tools/rbs_lint/rt.hpp): rule unit tests
// driven through lint_source strings, cross-file reachability through
// rt_check directly, the dual-gate mutant test against the real
// src/core/analysis.cpp sweep, and serial/parallel output identity.
#include "rbs_lint/rt.hpp"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rbs_lint/lint.hpp"

namespace rbs::lint {
namespace {

const std::string kSourceDir = RBS_SOURCE_DIR;

Options rt_only() {
  Options options;
  options.rules = {kRuleRtAlloc, kRuleRtBlock, kRuleRtUnbounded};
  return options;
}

std::vector<std::string> rt_lines(const std::string& text) {
  std::vector<std::string> lines;
  for (const Diagnostic& d : lint_source("src/unit.cpp", text, rt_only()))
    lines.push_back(format(d));
  return lines;
}

bool any_contains(const std::vector<std::string>& lines, const std::string& needle) {
  for (const std::string& line : lines)
    if (line.find(needle) != std::string::npos) return true;
  return false;
}

TEST(RtDisciplineTest, CleanHotFunctionStaysSilent) {
  EXPECT_TRUE(rt_lines("RBS_HOT_PATH int f(int a, int b) {\n"
                       "  int s = 0;\n"
                       "  for (int i = a; i < b; ++i) s += i;\n"
                       "  return s;\n"
                       "}\n")
                  .empty());
}

TEST(RtDisciplineTest, UnannotatedViolationsStaySilent) {
  EXPECT_TRUE(rt_lines("int f() {\n"
                       "  std::vector<int> v;\n"
                       "  throw 1;\n"
                       "}\n")
                  .empty());
}

TEST(RtDisciplineTest, DirectViolationsInHotBody) {
  const auto lines = rt_lines(
      "RBS_HOT_PATH void f(std::mutex& m) {\n"
      "  int* p = new int(1);\n"
      "  std::lock_guard<std::mutex> hold(m);\n"
      "  std::cout << *p;\n"
      "  throw 1;\n"
      "}\n");
  EXPECT_TRUE(any_contains(lines, "[rt-alloc] `new`"));
  EXPECT_TRUE(any_contains(lines, "[rt-block] constructs `lock_guard`"));
  EXPECT_TRUE(any_contains(lines, "[rt-block] stream `cout`"));
  EXPECT_TRUE(any_contains(lines, "[rt-unbounded] `throw`"));
}

TEST(RtDisciplineTest, ViolationReachedTransitively) {
  const auto lines = rt_lines(
      "int helper(int n) {\n"
      "  std::string s;\n"
      "  return n + static_cast<int>(s.size());\n"
      "}\n"
      "RBS_HOT_PATH int hot(int n) { return helper(n); }\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("constructs `string` in `helper`, reachable from hot path `hot`"),
            std::string::npos);
}

TEST(RtDisciplineTest, GrowthOfExistingContainersIsAllowed) {
  // Construction-only policy: push_back/reserve on members and parameters is
  // the compliant scratch-buffer idiom, so only construction is flagged.
  EXPECT_TRUE(rt_lines("struct Engine {\n"
                       "  RBS_HOT_PATH void step(int n) {\n"
                       "    scratch_.clear();\n"
                       "    scratch_.reserve(8);\n"
                       "    scratch_.push_back(n);\n"
                       "  }\n"
                       "  std::vector<int> scratch_;\n"
                       "};\n")
                  .empty());
}

TEST(RtDisciplineTest, TypeMentionsAreNotConstruction) {
  EXPECT_TRUE(rt_lines("RBS_HOT_PATH int f(const std::vector<int>& v,\n"
                       "                   std::vector<int>* out) {\n"
                       "  return static_cast<int>(v.size());\n"
                       "}\n")
                  .empty());
}

TEST(RtDisciplineTest, BlockingMemberAndFreeCalls) {
  const auto lines = rt_lines(
      "RBS_HOT_PATH void f(std::condition_variable& cv, FILE* fp) {\n"
      "  cv.notify_one();\n"
      "  fsync(1);\n"
      "}\n");
  EXPECT_TRUE(any_contains(lines, "member call `.notify_one()`"));
  EXPECT_TRUE(any_contains(lines, "call to `fsync`"));
}

TEST(RtDisciplineTest, AllocFreeCalls) {
  const auto lines = rt_lines(
      "RBS_HOT_PATH void f(int n) {\n"
      "  void* p = malloc(16);\n"
      "  auto s = std::to_string(n);\n"
      "}\n");
  EXPECT_TRUE(any_contains(lines, "call to `malloc`"));
  EXPECT_TRUE(any_contains(lines, "call to `to_string`"));
}

TEST(RtDisciplineTest, RtSafeStopsScanAndDescent) {
  EXPECT_TRUE(rt_lines("RBS_RT_SAFE int audited() {\n"
                       "  std::vector<int> v;\n"  // audited by a human instead
                       "  return static_cast<int>(v.size());\n"
                       "}\n"
                       "RBS_HOT_PATH int hot() { return audited(); }\n")
                  .empty());
}

TEST(RtDisciplineTest, EscapeWithReasonStopsWalk) {
  EXPECT_TRUE(rt_lines("RBS_RT_ESCAPE(cold_error_path_runs_once) int cold() {\n"
                       "  throw 1;\n"
                       "}\n"
                       "RBS_HOT_PATH int hot() { return cold(); }\n")
                  .empty());
}

TEST(RtDisciplineTest, EscapeWithoutReasonIsReportedAndIgnored) {
  const auto lines = rt_lines(
      "RBS_RT_ESCAPE() int cold() { throw 1; }\n"
      "RBS_HOT_PATH int hot() { return cold(); }\n");
  // Two findings: the malformed escape itself, and the throw it no longer
  // shields (the annotation must never silently widen the audited surface).
  EXPECT_TRUE(any_contains(lines, "has no reason"));
  EXPECT_TRUE(any_contains(lines, "[rt-unbounded] `throw` in `cold`"));
}

TEST(RtDisciplineTest, DeclarationSiteAnnotationReachesDefinition) {
  const auto lines = rt_lines(
      "class Engine {\n"
      " public:\n"
      "  void step() RBS_HOT_PATH;\n"
      "};\n"
      "void Engine::step() { std::deque<int> q; }\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("constructs `deque` in `step`"), std::string::npos);
}

TEST(RtDisciplineTest, ReasonlessEscapeOnHiddenDeclarationIsReported) {
  // A free `f` shares the name but not the class, so the declaration's
  // escape merges onto no definition: it is reported where it is written.
  const auto lines = rt_lines(
      "struct A { void f() RBS_RT_ESCAPE; };\n"
      "void f() {}\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("src/unit.cpp:1: error: [rt-unbounded] RBS_RT_ESCAPE on `f` "
                          "has no reason"),
            std::string::npos)
      << lines[0];
}

TEST(RtDisciplineTest, DirectRecursionInHotTree) {
  const auto lines = rt_lines(
      "int down(int n) { return n <= 0 ? 0 : down(n - 1); }\n"
      "RBS_HOT_PATH int hot(int n) { return down(n); }\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("recursion cycle"), std::string::npos);
}

TEST(RtDisciplineTest, MutualRecursionInHotTree) {
  const auto lines = rt_lines(
      "int pong(int n);\n"
      "int ping(int n) { return n <= 0 ? 0 : pong(n - 1); }\n"
      "int pong(int n) { return ping(n - 1); }\n"
      "RBS_HOT_PATH int hot(int n) { return ping(n); }\n");
  ASSERT_FALSE(lines.empty());
  for (const std::string& line : lines)
    EXPECT_NE(line.find("recursion cycle"), std::string::npos) << line;
}

TEST(RtDisciplineTest, AccessorWrappersAreNotRecursion) {
  // `x.size()` resolves into every member named size, including the caller;
  // such member-call edges stay out of the cycle check by design.
  EXPECT_TRUE(rt_lines("struct Set {\n"
                       "  RBS_HOT_PATH std::size_t size() const { return tasks_.size(); }\n"
                       "  std::vector<int> tasks_;\n"
                       "};\n")
                  .empty());
}

TEST(RtDisciplineTest, IndirectCallsAreTheDocumentedFallback) {
  // Function pointers and std::function targets cannot be resolved by name,
  // so the walk skips them: callees must be audited at their own roots.
  EXPECT_TRUE(rt_lines("int sneaky() { throw 1; }\n"
                       "RBS_HOT_PATH int hot(int (*fp)(),\n"
                       "                     const std::function<int()>& fn) {\n"
                       "  return fp() + fn();\n"
                       "}\n")
                  .empty());
}

TEST(RtDisciplineTest, SuppressionCommentSilencesRule) {
  EXPECT_TRUE(rt_lines("RBS_HOT_PATH int hot() {\n"
                       "  std::vector<int> v;  // rbs-lint: allow(rt-alloc)\n"
                       "  return static_cast<int>(v.size());\n"
                       "}\n")
                  .empty());
}

TEST(RtDisciplineTest, RuleSelectionFiltersFindings) {
  Options alloc_only;
  alloc_only.rules = {kRuleRtAlloc};
  const auto diags = lint_source("src/unit.cpp",
                                 "RBS_HOT_PATH void f() {\n"
                                 "  std::vector<int> v;\n"
                                 "  throw 1;\n"
                                 "}\n",
                                 alloc_only);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleRtAlloc);
}

TEST(RtDisciplineTest, ReachabilityCrossesFileBoundaries) {
  // rt_check sees every translation unit at once: a hot root in one file
  // reaches a violating helper defined in another.
  const Lexed a = lex("int helper(int n);\n"
                      "RBS_HOT_PATH int hot(int n) { return helper(n); }\n");
  const Lexed b = lex("int helper(int n) {\n"
                      "  std::vector<int> v;\n"
                      "  return n + static_cast<int>(v.size());\n"
                      "}\n");
  const FileIndex ia = build_index(a.tokens);
  const FileIndex ib = build_index(b.tokens);
  const auto diags = rt_check({{"src/a.cpp", &a, &ia}, {"src/b.cpp", &b, &ib}});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].file, "src/b.cpp");
  EXPECT_NE(diags[0].message.find("reachable from hot path `hot`"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Dual-gate mutant test over the real fused sweep (src/core/analysis.cpp):
// the pristine file must lint clean, and the same file with a seeded
// per-iteration vector push must be caught. Together they prove the gate is
// wired to the real hot path and that the shipped baseline stays empty.
// ---------------------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(RtDisciplineGateTest, PristineFusedSweepIsClean) {
  const std::string path = kSourceDir + "/src/core/analysis.cpp";
  const std::string text = read_file(path);
  ASSERT_NE(text.find("RBS_HOT_PATH"), std::string::npos)
      << "analysis.cpp lost its hot-path annotation";
  EXPECT_TRUE(lint_source(path, text, rt_only()).empty());
}

TEST(RtDisciplineGateTest, SeededAllocationInSweepIsCaught) {
  const std::string path = kSourceDir + "/src/core/analysis.cpp";
  std::string text = read_file(path);
  const std::string marker = "while (speedup.active || reset.active) {";
  const std::size_t at = text.find(marker);
  ASSERT_NE(at, std::string::npos) << "fused sweep loop marker disappeared";
  text.insert(at + marker.size(),
              "\n    std::vector<double> mutant;\n    mutant.push_back(0.0);\n");
  const auto diags = lint_source(path, text, rt_only());
  ASSERT_FALSE(diags.empty()) << "the rt gate missed a seeded hot-loop allocation";
  EXPECT_EQ(diags[0].rule, kRuleRtAlloc);
  EXPECT_NE(diags[0].message.find("constructs `vector`"), std::string::npos);
}

TEST(RtDisciplineGateTest, ShippedBaselineIsEmpty) {
  // The rt rules gate the tree with no grandfathered findings: every entry
  // in the shipped baseline would weaken the discipline guarantee.
  const std::string text = read_file(kSourceDir + "/tools/rbs_lint/baseline.txt");
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    ADD_FAILURE() << "shipped baseline is expected to stay empty, found: " << line;
  }
}

// ---------------------------------------------------------------------------
// --jobs: the parallel per-file scan must be byte-identical to serial.
// ---------------------------------------------------------------------------

TEST(ParallelScanTest, JobsOutputMatchesSerial) {
  const std::vector<std::string> roots = {kSourceDir + "/src/core",
                                          kSourceDir + "/src/campaign"};
  Options serial;
  Options parallel = serial;
  parallel.jobs = 8;
  const auto a = lint_paths(roots, serial);
  const auto b = lint_paths(roots, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(format(a[i]), format(b[i])) << "diverged at index " << i;
  }
  EXPECT_EQ(format_json(a), format_json(b));
}

}  // namespace
}  // namespace rbs::lint
