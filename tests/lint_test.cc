// relcomp_lint tests: the fixture corpus (one passing and one violating
// micro-tree per rule, asserting exact rule ids and file:line anchors and
// the CLI's exit status), plus the gate that the REAL tree is lint-clean —
// which is what makes the fixtures meaningful: the rules both fire on
// seeded violations and stay quiet on the code we actually ship.
#include <sys/wait.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "lint.h"

namespace relcomp {
namespace lint {
namespace {

std::vector<Finding> RunOn(const std::string& root) {
  Options opts;
  opts.root = root;
  std::string error;
  std::vector<Finding> findings = RunLint(opts, &error);
  EXPECT_EQ(error, "");
  return findings;
}

std::string Fixture(const std::string& name) {
  return std::string(RELCOMP_LINT_FIXTURES) + "/" + name;
}

::testing::AssertionResult Has(const std::vector<Finding>& findings,
                               const std::string& rule,
                               const std::string& file, int line) {
  for (const Finding& f : findings) {
    if (f.rule == rule && f.file == file && f.line == line) {
      return ::testing::AssertionSuccess();
    }
  }
  auto result = ::testing::AssertionFailure()
                << "no " << rule << " finding at " << file << ":" << line
                << "; got:";
  for (const Finding& f : findings) result << "\n  " << FormatFinding(f);
  return result;
}

// ------------------------------------------------------ checkpoint rule --

TEST(CheckpointRule, FlagsOutermostLoopWithoutPoll) {
  const std::vector<Finding> fs = RunOn(Fixture("checkpoint_fail"));
  ASSERT_EQ(fs.size(), 1u) << "inner loop of the same nest must not "
                              "double-report";
  EXPECT_EQ(fs[0].rule, "checkpoint-coverage");
  EXPECT_EQ(fs[0].file, "src/core/minp.cc");
  EXPECT_EQ(fs[0].line, 7);
}

TEST(CheckpointRule, AcceptsDirectTransitiveAndWaivedPolls) {
  EXPECT_TRUE(RunOn(Fixture("checkpoint_pass")).empty());
}

TEST(CheckpointRule, MemberInitializersAreNotPollingFunctions) {
  // A polling constructor's initializers (`steps(start)`) must not make
  // the member names count as polling; the constructor declared after
  // `public:` still does.
  const std::vector<Finding> fs = RunOn(Fixture("checkpoint_initializer"));
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(Has(fs, "checkpoint-coverage", "src/core/enumerate.cc", 23));
}

// -------------------------------------------------------- lockrank rule --

TEST(LockRankRule, FlagsUnregisteredRankNestingAndTableDrift) {
  const std::vector<Finding> fs = RunOn(Fixture("lockrank_fail"));
  EXPECT_TRUE(Has(fs, "lock-rank-sync", "src/svc.cc", 17));   // kGamma
  EXPECT_TRUE(Has(fs, "lock-rank-sync", "src/svc.cc", 10));   // 10 under 20
  EXPECT_TRUE(Has(fs, "lock-rank-sync", "README.md", 7));     // value drift
  EXPECT_TRUE(Has(fs, "lock-rank-sync", "README.md", 3));     // kBeta missing
  EXPECT_EQ(fs.size(), 4u);
}

TEST(LockRankRule, AcceptsRegisteredAscendingAndSyncedTable) {
  EXPECT_TRUE(RunOn(Fixture("lockrank_pass")).empty());
}

// --------------------------------------------------------- metrics rule --

TEST(MetricsRule, FlagsLooseLiteralAndTableDrift) {
  const std::vector<Finding> fs = RunOn(Fixture("metrics_fail"));
  EXPECT_TRUE(Has(fs, "metric-registry", "src/svc.cc", 3));  // loose literal
  EXPECT_TRUE(Has(fs, "metric-registry", "README.md", 7));   // type drift
  EXPECT_TRUE(Has(fs, "metric-registry", "README.md", 8));   // unknown row
  EXPECT_TRUE(Has(fs, "metric-registry", "README.md", 3));   // missing row
  EXPECT_EQ(fs.size(), 4u);
}

TEST(MetricsRule, AcceptsRegistryOnlyNamesAndSyncedTable) {
  EXPECT_TRUE(RunOn(Fixture("metrics_pass")).empty());
}

// ---------------------------------------------------------- banned rule --

TEST(BannedRule, FlagsRawPrimitivesAndMissingGuard) {
  const std::vector<Finding> fs = RunOn(Fixture("banned_fail"));
  EXPECT_TRUE(Has(fs, "banned-constructs", "src/nohdr.h", 1));  // no guard
  EXPECT_TRUE(Has(fs, "banned-constructs", "src/svc.cc", 7));   // std::mutex
  EXPECT_TRUE(Has(fs, "banned-constructs", "src/svc.cc", 11));  // std::thread
  EXPECT_TRUE(Has(fs, "banned-constructs", "src/svc.cc", 12));  // sleep_for
  // Line 10 carries two findings: std::lock_guard and its std::mutex
  // template argument.
  EXPECT_TRUE(Has(fs, "banned-constructs", "src/svc.cc", 10));
  EXPECT_TRUE(Has(fs, "banned-constructs", "src/svc.cc", 17));  // socket(
  EXPECT_TRUE(Has(fs, "banned-constructs", "src/svc.cc", 18));  // ::shutdown(
  EXPECT_EQ(fs.size(), 8u);
}

TEST(BannedRule, AllowsRawPrimitivesInsideUtil) {
  EXPECT_TRUE(RunOn(Fixture("banned_pass")).empty());
}

// ------------------------------------------------------------- the tree --

// The real repository is lint-clean. Every violation must be fixed or
// carry a LINT:waive with a reason — this is the same gate CI runs via
// the relcomp_lint_tree ctest, duplicated here so `ctest -R lint` tells
// the whole story in one place.
TEST(RealTree, IsLintClean) {
  const std::vector<Finding> fs = RunOn(RELCOMP_SOURCE_DIR);
  for (const Finding& f : fs) ADD_FAILURE() << FormatFinding(f);
}

// ------------------------------------------------------------------ CLI --

int ExitStatusOf(const std::string& command) {
  const int raw = std::system((command + " > /dev/null 2>&1").c_str());
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

TEST(Cli, ExitStatusReflectsFindings) {
  const std::string bin = RELCOMP_LINT_BIN;
  EXPECT_EQ(ExitStatusOf(bin + " --root " + Fixture("banned_fail")), 1);
  EXPECT_EQ(ExitStatusOf(bin + " --root " + Fixture("banned_pass")), 0);
  EXPECT_EQ(ExitStatusOf(bin + " --root /nonexistent-lint-root"), 2);
  EXPECT_EQ(ExitStatusOf(bin + " --rule no-such-rule"), 2);
}

TEST(Cli, RuleFilterRunsOnlyThatRule) {
  Options opts;
  opts.root = Fixture("lockrank_fail");
  opts.rules = {"banned-constructs"};
  std::string error;
  EXPECT_TRUE(RunLint(opts, &error).empty())
      << "lockrank_fail has no banned-constructs violations";
  EXPECT_EQ(error, "");
}

// ------------------------------------------------------------- the lexer --

TEST(Lexer, TracksLinesStringsAndDirectives) {
  const std::vector<Token> toks = LexCpp(
      "#include <mutex>\n"
      "// a comment\n"
      "const char* s = \"relcomp_x\";\n");
  ASSERT_GE(toks.size(), 7u);
  EXPECT_EQ(toks[0].kind, Token::Kind::kDirective);
  EXPECT_EQ(toks[0].text, "#include");
  EXPECT_EQ(toks[1].kind, Token::Kind::kComment);
  EXPECT_EQ(toks[1].line, 2);
  const Token& str = toks[toks.size() - 2];  // last token is the ';'
  EXPECT_EQ(str.kind, Token::Kind::kString);
  EXPECT_EQ(str.text, "relcomp_x");
  EXPECT_EQ(str.line, 3);
}

TEST(Lexer, FusesScopeResolutionAndHandlesRawStrings) {
  const std::vector<Token> toks = LexCpp("std::mutex m; auto r = R\"(a\"b)\";");
  ASSERT_GE(toks.size(), 4u);
  EXPECT_TRUE(toks[1].IsPunct("::"));
  bool raw_seen = false;
  for (const Token& t : toks) {
    raw_seen = raw_seen || (t.kind == Token::Kind::kString && t.text == "a\"b");
  }
  EXPECT_TRUE(raw_seen);
}

}  // namespace
}  // namespace lint
}  // namespace relcomp
