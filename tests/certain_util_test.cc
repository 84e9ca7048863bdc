// Tests for certain answers over Mod(T, Dm, V), plus the Status/Result and
// interner utilities.
#include <gtest/gtest.h>

#include "core/certain.h"
#include "test_util.h"
#include "util/interner.h"

namespace relcomp {
namespace {

using testing::I;
using testing::S;
using testing::V;

struct BoolFixture {
  PartiallyClosedSetting setting;
  Query q;

  BoolFixture() {
    setting.schema.AddRelation(
        RelationSchema("B", {Attribute{"x", Domain::Boolean()}}));
    setting.master_schema.AddRelation(
        RelationSchema("Bm", {Attribute{"x", Domain::Boolean()}}));
    setting.dm = Instance(setting.master_schema);
    setting.dm.AddTuple("Bm", {I(0)});
    setting.dm.AddTuple("Bm", {I(1)});
    ConjunctiveQuery cc_q({CTerm(V(0))}, {RelAtom{"B", {V(0)}}});
    setting.ccs.emplace_back("bound", std::move(cc_q), "Bm",
                             std::vector<int>{0});
    q = Query::Cq(ConjunctiveQuery({CTerm(V(0))}, {RelAtom{"B", {V(0)}}}));
  }

  PreparedSetting prepared() const { return PreparedSetting::Borrow(setting); }
};

TEST(CertainAnswersTest, GroundInstanceIsItsOwnCertainty) {
  BoolFixture fx;
  CInstance t(fx.setting.schema);
  t.at("B").AddRow({Cell(I(1))});
  AdomContext adom = fx.prepared().BuildAdom(t, &fx.q);
  ASSERT_OK_AND_ASSIGN(result,
                       CertainAnswers(fx.q, t, fx.prepared(), adom));
  EXPECT_TRUE(result.mod_nonempty);
  EXPECT_EQ(result.answers.size(), 1u);
  EXPECT_TRUE(result.answers.Contains({I(1)}));
}

TEST(CertainAnswersTest, VariableRowIntersectsToConstantPart) {
  // T = {(x), (1)}: worlds {0,1} and {1}; certain answer = {1}.
  BoolFixture fx;
  CInstance t(fx.setting.schema);
  t.at("B").AddRow({Cell(V(0))});
  t.at("B").AddRow({Cell(I(1))});
  AdomContext adom = fx.prepared().BuildAdom(t, &fx.q);
  ASSERT_OK_AND_ASSIGN(result,
                       CertainAnswers(fx.q, t, fx.prepared(), adom));
  EXPECT_TRUE(result.mod_nonempty);
  EXPECT_EQ(result.answers.size(), 1u);
  EXPECT_TRUE(result.answers.Contains({I(1)}));
}

TEST(CertainAnswersTest, LoneVariableHasNoCertainAnswers) {
  BoolFixture fx;
  CInstance t(fx.setting.schema);
  t.at("B").AddRow({Cell(V(0))});
  AdomContext adom = fx.prepared().BuildAdom(t, &fx.q);
  ASSERT_OK_AND_ASSIGN(result,
                       CertainAnswers(fx.q, t, fx.prepared(), adom));
  EXPECT_TRUE(result.mod_nonempty);
  EXPECT_TRUE(result.answers.empty());
}

TEST(CertainAnswersTest, InconsistentCInstanceReported) {
  BoolFixture fx;
  fx.setting.dm.at("Bm").Erase({I(0)});
  fx.setting.dm.at("Bm").Erase({I(1)});
  CInstance t(fx.setting.schema);
  t.at("B").AddRow({Cell(I(0))});
  AdomContext adom = fx.prepared().BuildAdom(t, &fx.q);
  ASSERT_OK_AND_ASSIGN(result,
                       CertainAnswers(fx.q, t, fx.prepared(), adom));
  EXPECT_FALSE(result.mod_nonempty);
}

TEST(CertainAnswersTest, ConditionRestrictsWorlds) {
  // T = {(x) | x != 0}: the only world is {1}; certain answer = {1}.
  BoolFixture fx;
  CInstance t(fx.setting.schema);
  t.at("B").AddRow(CRow{{Cell(V(0))}, Condition::VarNeqConst(V(0), I(0))});
  AdomContext adom = fx.prepared().BuildAdom(t, &fx.q);
  ASSERT_OK_AND_ASSIGN(result,
                       CertainAnswers(fx.q, t, fx.prepared(), adom));
  EXPECT_TRUE(result.mod_nonempty);
  // Worlds: x=0 drops the row → {}; x=1 → {1}. Intersection is empty.
  EXPECT_TRUE(result.answers.empty());
}

TEST(StatusTest, CodesAndMessages) {
  Status ok = Status::OK();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");
  Status bad = Status::InvalidArgument("boom");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.ToString().find("boom"), std::string::npos);
  EXPECT_EQ(std::string(StatusCodeName(StatusCode::kUndecidable)),
            "Undecidable");
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> good = 42;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  EXPECT_EQ(good.value_or(7), 42);
  Result<int> bad = Status::NotFound("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.value_or(7), 7);
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST(InternerTest, StableIdsAndNames) {
  SymbolId a = InternSymbol("alpha-test-symbol");
  SymbolId b = InternSymbol("alpha-test-symbol");
  EXPECT_EQ(a, b);
  EXPECT_EQ(SymbolName(a), "alpha-test-symbol");
  SymbolId c = InternSymbol("beta-test-symbol");
  EXPECT_NE(a, c);
}

TEST(StatsTest, ToStringListsCounters) {
  SearchStats stats;
  stats.valuations = 3;
  stats.worlds = 2;
  std::string s = stats.ToString();
  EXPECT_NE(s.find("valuations=3"), std::string::npos);
  EXPECT_NE(s.find("worlds=2"), std::string::npos);
}

TEST(WitnessTest, ToStringMentionsPieces) {
  BoolFixture fx;
  CompletenessWitness w;
  w.note = "a note";
  w.world = Instance(fx.setting.schema);
  w.world.AddTuple("B", {I(0)});
  w.extension = w.world;
  w.extension.AddTuple("B", {I(1)});
  w.answer = {I(1)};
  std::string s = w.ToString();
  EXPECT_NE(s.find("a note"), std::string::npos);
  EXPECT_NE(s.find("(1)"), std::string::npos);
}

}  // namespace
}  // namespace relcomp
