// Property tests over randomized instances: the model relationships of
// Section 2.2 (strong ⇒ weak ∧ viable; ground strong ⇔ viable), query
// monotonicity, and CC subset closure (Lemma 4.7(a)).
#include <gtest/gtest.h>

#include "core/rcdp.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::I;
using testing::V;

// Deterministic RNG.
struct Rng {
  uint64_t state;
  uint64_t Next() {
    state += 0x9E3779B97F4A7C15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  int Int(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }
};

// A small random partially closed world: unary Boolean relation A and
// binary relation E over {0, 1, 2}, with A bounded by a random master.
struct RandomProblem {
  PartiallyClosedSetting setting;
  CInstance cinstance;
  Query query;

  PreparedSetting prepared() const { return PreparedSetting::Borrow(setting); }
};

RandomProblem MakeRandomProblem(uint64_t seed) {
  Rng rng{seed};
  RandomProblem p;
  Domain small = Domain::Finite({I(0), I(1), I(2)});
  p.setting.schema.AddRelation(
      RelationSchema("A", {Attribute{"x", small}}));
  p.setting.schema.AddRelation(RelationSchema(
      "E", {Attribute{"a", small}, Attribute{"b", small}}));
  p.setting.master_schema.AddRelation(
      RelationSchema("Am", {Attribute{"x", small}}));
  p.setting.dm = Instance(p.setting.master_schema);
  // Random nonempty master bound for A.
  for (int v = 0; v < 3; ++v) {
    if (rng.Int(2) == 0) p.setting.dm.AddTuple("Am", {I(v)});
  }
  p.setting.dm.AddTuple("Am", {I(rng.Int(3))});
  ConjunctiveQuery bound({CTerm(V(0))}, {RelAtom{"A", {V(0)}}});
  p.setting.ccs.emplace_back("bound", std::move(bound), "Am",
                             std::vector<int>{0});

  p.cinstance = CInstance(p.setting.schema);
  int a_rows = rng.Int(3);
  for (int i = 0; i < a_rows; ++i) {
    if (rng.Int(3) == 0) {
      p.cinstance.at("A").AddRow({Cell(V(i))});
    } else {
      p.cinstance.at("A").AddRow({Cell(I(rng.Int(3)))});
    }
  }
  int e_rows = rng.Int(3);
  for (int i = 0; i < e_rows; ++i) {
    p.cinstance.at("E").AddRow({Cell(I(rng.Int(3))), Cell(I(rng.Int(3)))});
  }

  // Query: either A(x) or the A-E join.
  if (rng.Int(2) == 0) {
    p.query = Query::Cq(
        ConjunctiveQuery({CTerm(V(0))}, {RelAtom{"A", {V(0)}}}));
  } else {
    p.query = Query::Cq(ConjunctiveQuery(
        {CTerm(V(0)), CTerm(V(1))},
        {RelAtom{"A", {V(0)}}, RelAtom{"E", {V(0), V(1)}}}));
  }
  return p;
}

class ModelRelations : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ModelRelations, StrongImpliesWeakAndViable) {
  RandomProblem p = MakeRandomProblem(GetParam());
  ASSERT_OK_AND_ASSIGN(strong, RcdpStrong(p.query, p.cinstance, p.prepared()));
  if (strong) {
    ASSERT_OK_AND_ASSIGN(weak, RcdpWeak(p.query, p.cinstance, p.prepared()));
    EXPECT_TRUE(weak) << p.cinstance.ToString();
    ASSERT_OK_AND_ASSIGN(viable,
                         RcdpViable(p.query, p.cinstance, p.prepared()));
    EXPECT_TRUE(viable) << p.cinstance.ToString();
  }
}

TEST_P(ModelRelations, GroundStrongEqualsViable) {
  RandomProblem p = MakeRandomProblem(GetParam() + 5000);
  // Ground the c-instance by an arbitrary valuation (bind all vars to 0).
  Valuation mu;
  for (VarId v : p.cinstance.Vars()) mu.Bind(v, I(0));
  ASSERT_OK_AND_ASSIGN(ground, p.cinstance.Apply(mu));
  CInstance gi = CInstance::FromInstance(ground);
  Result<bool> strong = RcdpStrong(p.query, gi, p.prepared());
  Result<bool> viable = RcdpViable(p.query, gi, p.prepared());
  ASSERT_TRUE(strong.ok() && viable.ok());
  EXPECT_EQ(*strong, *viable);
}

TEST_P(ModelRelations, MonotonicityOfCq) {
  RandomProblem p = MakeRandomProblem(GetParam() + 9000);
  Valuation mu;
  for (VarId v : p.cinstance.Vars()) mu.Bind(v, I(1));
  ASSERT_OK_AND_ASSIGN(world, p.cinstance.Apply(mu));
  Instance bigger = world;
  bigger.AddTuple("E", {I(0), I(0)});
  bigger.AddTuple("A", {I(0)});
  ASSERT_OK_AND_ASSIGN(small_out, p.query.Eval(world));
  ASSERT_OK_AND_ASSIGN(big_out, p.query.Eval(bigger));
  EXPECT_TRUE(small_out.IsSubsetOf(big_out));
}

TEST_P(ModelRelations, CcSatisfactionClosedUnderSubsets) {
  RandomProblem p = MakeRandomProblem(GetParam() + 13000);
  Valuation mu;
  for (VarId v : p.cinstance.Vars()) mu.Bind(v, I(2));
  ASSERT_OK_AND_ASSIGN(world, p.cinstance.Apply(mu));
  ASSERT_OK_AND_ASSIGN(closed,
                       SatisfiesCCs(world, p.setting.dm, p.setting.ccs));
  if (!closed) return;
  // Remove each tuple in turn; the CCs must stay satisfied (Lemma 4.7(a)).
  for (const Relation& rel : world.relations()) {
    for (const Tuple& t : rel.rows()) {
      Instance smaller = world;
      smaller.RemoveTuple(rel.schema().name(), t);
      ASSERT_OK_AND_ASSIGN(
          sub, SatisfiesCCs(smaller, p.setting.dm, p.setting.ccs));
      EXPECT_TRUE(sub);
    }
  }
}

TEST_P(ModelRelations, WeakHoldsWheneverViableAndCertainIsWorldAnswer) {
  // Sanity relationship: a strongly complete instance's certain answers are
  // the common answer of all worlds, so no extension can enlarge them.
  RandomProblem p = MakeRandomProblem(GetParam() + 17000);
  ASSERT_OK_AND_ASSIGN(strong, RcdpStrong(p.query, p.cinstance, p.prepared()));
  ASSERT_OK_AND_ASSIGN(weak, RcdpWeak(p.query, p.cinstance, p.prepared()));
  // strong ⇒ weak (contrapositive check).
  EXPECT_TRUE(!strong || weak);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelRelations,
                         ::testing::Range<uint64_t>(0, 24));

}  // namespace
}  // namespace relcomp
