// PreparedSetting: cached artifacts must be indistinguishable from per-call
// recomputation — same Adom, same CC verdicts, same decider answers — a
// borrowed (unvalidated, lazily seeded) handle must decide exactly like a
// prepared (validated, eagerly seeded, owning) one, and fingerprints must be
// stable and discriminating.
#include <gtest/gtest.h>

#include "core/fingerprint.h"
#include "core/minp.h"
#include "core/prepared_setting.h"
#include "core/rcdp.h"
#include "core/rcqp.h"
#include "reductions/examples_fig1.h"
#include "test_util.h"

namespace relcomp {
namespace {

using testing::S;

TEST(PreparedSettingTest, PrepareValidatesTheSetting) {
  PatientsFixture fx = MakePatientsFixture();
  ASSERT_OK_AND_ASSIGN(prepared, PreparedSetting::Prepare(fx.setting));
  EXPECT_EQ(prepared.ccs().size(), fx.setting.ccs.size());
  EXPECT_EQ(prepared.cc_projections().size(), fx.setting.ccs.size());

  // A CC whose projection width disagrees with its head arity must fail.
  PartiallyClosedSetting broken = fx.setting;
  ContainmentConstraint cc = broken.ccs.front();
  broken.ccs.push_back(ContainmentConstraint(
      "bad", cc.q(), cc.master_rel(),
      std::vector<int>(cc.master_cols().size() + 1, 0)));
  EXPECT_FALSE(PreparedSetting::Prepare(broken).ok());
}

TEST(PreparedSettingTest, CachedSeedBuildAdomMatchesFreshSeed) {
  // BuildAdom over the handle's cached seed equals BuildFromSeed over a
  // seed computed from the raw setting, for c-instances and ground ones.
  PatientsFixture fx = MakePatientsFixture();
  AdomSeed seed = AdomContext::SeedFor(fx.setting);
  ASSERT_OK_AND_ASSIGN(prepared, PreparedSetting::Prepare(fx.setting));
  const CInstance ground = CInstance::FromInstance(fx.ground);
  for (const Query* q : {&fx.q1, &fx.q2, &fx.q4}) {
    AdomContext seeded = AdomContext::BuildFromSeed(seed, fx.ctable, q);
    AdomContext via_prepared = prepared.BuildAdom(fx.ctable, q);
    EXPECT_EQ(seeded.values(), via_prepared.values());
    EXPECT_EQ(seeded.base(), via_prepared.base());
    EXPECT_EQ(seeded.fresh(), via_prepared.fresh());

    AdomContext seeded_ground = AdomContext::BuildFromSeed(seed, ground, q);
    AdomContext via_ground = prepared.BuildAdomForGround(fx.ground, q);
    EXPECT_EQ(seeded_ground.values(), via_ground.values());
  }
}

TEST(PreparedSettingTest, CachedProjectionsMatchDirectCcChecks) {
  PatientsFixture fx = MakePatientsFixture();
  ASSERT_OK_AND_ASSIGN(prepared, PreparedSetting::Prepare(fx.setting));

  // The ground rows satisfy V; a visit by an unknown patient violates the
  // name CC only through the master projection — both paths must agree.
  Instance bad = fx.ground;
  bad.AddTuple("MVisit", {S("000-00-000"), S("Nobody"), S("EDI"),
                          Value::Int(2000), S("M"), S("15/03/2015"),
                          S("Flu"), S("01")});
  for (const Instance* instance : {&fx.ground, &bad}) {
    ASSERT_OK_AND_ASSIGN(
        direct, SatisfiesCCs(*instance, fx.setting.dm, fx.setting.ccs));
    ASSERT_OK_AND_ASSIGN(cached, prepared.SatisfiesCCs(*instance));
    EXPECT_EQ(direct, cached);
  }
}

TEST(PreparedSettingTest, DecidersAgreeBetweenBorrowedAndPreparedSettings) {
  PatientsFixture fx = MakePatientsFixture();
  const PreparedSetting borrowed = PreparedSetting::Borrow(fx.setting);
  ASSERT_OK_AND_ASSIGN(prepared, PreparedSetting::Prepare(fx.setting));
  for (const Query* q : {&fx.q1, &fx.q2, &fx.q4}) {
    ASSERT_OK_AND_ASSIGN(borrowed_strong, RcdpStrong(*q, fx.ctable, borrowed));
    ASSERT_OK_AND_ASSIGN(prep_strong, RcdpStrong(*q, fx.ctable, prepared));
    EXPECT_EQ(borrowed_strong, prep_strong) << (*q).ToString();

    ASSERT_OK_AND_ASSIGN(borrowed_viable, RcdpViable(*q, fx.ctable, borrowed));
    ASSERT_OK_AND_ASSIGN(prep_viable, RcdpViable(*q, fx.ctable, prepared));
    EXPECT_EQ(borrowed_viable, prep_viable) << (*q).ToString();

    ASSERT_OK_AND_ASSIGN(borrowed_minp,
                         MinpStrongGround(*q, fx.ground, borrowed));
    ASSERT_OK_AND_ASSIGN(prep_minp, MinpStrongGround(*q, fx.ground, prepared));
    EXPECT_EQ(borrowed_minp, prep_minp) << (*q).ToString();
  }
  ASSERT_OK_AND_ASSIGN(borrowed_weak, RcdpWeak(fx.q4, fx.ctable, borrowed));
  ASSERT_OK_AND_ASSIGN(prep_weak, RcdpWeak(fx.q4, fx.ctable, prepared));
  EXPECT_EQ(borrowed_weak, prep_weak);
}

TEST(PreparedSettingTest, SearchStatsIdenticalForBorrowedAndPreparedSettings) {
  // Validation, the eager seed and the owned copy must not change the
  // logical work, only where it is paid: every counter agrees.
  PatientsFixture fx = MakePatientsFixture();
  const PreparedSetting borrowed = PreparedSetting::Borrow(fx.setting);
  ASSERT_OK_AND_ASSIGN(prepared, PreparedSetting::Prepare(fx.setting));
  SearchStats borrowed_stats, prep_stats;
  ASSERT_OK_AND_ASSIGN(borrowed_answer,
                       RcdpStrong(fx.q1, fx.ctable, borrowed, {},
                                  &borrowed_stats));
  ASSERT_OK_AND_ASSIGN(prep,
                       RcdpStrong(fx.q1, fx.ctable, prepared, {}, &prep_stats));
  EXPECT_EQ(borrowed_answer, prep);
  EXPECT_EQ(borrowed_stats.valuations, prep_stats.valuations);
  EXPECT_EQ(borrowed_stats.worlds, prep_stats.worlds);
  EXPECT_EQ(borrowed_stats.extensions, prep_stats.extensions);
  EXPECT_EQ(borrowed_stats.cc_checks, prep_stats.cc_checks);
  EXPECT_EQ(borrowed_stats.query_evals, prep_stats.query_evals);
}

TEST(PreparedSettingTest, BorrowedUnknownMasterFallsBackToTheFreeCheck) {
  // A borrowed setting is not validated, so a CC may name a master relation
  // missing from Dm. Its projection cannot be cached; SatisfiesCCs checks
  // that CC the unprepared way and must report what the free function does.
  PartiallyClosedSetting setting;
  setting.schema.AddRelation(
      RelationSchema("Visit", {Attribute{"nhs", Domain::Infinite()}}));
  setting.master_schema.AddRelation(
      RelationSchema("Patientm", {Attribute{"nhs", Domain::Infinite()}}));
  setting.dm = Instance(setting.master_schema);
  setting.dm.AddTuple("Patientm", {S("p0")});
  for (const char* master : {"Patientm", "Ghostm"}) {
    ConjunctiveQuery proj({CTerm(VarId{0})}, {RelAtom{"Visit", {VarId{0}}}});
    setting.ccs.emplace_back(std::string("into_") + master, std::move(proj),
                             master, std::vector<int>{0});
  }
  EXPECT_FALSE(PreparedSetting::Prepare(setting).ok());
  const PreparedSetting borrowed = PreparedSetting::Borrow(setting);

  // The known CC holds, so both checks reach the broken one and fail alike.
  Instance known(setting.schema);
  known.AddTuple("Visit", {S("p0")});
  Result<bool> direct = SatisfiesCCs(known, setting.dm, setting.ccs);
  Result<bool> cached = borrowed.SatisfiesCCs(known);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(cached.status().code(), direct.status().code());
  EXPECT_EQ(cached.status().message(), direct.status().message());

  // An earlier violated CC settles the answer before the broken CC is seen.
  Instance stranger(setting.schema);
  stranger.AddTuple("Visit", {S("p1")});
  ASSERT_OK_AND_ASSIGN(direct_closed,
                       SatisfiesCCs(stranger, setting.dm, setting.ccs));
  ASSERT_OK_AND_ASSIGN(cached_closed, borrowed.SatisfiesCCs(stranger));
  EXPECT_FALSE(direct_closed);
  EXPECT_FALSE(cached_closed);
}

TEST(PreparedSettingTest, FingerprintsAreStableAndDiscriminating) {
  PatientsFixture fx = MakePatientsFixture();
  ASSERT_OK_AND_ASSIGN(a, PreparedSetting::Prepare(fx.setting));
  ASSERT_OK_AND_ASSIGN(b, PreparedSetting::Prepare(fx.setting));
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.fingerprint(), FingerprintSetting(fx.setting));

  // The acquisition setting differs only in master data — and in print.
  ASSERT_OK_AND_ASSIGN(c, PreparedSetting::Prepare(fx.acquisition));
  EXPECT_NE(a.fingerprint(), c.fingerprint());

  EXPECT_NE(FingerprintQuery(fx.q1), FingerprintQuery(fx.q2));
  EXPECT_EQ(FingerprintQuery(fx.q1), FingerprintQuery(fx.q1));
  EXPECT_NE(FingerprintCInstance(fx.ctable),
            FingerprintCInstance(CInstance(fx.setting.schema)));
}

TEST(PreparedSettingTest, AllIndsClassificationIsCached) {
  PatientsFixture fx = MakePatientsFixture();
  ASSERT_OK_AND_ASSIGN(fig1, PreparedSetting::Prepare(fx.setting));
  EXPECT_EQ(fig1.all_inds(), AllInds(fx.setting.ccs));

  // A pure-IND setting flips the flag and unlocks the Cor 7.2 fast path.
  PartiallyClosedSetting ind;
  ind.schema.AddRelation(RelationSchema(
      "Visit", {Attribute{"nhs", Domain::Infinite()}}));
  ind.master_schema.AddRelation(
      RelationSchema("Patientm", {Attribute{"nhs", Domain::Infinite()}}));
  ind.dm = Instance(ind.master_schema);
  ind.dm.AddTuple("Patientm", {S("p0")});
  ConjunctiveQuery proj({CTerm(VarId{0})},
                        {RelAtom{"Visit", {VarId{0}}}});
  ind.ccs.emplace_back("ind", std::move(proj), "Patientm",
                       std::vector<int>{0});
  ASSERT_OK_AND_ASSIGN(prepared_ind, PreparedSetting::Prepare(ind));
  EXPECT_TRUE(prepared_ind.all_inds());
  const PreparedSetting borrowed_ind = PreparedSetting::Borrow(ind);
  EXPECT_TRUE(borrowed_ind.all_inds());

  Query q = Query::Cq(ConjunctiveQuery({CTerm(VarId{0})},
                                       {RelAtom{"Visit", {VarId{0}}}}));
  ASSERT_OK_AND_ASSIGN(borrowed, RcqpStrongInd(q, borrowed_ind));
  ASSERT_OK_AND_ASSIGN(prep, RcqpStrongInd(q, prepared_ind));
  EXPECT_EQ(borrowed, prep);
}

}  // namespace
}  // namespace relcomp
