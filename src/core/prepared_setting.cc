#include "core/prepared_setting.h"

#include "core/fingerprint.h"
#include "query/containment.h"

namespace relcomp {

std::shared_ptr<PreparedSetting::Artifacts> PreparedSetting::Derive(
    const PartiallyClosedSetting& setting) {
  auto a = std::make_shared<Artifacts>();
  a->setting = &setting;
  a->all_inds = AllInds(setting.ccs);
  a->cc_projections.reserve(setting.ccs.size());
  a->cc_projection_ok.reserve(setting.ccs.size());
  for (const ContainmentConstraint& cc : setting.ccs) {
    Result<Relation> projected = cc.ProjectMaster(setting.dm);
    if (!projected.ok()) {
      // Unknown master in an unvalidated (borrowed) setting: fall back to
      // the unprepared check at use time so the free SatisfiesCCs's error
      // ordering — later CCs untouched once an earlier one fails — holds.
      a->cc_projections.emplace_back();
      a->cc_projection_ok.push_back(0);
      continue;
    }
    a->cc_projections.push_back(std::move(projected).value());
    a->cc_projection_ok.push_back(1);
  }
  return a;
}

Result<PreparedSetting> PreparedSetting::Prepare(
    PartiallyClosedSetting setting) {
  const uint64_t fingerprint = FingerprintSetting(setting);
  return Prepare(std::move(setting), fingerprint);
}

Result<PreparedSetting> PreparedSetting::Prepare(PartiallyClosedSetting setting,
                                                 uint64_t fingerprint) {
  auto owned =
      std::make_shared<const PartiallyClosedSetting>(std::move(setting));
  RELCOMP_RETURN_IF_ERROR(owned->Validate());
  std::shared_ptr<Artifacts> a = Derive(*owned);
  for (size_t i = 0; i < owned->ccs.size(); ++i) {
    // Validate() checks master relations exist, so projections succeed on
    // this path; re-surface the status if that invariant ever breaks.
    if (!a->cc_projection_ok[i]) {
      return owned->ccs[i].ProjectMaster(owned->dm).status();
    }
  }
  a->owned = owned;
  a->fingerprint = fingerprint;
  a->fingerprinted = true;
  PreparedSetting prepared(std::move(a));
  prepared.adom_seed();  // warm the seed: a registered setting serves many
  return prepared;
}

PreparedSetting PreparedSetting::Borrow(
    const PartiallyClosedSetting& setting) {
  return PreparedSetting(Derive(setting));
}

const AdomSeed& PreparedSetting::adom_seed() const {
  std::call_once(a_->seed_once, [this] {
    a_->adom_seed = AdomContext::SeedFor(*a_->setting);
  });
  return a_->adom_seed;
}

uint64_t PreparedSetting::fingerprint() const {
  if (a_->fingerprinted) return a_->fingerprint;
  return FingerprintSetting(*a_->setting);
}

Result<bool> PreparedSetting::SatisfiesCCs(const Instance& instance) const {
  const CCSet& ccs = a_->setting->ccs;
  for (size_t i = 0; i < ccs.size(); ++i) {
    Result<bool> sat =
        a_->cc_projection_ok[i]
            ? ccs[i].SatisfiedAgainst(instance, a_->cc_projections[i])
            : ccs[i].Satisfied(instance, a_->setting->dm);
    if (!sat.ok()) return sat.status();
    if (!*sat) return false;
  }
  return true;
}

AdomContext PreparedSetting::BuildAdomForGround(const Instance& instance,
                                                const Query* query) const {
  return BuildAdom(CInstance::FromInstance(instance), query);
}

}  // namespace relcomp
