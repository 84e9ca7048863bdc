// The active domain Adom = S ∪ New ∪ df of the Prop 3.3 / Thm 4.1 proofs:
// all constants of T, Dm, V (and the query), plus one fresh ("New") constant
// per variable, plus every finite-domain constant. All decision procedures
// enumerate valuations over Adom only — the paper's finite-model argument
// shows this is sound and complete.
#ifndef RELCOMP_CORE_ADOM_H_
#define RELCOMP_CORE_ADOM_H_

#include <vector>

#include "core/types.h"

namespace relcomp {

/// The setting-level contribution to every Adom built over one (Dm, V):
/// the constants of Dm, V and the finite attribute domains, plus the fresh
/// budget owed to CC variables and the widest relation. Computing this is
/// linear in |Dm|; a prepared setting caches it so per-query Adom builds
/// only fold in the query and instance constants.
struct AdomSeed {
  std::vector<Value> base;  ///< sorted, unique setting constants
  size_t fresh = 0;         ///< setting-level fresh-constant budget
};

/// The finite active domain for a given (T, Dm, V, Q) combination.
class AdomContext {
 public:
  /// Precomputes the setting-level seed used by BuildFromSeed.
  static AdomSeed SeedFor(const PartiallyClosedSetting& setting);

  /// Builds Adom for c-instance `T` from the seed of its setting, optionally
  /// folding in the constants and variables of `query`.
  /// PreparedSetting::BuildAdom and BuildAdomForGround wrap this with the
  /// setting's cached seed.
  static AdomContext BuildFromSeed(const AdomSeed& seed,
                                   const CInstance& cinstance,
                                   const Query* query);

  /// S ∪ New ∪ df, sorted and unique.
  const std::vector<Value>& values() const { return values_; }
  /// The fresh ("New") constants only.
  const std::vector<Value>& fresh() const { return fresh_; }
  /// S ∪ df (no fresh constants).
  const std::vector<Value>& base() const { return base_; }

  /// Candidate values for a position typed by `domain`: the finite domain's
  /// values if finite, the full Adom otherwise.
  const std::vector<Value>& Candidates(const Domain& domain) const {
    return domain.is_finite() ? domain.values() : values_;
  }

 private:
  std::vector<Value> values_;
  std::vector<Value> fresh_;
  std::vector<Value> base_;
};

}  // namespace relcomp

#endif  // RELCOMP_CORE_ADOM_H_
