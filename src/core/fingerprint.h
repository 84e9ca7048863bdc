// Stable fingerprints of settings, c-instances and queries, used as service
// cache and coalescing keys. Fingerprints are built from canonical text
// renderings (symbol names, not interner ids) so they are reproducible across
// runs and independent of interning order.
#ifndef RELCOMP_CORE_FINGERPRINT_H_
#define RELCOMP_CORE_FINGERPRINT_H_

#include <cstdint>

#include "core/types.h"
#include "util/hash.h"

namespace relcomp {

/// Fingerprint of a c-instance including conditions.
uint64_t FingerprintCInstance(const CInstance& cinstance);

/// Fingerprint of a query (language tag + canonical rendering).
uint64_t FingerprintQuery(const Query& query);

/// Fingerprint of the whole partially closed setting (R, Rm, Dm, V).
uint64_t FingerprintSetting(const PartiallyClosedSetting& setting);

/// Independently-seeded variant, for wide (dual-digest) identity keys —
/// e.g. the service's setting registry, where a single 64-bit collision
/// would route one tenant's requests to another tenant's shard.
uint64_t FingerprintSettingSeeded(const PartiallyClosedSetting& setting,
                                  uint64_t seed);

}  // namespace relcomp

#endif  // RELCOMP_CORE_FINGERPRINT_H_
