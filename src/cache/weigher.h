// Byte-cost accounting for cached Decisions. The shard result caches were
// historically bounded by ENTRY COUNT, but a Decision carrying a
// CompletenessWitness (two instances, a valuation, schemas) can be orders of
// magnitude larger than a bare verdict, so "1024 entries" says nothing about
// memory. The weigher assigns every cached Decision a deterministic byte
// cost — struct sizes plus the owned heap payload (strings, tuple vectors,
// the deep witness) — which the byte-weighted ShardCache and the shared
// CacheBudget arbitrate on. Costs are approximations of resident heap bytes
// (std::string / std::vector size, not capacity), chosen to be stable across
// runs rather than allocator-exact.
#ifndef RELCOMP_CACHE_WEIGHER_H_
#define RELCOMP_CACHE_WEIGHER_H_

#include <cstddef>
#include <string>

#include "core/types.h"
#include "service/decision.h"

namespace relcomp {
namespace cache {

/// Fixed bookkeeping cost charged per cache entry on top of the Decision
/// payload: the segment list node, the index hash node, and the dual-digest
/// key they share.
constexpr size_t kEntryOverheadBytes = 96;

inline size_t WeighString(const std::string& s) { return s.size(); }

inline size_t WeighTuple(const Tuple& t) {
  return sizeof(Tuple) + t.size() * sizeof(Value);
}

inline size_t WeighDomain(const Domain& d) {
  return sizeof(Domain) + d.values().size() * sizeof(Value);
}

inline size_t WeighRelationSchema(const RelationSchema& schema) {
  size_t bytes = sizeof(RelationSchema) + WeighString(schema.name());
  for (const Attribute& attr : schema.attributes()) {
    bytes += sizeof(Attribute) + WeighString(attr.name) +
             WeighDomain(attr.domain);
  }
  return bytes;
}

inline size_t WeighSchema(const DatabaseSchema& schema) {
  size_t bytes = sizeof(DatabaseSchema);
  for (const RelationSchema& rel : schema.relations()) {
    bytes += WeighRelationSchema(rel);
  }
  return bytes;
}

inline size_t WeighRelation(const Relation& rel) {
  size_t bytes = sizeof(Relation) + WeighRelationSchema(rel.schema());
  for (const Tuple& row : rel.rows()) bytes += WeighTuple(row);
  return bytes;
}

inline size_t WeighInstance(const Instance& instance) {
  size_t bytes = sizeof(Instance) + WeighSchema(instance.schema());
  for (const Relation& rel : instance.relations()) {
    // The relation's schema copy is already counted via the instance schema;
    // counting it again per relation stays deterministic and errs toward
    // overcharging witness-heavy entries, which is the safe direction for a
    // memory bound.
    bytes += WeighRelation(rel);
  }
  return bytes;
}

inline size_t WeighValuation(const Valuation& mu) {
  return sizeof(Valuation) + mu.num_slots() * (sizeof(Value) + sizeof(bool));
}

inline size_t WeighWitness(const CompletenessWitness& witness) {
  return sizeof(CompletenessWitness) + WeighValuation(witness.world_valuation) +
         WeighInstance(witness.world) + WeighInstance(witness.extension) +
         WeighTuple(witness.answer) + WeighString(witness.note);
}

/// Total byte cost of one cached Decision: the struct, its owned strings,
/// and the deep witness payload. The witness is shared_ptr-shared with
/// caller copies, but the cache entry is what pins it resident, so the full
/// witness cost is charged to the entry.
inline size_t WeighDecision(const Decision& decision) {
  size_t bytes = sizeof(Decision) + WeighString(decision.status.message()) +
                 WeighString(decision.note);
  if (decision.witness != nullptr) bytes += WeighWitness(*decision.witness);
  return bytes;
}

}  // namespace cache
}  // namespace relcomp

#endif  // RELCOMP_CACHE_WEIGHER_H_
