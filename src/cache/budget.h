// CacheBudget: the service-wide arbiter of ONE shared byte budget across
// every setting shard's result cache. Shard caches charge it on insert and
// release it on evict/clear; when a charge pushes the total over budget, the
// arbiter plans evictions from the globally COLDEST shard first (coldness =
// the age of a shard's least-recently-touched entry), never driving another
// tenant below its configured byte floor — so one witness-heavy tenant
// cannot starve the others, and an idle tenant's cold cache is reclaimed
// before anyone's hot entries.
//
// Locking contract (deadlock-freedom across shards): the budget mutex is a
// LEAF — the arbiter never calls into a shard cache while holding it.
// Charge/PickVictim only update accounting and return a plan; the CALLER
// (ShardCache::Put, holding no cache mutex of its own at that point) then
// sheds the planned victims one cache at a time. Cache mutexes are therefore
// never nested with each other, and the only lock order is
//   shard.mu → pressure_mu → cache.mu → budget.mu
// — now machine-checked: see the LockRank table in util/mutex.h
// (kShard < kCachePressure < kCache < kCacheBudget).
#ifndef RELCOMP_CACHE_BUDGET_H_
#define RELCOMP_CACHE_BUDGET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "util/mutex.h"

namespace relcomp {
namespace cache {

class ShardCache;

/// Monotone global access clock shared by every shard cache: entries are
/// stamped on touch, and a shard's coldness is its coldest resident stamp.
/// Process-global so shards of different services stay comparable.
uint64_t NextTick();

class CacheBudget {
 public:
  /// A zero budget means unlimited: charges always succeed and no victim
  /// plans are ever produced (byte accounting still runs, for stats).
  explicit CacheBudget(size_t budget_bytes) : budget_bytes_(budget_bytes) {}
  CacheBudget(const CacheBudget&) = delete;
  CacheBudget& operator=(const CacheBudget&) = delete;

  /// One registered shard cache's accounting node. The cache holds the
  /// returned id and passes it back on every charge/release; its atomics
  /// are updated lock-free on the touch path.
  struct Registration {
    std::weak_ptr<ShardCache> cache;
    size_t floor_bytes = 0;
    std::atomic<size_t> bytes{0};      ///< charged (resident + reserved)
    std::atomic<uint64_t> coldest{0};  ///< tick of the oldest resident entry
  };

  /// Registers a shard cache with its starvation floor; the weak_ptr keeps
  /// victim plans safe against concurrent shard release.
  uint64_t Register(std::weak_ptr<ShardCache> cache, size_t floor_bytes)
      EXCLUDES(mu_);
  /// Drops a registration, releasing whatever bytes it still has charged;
  /// `resident_bytes` of them were still resident in the dying cache.
  void Deregister(uint64_t id, size_t resident_bytes) EXCLUDES(mu_);

  /// Charges `bytes` to shard `id` ONLY IF the total stays within budget —
  /// so used_bytes() can never exceed budget_bytes(), and the resident
  /// total (always ≤ the charged total, since every entry is charged
  /// before it becomes resident) cannot either. On false the accounting is
  /// untouched; the caller sheds victims and retries.
  bool TryCharge(uint64_t id, size_t bytes) EXCLUDES(mu_);
  /// Marks `bytes` already charged by TryCharge as resident: the entry
  /// landed in its cache. Lock-free.
  void Settle(size_t bytes) {
    resident_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  /// Releases `bytes` from shard `id`: an entry evicted or cleared
  /// (`resident`), or a reservation rolled back before it landed. Resident
  /// bytes retire before their charge does, so resident_bytes() never
  /// exceeds used_bytes() and hence never the budget.
  void Release(uint64_t id, size_t bytes, bool resident) EXCLUDES(mu_);

  /// Records shard `id`'s coldest resident entry stamp (lock-free).
  void UpdateColdness(uint64_t id, uint64_t tick) EXCLUDES(mu_);

  /// One step of the pressure plan for an insert of `needed` bytes: the
  /// coldest shard holding more than its floor, and how many bytes it
  /// should shed to make the insert fit. When every OTHER shard sits at
  /// its floor, the requester itself is picked with its floor waived (a
  /// tenant may always dig into its own entries to admit its own entry).
  /// Returns false when nothing evictable remains. `requester_id` is the
  /// charging shard's registration id.
  struct Victim {
    std::shared_ptr<ShardCache> cache;
    size_t bytes = 0;        ///< shed target
    size_t floor_bytes = 0;  ///< floor the shed must respect (0 = waived)
  };
  bool PickVictim(uint64_t requester_id, size_t needed, Victim* victim)
      EXCLUDES(mu_);

  /// Serializes over-budget negotiations (TryCharge failed → shed →
  /// retry): concurrent evictors would otherwise race each other's
  /// charged-but-not-yet-resident bytes and spuriously refuse inserts
  /// that fit serially. Held around the whole shed-retry loop; never held
  /// by the budget itself while calling into a cache.
  Mutex& pressure_mu() RETURN_CAPABILITY(pressure_mu_) { return pressure_mu_; }

  size_t budget_bytes() const { return budget_bytes_; }
  size_t used_bytes() const {
    return used_bytes_.load(std::memory_order_relaxed);
  }
  /// Bytes resident across every registered cache, read in one load — the
  /// sum of the caches' bytes() without the skew of reading them one by
  /// one while a cross-shard eviction moves bytes between them.
  size_t resident_bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }

 private:
  const size_t budget_bytes_;
  std::atomic<size_t> used_bytes_{0};
  std::atomic<size_t> resident_bytes_{0};

  Mutex pressure_mu_{LockRank::kCachePressure, "CacheBudget::pressure_mu_"};
  /// Guards the registry map only; per-registration atomics are lock-free.
  mutable Mutex mu_{LockRank::kCacheBudget, "CacheBudget::mu_"};
  std::unordered_map<uint64_t, std::unique_ptr<Registration>> registrations_
      GUARDED_BY(mu_);
  uint64_t next_id_ GUARDED_BY(mu_) = 1;
};

}  // namespace cache
}  // namespace relcomp

#endif  // RELCOMP_CACHE_BUDGET_H_
