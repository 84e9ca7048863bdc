#include "cache/budget.h"

#include <algorithm>
#include <limits>

namespace relcomp {
namespace cache {

uint64_t NextTick() {
  static std::atomic<uint64_t> tick{1};
  return tick.fetch_add(1, std::memory_order_relaxed);
}

uint64_t CacheBudget::Register(std::weak_ptr<ShardCache> cache,
                               size_t floor_bytes) {
  MutexLock lock(mu_);
  const uint64_t id = next_id_++;
  auto registration = std::make_unique<Registration>();
  registration->cache = std::move(cache);
  registration->floor_bytes = floor_bytes;
  registration->coldest.store(NextTick(), std::memory_order_relaxed);
  registrations_.emplace(id, std::move(registration));
  return id;
}

void CacheBudget::Deregister(uint64_t id, size_t resident_bytes) {
  MutexLock lock(mu_);
  auto it = registrations_.find(id);
  if (it == registrations_.end()) return;
  resident_bytes_.fetch_sub(resident_bytes, std::memory_order_relaxed);
  used_bytes_.fetch_sub(it->second->bytes.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  registrations_.erase(it);
}

bool CacheBudget::TryCharge(uint64_t id, size_t bytes) {
  MutexLock lock(mu_);
  if (budget_bytes_ != 0 &&
      used_bytes_.load(std::memory_order_relaxed) + bytes > budget_bytes_) {
    return false;
  }
  auto it = registrations_.find(id);
  if (it == registrations_.end()) return false;
  it->second->bytes.fetch_add(bytes, std::memory_order_relaxed);
  used_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  return true;
}

void CacheBudget::Release(uint64_t id, size_t bytes, bool resident) {
  MutexLock lock(mu_);
  auto it = registrations_.find(id);
  if (it == registrations_.end()) return;
  if (resident) resident_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  it->second->bytes.fetch_sub(bytes, std::memory_order_relaxed);
  used_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
}

void CacheBudget::UpdateColdness(uint64_t id, uint64_t tick) {
  MutexLock lock(mu_);
  auto it = registrations_.find(id);
  if (it == registrations_.end()) return;
  it->second->coldest.store(tick, std::memory_order_relaxed);
}

bool CacheBudget::PickVictim(uint64_t requester_id, size_t needed,
                             Victim* victim) {
  const size_t used = used_bytes_.load(std::memory_order_relaxed);
  if (budget_bytes_ == 0 || used + needed <= budget_bytes_) return false;
  const size_t excess = used + needed - budget_bytes_;

  MutexLock lock(mu_);
  // Coldest shard with evictable bytes above its floor — including the
  // requester, whose own cold tail is fair game like anyone else's.
  Registration* coldest = nullptr;
  uint64_t coldest_tick = std::numeric_limits<uint64_t>::max();
  for (auto& [id, registration] : registrations_) {
    const size_t bytes = registration->bytes.load(std::memory_order_relaxed);
    if (bytes <= registration->floor_bytes) continue;
    const uint64_t tick = registration->coldest.load(std::memory_order_relaxed);
    if (coldest == nullptr || tick < coldest_tick) {
      coldest = registration.get();
      coldest_tick = tick;
    }
  }
  if (coldest != nullptr) {
    std::shared_ptr<ShardCache> cache = coldest->cache.lock();
    if (cache != nullptr) {
      const size_t bytes = coldest->bytes.load(std::memory_order_relaxed);
      victim->cache = std::move(cache);
      victim->bytes = std::min(excess, bytes - coldest->floor_bytes);
      victim->floor_bytes = coldest->floor_bytes;
      return victim->bytes > 0;
    }
    // The shard died between release and deregistration; its accounting
    // disappears with Deregister — fall through to the self fallback.
  }
  // Everyone else sits at its floor: the requester digs into its own floor
  // (it cannot starve itself — the shed makes room for its own entry).
  auto self = registrations_.find(requester_id);
  if (self == registrations_.end()) return false;
  std::shared_ptr<ShardCache> cache = self->second->cache.lock();
  const size_t bytes = self->second->bytes.load(std::memory_order_relaxed);
  if (cache == nullptr || bytes == 0) return false;
  victim->cache = std::move(cache);
  victim->bytes = std::min(excess, bytes);
  victim->floor_bytes = 0;
  return victim->bytes > 0;
}

}  // namespace cache
}  // namespace relcomp
