#include "sched/queue.h"

#include <algorithm>
#include <utility>

namespace relcomp {
namespace sched {

FairQueue::FairQueue(SchedPolicy policy, OverloadPolicy overload,
                     TenantOptions default_tenant)
    : policy_(policy),
      overload_(overload),
      default_tenant_(default_tenant) {}

void FairQueue::RegisterTenant(uint64_t tenant, TenantOptions options) {
  MutexLock lock(mu_);
  auto [it, inserted] = tenants_.try_emplace(tenant);
  if (!inserted) {
    // First registration wins; a re-registration only revives a tenant
    // that was released (or implicitly created) but not yet drained.
    it->second.released = false;
    return;
  }
  InitTenant(it->second, options);
  it->second.released = false;  // explicit registrations live until released
}

void FairQueue::ReleaseTenant(uint64_t tenant) {
  MutexLock lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return;
  it->second.released = true;
  GcTenant(tenant);
}

void FairQueue::InitTenant(Tenant& tenant, TenantOptions options) {
  tenant.options = options;
  tenant.stride = kStrideScale / std::max<uint32_t>(1, options.weight);
  tenant.pass = global_pass_;
  if (tenant.options.rate_per_sec > 0) {
    if (tenant.options.burst <= 0) {
      tenant.options.burst = std::max(1.0, tenant.options.rate_per_sec);
    }
    tenant.tokens = tenant.options.burst;  // start full: first burst is free
    tenant.refilled = Clock::now();
  }
}

FairQueue::Tenant& FairQueue::TenantFor(uint64_t id) {
  auto it = tenants_.find(id);
  if (it != tenants_.end()) return it->second;
  // Implicit registration. Tenant 0 (system work: batch fan-out plumbing)
  // is never limited; real tenants inherit the queue-wide defaults.
  // Implicit entries are born `released`, i.e. garbage-collected as soon
  // as they drain: a straggler push racing ReleaseSetting (or untenanted
  // system work) must not leak a permanent tenants_ entry.
  Tenant& tenant = tenants_[id];
  InitTenant(tenant, id == 0 ? TenantOptions{} : default_tenant_);
  tenant.released = true;
  return tenant;
}

bool FairQueue::HasRoom(const Tenant& tenant) const {
  return tenant.options.max_queue == 0 ||
         tenant.queued < tenant.options.max_queue;
}

std::chrono::nanoseconds FairQueue::TakeToken(Tenant& tenant, TimePoint now) {
  if (tenant.options.rate_per_sec <= 0) return std::chrono::nanoseconds(0);
  const double elapsed =
      std::chrono::duration<double>(now - tenant.refilled).count();
  tenant.tokens =
      std::min(tenant.options.burst,
               tenant.tokens + elapsed * tenant.options.rate_per_sec);
  tenant.refilled = now;
  if (tenant.tokens >= 1.0) {
    tenant.tokens -= 1.0;
    return std::chrono::nanoseconds(0);
  }
  const double missing = 1.0 - tenant.tokens;
  return std::chrono::nanoseconds(static_cast<int64_t>(
      missing / tenant.options.rate_per_sec * 1e9) + 1);
}

bool FairQueue::Push(Task&& task) {
  MutexLock lock(mu_);
  TimePoint blocked_since{};
  bool blocked = false;
  for (;;) {
    if (shutdown_) return false;
    Tenant& tenant = TenantFor(task.tenant);
    if (HasRoom(tenant)) {
      const std::chrono::nanoseconds token_wait =
          TakeToken(tenant, Clock::now());
      if (token_wait.count() == 0) {
        // Admitted.
        task.enqueued = Clock::now();
        if (blocked && token_wait_hist_ != nullptr) {
          token_wait_hist_->Record(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  task.enqueued - blocked_since)
                  .count()));
        }
        const size_t lane = static_cast<size_t>(task.priority);
        const bool was_idle = tenant.queued == 0;
        ++tenant.queued;
        ++depth_;
        if (policy_ == SchedPolicy::kFifo) {
          fifo_[lane].push_back(std::move(task));
        } else {
          if (was_idle) {
            // A tenant returning from idle joins at the current virtual
            // time instead of spending credit hoarded while away, and
            // enters the pass-ordered dispatch index.
            tenant.pass = std::max(tenant.pass, global_pass_);
            ready_.emplace(tenant.pass, task.tenant);
          }
          tenant.by_priority[lane].push_back(std::move(task));
        }
        work_cv_.NotifyOne();
        return true;
      }
      if (overload_ == OverloadPolicy::kReject) return false;
      // kBlock: rate-limited — sleep until the bucket refills (or space
      // frees up, which also re-checks the bucket).
      if (!blocked) {
        blocked = true;
        blocked_since = Clock::now();
      }
      space_cv_.WaitFor(mu_, token_wait);
      continue;
    }
    if (overload_ == OverloadPolicy::kReject) return false;
    if (!blocked) {
      blocked = true;
      blocked_since = Clock::now();
    }
    // Quota wait, as an explicit loop (the static analysis does not see
    // into predicate lambdas). Re-fetch the tenant each round: blocking
    // can outlive a released tenant's tenants_ entry.
    for (;;) {
      if (shutdown_) break;
      const Tenant& t = TenantFor(task.tenant);
      if (t.options.max_queue == 0 || t.queued < t.options.max_queue) break;
      space_cv_.Wait(mu_);
    }
  }
}

bool FairQueue::Pop(Task* task, TaskOutcome* outcome) {
  MutexLock lock(mu_);
  while (!shutdown_ && depth_ == 0) work_cv_.Wait(mu_);
  if (depth_ == 0) return false;  // shutdown with a drained queue

  if (policy_ == SchedPolicy::kFifo) {
    for (auto& lane : fifo_) {
      if (lane.empty()) continue;
      *task = std::move(lane.front());
      lane.pop_front();
      break;
    }
    auto it = tenants_.find(task->tenant);
    if (it != tenants_.end()) {
      --it->second.queued;
      GcTenant(task->tenant);
    }
  } else {
    // The dispatch index head is the backlogged tenant with the smallest
    // pass (ties: lowest id); depth_ > 0 guarantees it exists.
    const uint64_t id = ready_.begin()->second;
    ready_.erase(ready_.begin());
    Tenant& tenant = tenants_.at(id);
    for (auto& lane : tenant.by_priority) {
      if (lane.empty()) continue;
      *task = std::move(lane.front());
      lane.pop_front();
      break;
    }
    global_pass_ = tenant.pass;
    tenant.pass += tenant.stride;
    --tenant.queued;
    if (tenant.queued > 0) {
      ready_.emplace(tenant.pass, id);  // re-key at the advanced pass
    } else {
      GcTenant(id);
    }
  }
  --depth_;
  // NotifyAll, not NotifyOne: space_cv_ waiters have heterogeneous
  // predicates (per-tenant quota vs. token refill), so a single wakeup
  // could land on a producer whose own condition is still false while an
  // admissible one keeps sleeping.
  space_cv_.NotifyAll();

  const TimePoint now = Clock::now();
  task->wait = std::chrono::duration_cast<std::chrono::microseconds>(
      now - task->enqueued);
  *outcome = task->deadline < now ? TaskOutcome::kExpired : TaskOutcome::kRun;
  return true;
}

void FairQueue::AttachMetrics(obs::Histogram* token_wait) {
  MutexLock lock(mu_);
  token_wait_hist_ = token_wait;
}

void FairQueue::GcTenant(uint64_t id) {
  auto it = tenants_.find(id);
  if (it != tenants_.end() && it->second.released && it->second.queued == 0) {
    tenants_.erase(it);
  }
}

void FairQueue::Shutdown() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  space_cv_.NotifyAll();
}

size_t FairQueue::depth() const {
  MutexLock lock(mu_);
  return depth_;
}

size_t FairQueue::TenantDepth(uint64_t tenant) const {
  MutexLock lock(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.queued;
}

}  // namespace sched
}  // namespace relcomp
