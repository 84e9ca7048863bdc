#include "util/mutex.h"

#include <atomic>

namespace relcomp {
namespace {

std::atomic<AbortReportFn> g_abort_report_hook{nullptr};

}  // namespace

void SetLockRankAbortHook(AbortReportFn fn) {
  g_abort_report_hook.store(fn, std::memory_order_release);
}

namespace lockrank_internal {

void RunAbortReportHook() {
  if (AbortReportFn fn =
          g_abort_report_hook.load(std::memory_order_acquire)) {
    fn();
  }
}

}  // namespace lockrank_internal
}  // namespace relcomp

#if RELCOMP_LOCK_RANK_CHECKS

#include <cstdio>
#include <cstdlib>

#if defined(__has_include)
#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define RELCOMP_HAVE_BACKTRACE 1
#endif
#endif

namespace relcomp {
namespace lockrank_internal {
namespace {

// Fixed-capacity thread-local stack of the locks this thread holds. The
// deepest real chain today is four (registry → shard → pressure → cache →
// budget is the longest path and releases before re-entering); 16 leaves
// generous headroom and keeps lock/unlock allocation-free.
constexpr int kMaxHeld = 16;

struct Held {
  const void* mu;
  int rank;
  const char* name;
};

struct HeldStack {
  Held entries[kMaxHeld];
  int depth = 0;
};

HeldStack& Stack() {
  thread_local HeldStack stack;
  return stack;
}

void DumpHeldStack(const HeldStack& stack) {
  std::fprintf(stderr, "  locks held by this thread (acquisition order):\n");
  for (int i = 0; i < stack.depth; ++i) {
    std::fprintf(stderr, "    #%d \"%s\" (rank %d)\n", i,
                 stack.entries[i].name, stack.entries[i].rank);
  }
}

void DumpCallStack() {
#ifdef RELCOMP_HAVE_BACKTRACE
  void* frames[32];
  const int n = backtrace(frames, 32);
  std::fprintf(stderr, "  call stack:\n");
  backtrace_symbols_fd(frames, n, /*fd=*/2);
#endif
}

[[noreturn]] void Die(const HeldStack& stack) {
  DumpHeldStack(stack);
  DumpCallStack();
  // Last-gasp forensics: let the obs layer dump its pre-rendered report
  // (vitals, active evaluations, slow log) before the process dies.
  RunAbortReportHook();
  std::fflush(stderr);
  std::abort();
}

}  // namespace

void CheckAcquire(const void* mu, int rank, const char* name) {
  HeldStack& stack = Stack();
  for (int i = 0; i < stack.depth; ++i) {
    if (stack.entries[i].mu == mu) {
      std::fprintf(stderr,
                   "relcomp: recursive acquisition of mutex \"%s\" (rank %d)\n",
                   name, rank);
      Die(stack);
    }
    if (stack.entries[i].rank >= rank) {
      std::fprintf(
          stderr,
          "relcomp: lock-rank violation: acquiring \"%s\" (rank %d) while "
          "already holding \"%s\" (rank %d)\n",
          name, rank, stack.entries[i].name, stack.entries[i].rank);
      Die(stack);
    }
  }
}

void CheckTryAcquire(const void* mu, int rank, const char* name) {
  HeldStack& stack = Stack();
  for (int i = 0; i < stack.depth; ++i) {
    if (stack.entries[i].mu == mu) {
      std::fprintf(stderr,
                   "relcomp: recursive acquisition of mutex \"%s\" (rank %d) "
                   "via TryLock\n",
                   name, rank);
      Die(stack);
    }
  }
}

void PushHeld(const void* mu, int rank, const char* name) {
  HeldStack& stack = Stack();
  if (stack.depth >= kMaxHeld) {
    std::fprintf(stderr,
                 "relcomp: lock-rank checker: more than %d locks held while "
                 "acquiring \"%s\"\n",
                 kMaxHeld, name);
    Die(stack);
  }
  stack.entries[stack.depth++] = Held{mu, rank, name};
}

void PopHeld(const void* mu, const char* name) {
  HeldStack& stack = Stack();
  // Search from the top: releases are LIFO in practice, but a condition
  // variable relocking after a spurious-wakeup race keeps this general.
  for (int i = stack.depth - 1; i >= 0; --i) {
    if (stack.entries[i].mu != mu) continue;
    for (int j = i; j + 1 < stack.depth; ++j) {
      stack.entries[j] = stack.entries[j + 1];
    }
    --stack.depth;
    return;
  }
  std::fprintf(stderr,
               "relcomp: releasing mutex \"%s\" that this thread does not "
               "hold\n",
               name);
  Die(stack);
}

}  // namespace lockrank_internal
}  // namespace relcomp

#endif  // RELCOMP_LOCK_RANK_CHECKS
