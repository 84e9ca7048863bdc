#include "obs/trace.h"

#include <algorithm>
#include <sstream>

namespace relcomp {
namespace obs {

Trace::Trace(uint64_t id, TraceTime start) : id_(id), start_(start) {}

uint64_t Trace::MicrosSinceStart(TraceTime now) const {
  if (now <= start_) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now - start_)
          .count());
}

void Trace::Phase(const std::string& name, TraceTime now) {
  const uint64_t at = MicrosSinceStart(now);
  MutexLock lock(mu_);
  if (finished_) return;
  if (open_phase_) {
    if (spans_.size() < kMaxSpans) {
      TraceSpan span;
      span.name = phase_name_;
      span.start_micros = phase_start_micros_;
      span.end_micros = at;
      span.note = phase_note_;
      spans_.push_back(std::move(span));
    } else {
      ++dropped_;
    }
  }
  open_phase_ = true;
  phase_name_ = name;
  phase_note_.clear();
  phase_start_micros_ = at;
}

void Trace::Mark(const std::string& name, const std::string& note,
                 TraceTime now) {
  const uint64_t at = MicrosSinceStart(now);
  MutexLock lock(mu_);
  if (finished_) return;
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  TraceSpan mark;
  mark.name = name;
  mark.start_micros = at;
  mark.end_micros = at;
  mark.note = note;
  spans_.push_back(std::move(mark));
}

void Trace::AnnotatePhase(const std::string& note) {
  MutexLock lock(mu_);
  if (finished_ || !open_phase_) return;
  phase_note_ = note;
}

void Trace::Finish(const std::string& outcome, TraceTime now) {
  const uint64_t at = MicrosSinceStart(now);
  MutexLock lock(mu_);
  if (finished_) return;
  if (open_phase_) {
    if (spans_.size() < kMaxSpans) {
      TraceSpan span;
      span.name = phase_name_;
      span.start_micros = phase_start_micros_;
      span.end_micros = at;
      span.note = phase_note_;
      spans_.push_back(std::move(span));
    } else {
      ++dropped_;
    }
    open_phase_ = false;
  }
  finished_ = true;
  outcome_ = outcome;
  total_micros_ = at;
}

bool Trace::finished() const {
  MutexLock lock(mu_);
  return finished_;
}

std::string Trace::outcome() const {
  MutexLock lock(mu_);
  return outcome_;
}

uint64_t Trace::total_micros() const {
  MutexLock lock(mu_);
  return total_micros_;
}

std::vector<TraceSpan> Trace::spans() const {
  MutexLock lock(mu_);
  return spans_;
}

size_t Trace::dropped_spans() const {
  MutexLock lock(mu_);
  return dropped_;
}

std::string Trace::ToString() const {
  MutexLock lock(mu_);
  std::ostringstream out;
  out << "trace#" << id_;
  if (finished_) {
    out << " outcome=" << outcome_ << " total=" << total_micros_ << "us";
  } else {
    out << " (running)";
  }
  // Spans are stored in the order they closed, so a phase lands after
  // the marks inside it. Print by start time instead, the enclosing
  // (longer) span first on ties; the open phase has no end yet.
  std::vector<const TraceSpan*> order;
  order.reserve(spans_.size());
  for (const TraceSpan& span : spans_) order.push_back(&span);
  std::stable_sort(order.begin(), order.end(),
                   [](const TraceSpan* a, const TraceSpan* b) {
                     if (a->start_micros != b->start_micros) {
                       return a->start_micros < b->start_micros;
                     }
                     return a->end_micros > b->end_micros;
                   });
  bool open_printed = !open_phase_;
  for (const TraceSpan* span : order) {
    if (!open_printed && span->start_micros >= phase_start_micros_) {
      out << "\n  [" << phase_start_micros_ << "..us] " << phase_name_
          << " (open)";
      open_printed = true;
    }
    out << "\n  [" << span->start_micros << ".." << span->end_micros << "us] "
        << span->name;
    if (!span->note.empty()) out << " (" << span->note << ")";
  }
  if (!open_printed) {
    out << "\n  [" << phase_start_micros_ << "..us] " << phase_name_
        << " (open)";
  }
  if (dropped_ > 0) out << "\n  (+" << dropped_ << " spans dropped)";
  return out.str();
}

std::shared_ptr<Trace> Tracer::MaybeTrace(TraceTime now) {
  const uint64_t every = sample_every_.load(std::memory_order_relaxed);
  if (every == 0) return nullptr;
  const uint64_t n = seen_.fetch_add(1, std::memory_order_relaxed);
  if (n % every != 0) return nullptr;
  sampled_.fetch_add(1, std::memory_order_relaxed);
  return std::make_shared<Trace>(
      next_id_.fetch_add(1, std::memory_order_relaxed), now);
}

}  // namespace obs
}  // namespace relcomp
