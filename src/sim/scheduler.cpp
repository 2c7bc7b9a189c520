#include "sim/scheduler.hpp"

#include <algorithm>
#include <cassert>

namespace sos::sim {

EventId Scheduler::schedule_at(util::SimTime t, EventFn fn) {
  if (t < now_) t = now_;  // never schedule into the past
  EventId id = next_id_++;
  // kInvalidEventId must stay unmintable or every `event_ != kInvalidEventId`
  // armed-check in the middleware silently breaks (reachable only after a
  // 2^64 id wraparound, i.e. never in practice — hence an assert, not a throw).
  assert(id != kInvalidEventId && "EventId counter wrapped onto the sentinel");
  queue_.push_back(Event{t, id, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  queued_.insert(id);
  return id;
}

EventId Scheduler::schedule_in(util::SimTime dt, EventFn fn) {
  return schedule_at(now_ + dt, std::move(fn));
}

void Scheduler::cancel(EventId id) {
  // Only remember cancellations for events still in the queue; a stale id
  // (already fired or already cancelled) must not accumulate forever.
  if (queued_.count(id) > 0) cancelled_.insert(id);
}

bool Scheduler::step() {
  while (!queue_.empty()) {
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    Event ev = std::move(queue_.back());
    queue_.pop_back();
    queued_.erase(ev.id);
    if (cancelled_.erase(ev.id) > 0) continue;
    now_ = ev.at;
    ev.fn();
    return true;
  }
  return false;
}

void Scheduler::run_until(util::SimTime t) {
  while (!queue_.empty()) {
    const Event& top = queue_.front();
    // Discard cancelled heads here rather than via step(): step() skips
    // cancelled events internally and would otherwise run the next LIVE
    // event even when it lies beyond t.
    if (cancelled_.erase(top.id) > 0) {
      queued_.erase(top.id);
      std::pop_heap(queue_.begin(), queue_.end(), Later{});
      queue_.pop_back();
      continue;
    }
    if (top.at > t) break;
    step();
  }
  if (now_ < t) now_ = t;
}

void Scheduler::run_all() {
  while (step()) {
  }
}

}  // namespace sos::sim
