#include "sim/simulator.hpp"

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

namespace ares::sim {
namespace {
// Every simulator alive on this thread plus the active ScopedCurrent
// guards, oldest first. current() is the newest entry, so destroying
// simulators in any order never leaves it pointing at a destroyed one.
// `t_current` caches the back entry: coroutine resumption reads it on
// every hop.
thread_local std::vector<Simulator*> t_live;
thread_local Simulator* t_current = nullptr;

void refresh_current() { t_current = t_live.empty() ? nullptr : t_live.back(); }

void forget(Simulator* s) {
  t_live.erase(std::remove(t_live.begin(), t_live.end(), s), t_live.end());
  refresh_current();
}
}  // namespace

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {
  t_live.push_back(this);
  t_current = this;
}

Simulator::~Simulator() { forget(this); }

Simulator* Simulator::current() { return t_current; }

Simulator::ScopedCurrent::ScopedCurrent(Simulator& s) : sim_(&s) {
  t_live.push_back(&s);
  t_current = &s;
}

Simulator::ScopedCurrent::~ScopedCurrent() {
  // Drop this guard's entry only (the newest one naming sim_); a no-op if
  // the simulator itself was destroyed inside the scope.
  auto it = std::find(t_live.rbegin(), t_live.rend(), sim_);
  if (it != t_live.rend()) t_live.erase(std::next(it).base());
  refresh_current();
}

void Simulator::post(std::function<void()> action) {
  queue_.push(now_, std::move(action));
}

void Simulator::schedule_after(SimDuration delay,
                               std::function<void()> action) {
  queue_.push(now_ + delay, std::move(action));
}

void Simulator::schedule_at(SimTime at, std::function<void()> action) {
  queue_.push(at < now_ ? now_ : at, std::move(action));
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  now_ = queue_.next_time();
  auto action = queue_.pop();
  ++executed_;
  action();
  return true;
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

bool Simulator::run_until(const std::function<bool()>& done,
                          std::size_t max_events) {
  if (done()) return true;
  std::size_t n = 0;
  while (n < max_events && step()) {
    ++n;
    if (done()) return true;
  }
  return false;
}

void Simulator::run_for(SimDuration duration, std::size_t max_events) {
  const SimTime deadline = now_ + duration;
  std::size_t n = 0;
  while (n < max_events && !queue_.empty() && queue_.next_time() <= deadline) {
    step();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
}

}  // namespace ares::sim
