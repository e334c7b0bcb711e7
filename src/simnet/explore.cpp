#include "simnet/explore.hpp"

#include <algorithm>
#include <utility>

namespace rmc::sim {

namespace {
/// Bounds of exhaustive enumeration. Decisions past the per-run bound fall
/// back to insertion order and are not branched on (bounded-exhaustive);
/// the DFS stops after the schedule bound.
constexpr std::size_t kMaxSchedules = 1u << 20;
constexpr std::size_t kMaxDecisionsPerRun = 64;
}  // namespace

ScheduleExplorer ScheduleExplorer::permutation(std::uint64_t seed) {
  ScheduleExplorer e;
  e.mode_ = ExploreMode::permutation;
  e.rng_ = Rng(seed);
  return e;
}

ScheduleExplorer ScheduleExplorer::exhaustive() {
  ScheduleExplorer e;
  e.mode_ = ExploreMode::exhaustive;
  return e;
}

ScheduleExplorer ScheduleExplorer::replay(std::vector<std::uint32_t> trace) {
  ScheduleExplorer e;
  e.mode_ = ExploreMode::replay;
  e.trace_ = std::move(trace);
  return e;
}

void ScheduleExplorer::reseed(std::uint64_t seed) { rng_ = Rng(seed); }

void ScheduleExplorer::add_invariant(std::string name, std::function<bool()> check) {
  // rmclint:allow(zeroalloc): exploration harness setup, never on the default schedule
  invariants_.emplace_back(std::move(name), std::move(check));
}

void ScheduleExplorer::clear_invariants() { invariants_.clear(); }

void ScheduleExplorer::begin_run() {
  if (mode_ != ExploreMode::replay) trace_.clear();
  cursor_ = 0;
  run_truncated_ = false;
  failed_invariant_.clear();
  failing_trace_.clear();
}

std::size_t ScheduleExplorer::pick(Time t, std::size_t ready) {
  (void)t;
  switch (mode_) {
    case ExploreMode::insertion:
      return 0;
    case ExploreMode::permutation: {
      const auto choice = static_cast<std::uint32_t>(rng_.below(ready));
      // rmclint:allow(zeroalloc): trace bookkeeping only runs when an explorer is installed
      if (record_trace_) trace_.push_back(choice);
      return choice;
    }
    case ExploreMode::replay: {
      if (cursor_ >= trace_.size()) return 0;
      const std::uint32_t want = trace_[cursor_++];
      return std::min<std::size_t>(want, ready - 1);
    }
    case ExploreMode::exhaustive: {
      if (cursor_ >= kMaxDecisionsPerRun) {
        // Bounded-exhaustive: past the decision budget, fall back to the
        // default order without branching. The DFS tree stays finite.
        run_truncated_ = true;
        return 0;
      }
      if (cursor_ == path_.size()) {
        // rmclint:allow(zeroalloc): DFS bookkeeping, exhaustive mode only — off the hot path
        path_.push_back(Decision{0, static_cast<std::uint32_t>(ready)});
        ++nodes_created_;
      }
      Decision& d = path_[cursor_];
      if (d.fanout != ready && failed_invariant_.empty()) {
        // A replayed prefix must reproduce the same races; if the fanout
        // drifts, the scenario depends on state outside the decisions.
        failed_invariant_ = "nondeterministic-scenario";
        failing_trace_ = trace_;
      }
      const std::size_t choice = std::min<std::size_t>(d.choice, ready - 1);
      ++cursor_;
      // rmclint:allow(zeroalloc): decision trace for counterexample replay, exhaustive mode only
      trace_.push_back(static_cast<std::uint32_t>(choice));
      return choice;
    }
  }
  return 0;
}

void ScheduleExplorer::after_dispatch(Time t) {
  (void)t;
  if (!failed_invariant_.empty()) return;
  for (const auto& [name, check] : invariants_) {
    if (!check()) {
      failed_invariant_ = name;
      failing_trace_ = trace_;
      return;
    }
  }
}

ExploreReport ScheduleExplorer::explore(
    const std::function<void(ScheduleExplorer&)>& scenario) {
  ExploreReport report;
  path_.clear();
  nodes_created_ = 0;
  for (;;) {
    begin_run();
    scenario(*this);
    ++report.schedules;
    report.max_depth = std::max(report.max_depth, path_.size());
    if (run_truncated_) report.truncated_runs = true;
    if (!failed_invariant_.empty()) {
      report.failed_invariant = failed_invariant_;
      report.failing_trace = failing_trace_;
      break;  // first counterexample wins; its trace replays it
    }
    // Backtrack: drop exhausted suffixes, advance the deepest live choice.
    while (!path_.empty() && path_.back().choice + 1 >= path_.back().fanout) {
      path_.pop_back();
    }
    if (path_.empty()) {
      report.exhausted = true;
      break;
    }
    ++path_.back().choice;
    if (report.schedules >= kMaxSchedules) break;
  }
  report.decisions = nodes_created_;
  return report;
}

}  // namespace rmc::sim
