// Schedule exploration over the discrete-event scheduler (DESIGN.md §17).
//
// The simulator's pinned default — same-timestamp events fire in insertion
// order — makes every run reproducible but explores exactly ONE of the
// schedules a real machine could exhibit. ScheduleExplorer is a TieBreaker
// that walks the others:
//
//   insertion    pick() always returns 0: byte-identical to the default
//                schedule (the mode figure benchmarks may install to prove
//                tie-breaker neutrality).
//   permutation  seeded-random choice at every genuine tie: one alternative
//                schedule per seed, reproducible from the seed alone.
//   exhaustive   stateless model checking: depth-first enumeration of every
//                same-timestamp dispatch decision, replaying a decision
//                prefix against a freshly built world per schedule.
//   replay       follow a recorded trace (from a failing permutation seed
//                or an exhaustive counterexample) decision for decision.
//
// Invariant checks registered with add_invariant() run after every
// dispatched event on every schedule; the first violation is recorded with
// the decision trace that produced it, so any failure is replayable.
//
// The exhaustive driver only records decision points with fanout > 1, so
// the tree size is the product of genuine race fanouts, not event count.
// Scenarios must be deterministic given the decision sequence (pure simnet
// worlds are; anything touching wall clock or global RNG state is not).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "simnet/scheduler.hpp"

namespace rmc::sim {

enum class ExploreMode : std::uint8_t {
  insertion,    ///< default order; never diverges, never records
  permutation,  ///< seeded-random pick at each tie
  exhaustive,   ///< DFS over all decision prefixes (use explore())
  replay,       ///< follow a fixed trace, then insertion order
};

struct ExploreReport {
  std::size_t schedules = 0;      ///< complete schedules executed
  std::size_t decisions = 0;      ///< total fanout>1 decision points seen
  std::size_t max_depth = 0;      ///< deepest decision prefix reached
  bool exhausted = false;         ///< true iff the full bounded tree was walked
  bool truncated_runs = false;    ///< some run hit the per-run decision bound
  std::string failed_invariant;   ///< empty iff every schedule held
  std::vector<std::uint32_t> failing_trace;  ///< decisions reproducing it
};

class ScheduleExplorer final : public TieBreaker {
 public:
  /// Insertion mode (the byte-identical default schedule).
  ScheduleExplorer() = default;

  static ScheduleExplorer permutation(std::uint64_t seed);
  static ScheduleExplorer exhaustive();
  static ScheduleExplorer replay(std::vector<std::uint32_t> trace);

  ExploreMode mode() const { return mode_; }

  // TieBreaker interface -----------------------------------------------
  std::size_t pick(Time t, std::size_t ready) override;
  void after_dispatch(Time t) override;

  // Invariants ----------------------------------------------------------
  /// `check` runs after every dispatched event; returning false records
  /// `name` and the current decision trace as the failure (first wins).
  void add_invariant(std::string name, std::function<bool()> check);
  void clear_invariants();
  bool failed() const { return !failed_invariant_.empty(); }
  const std::string& failed_invariant() const { return failed_invariant_; }

  // Per-run bookkeeping -------------------------------------------------
  /// Reset per-schedule state (trace, failure flag, RNG for permutation
  /// mode is NOT reset — use reseed()). Call before each manual run.
  void begin_run();
  /// Re-seed permutation mode so a run can be reproduced exactly.
  void reseed(std::uint64_t seed);
  /// Decisions taken this run (only fanout>1 points; replay input format).
  const std::vector<std::uint32_t>& trace() const { return trace_; }
  /// Disable trace recording (large permutation smokes; traces of multi-
  /// million-event runs are not useful and not free).
  void set_trace_recording(bool on) { record_trace_ = on; }

  // Exhaustive driver ---------------------------------------------------
  /// Enumerate schedules of `scenario` depth-first. The scenario must
  /// build a FRESH world per call, install *this on its scheduler (or
  /// call Scheduler::set_tie_breaker itself), and run to quiescence.
  /// Only valid in exhaustive mode.
  ExploreReport explore(const std::function<void(ScheduleExplorer&)>& scenario);

 private:
  struct Decision {
    std::uint32_t choice = 0;
    std::uint32_t fanout = 0;
  };

  ExploreMode mode_ = ExploreMode::insertion;
  Rng rng_;
  bool record_trace_ = true;

  // One-run state.
  std::vector<std::uint32_t> trace_;
  std::size_t cursor_ = 0;  ///< next decision index (exhaustive/replay)
  bool run_truncated_ = false;
  std::string failed_invariant_;
  std::vector<std::uint32_t> failing_trace_;

  // Exhaustive DFS state: the decision prefix steering the current run.
  std::vector<Decision> path_;
  std::size_t nodes_created_ = 0;

  std::vector<std::pair<std::string, std::function<bool()>>> invariants_;
};

}  // namespace rmc::sim
