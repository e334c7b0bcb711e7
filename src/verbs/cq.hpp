// Completion queue.
//
// The HCA pushes WorkCompletions; the application drains them either by
// polling (poll(), next() with CqMode::polling — the paper's low-latency
// choice) or in event-driven mode, where every wake-up pays the interrupt
// and context-switch cost like ibv_req_notify_cq + epoll would.
#pragma once

#include <optional>

#include "obs/metrics.hpp"
#include "simnet/channel.hpp"
#include "simnet/cpu.hpp"
#include "simnet/scheduler.hpp"
#include "simnet/task.hpp"
#include "verbs/types.hpp"

namespace rmc::verbs {

class CompletionQueue {
 public:
  CompletionQueue(sim::Scheduler& sched, sim::CpuResource& cpu, CqMode mode)
      : sched_(&sched),
        cpu_(&cpu),
        mode_(mode),
        entries_(sched),
        polls_metric_(&obs::registry().counter("verbs.cq.polls")),
        completions_metric_(&obs::registry().counter("verbs.cq.completions")) {}

  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  CqMode mode() const { return mode_; }

  /// Non-blocking poll; charges the per-completion poll cost on a hit.
  std::optional<WorkCompletion> poll() {
    polls_metric_->inc();
    auto wc = entries_.try_recv();
    if (wc) cpu_->reserve(kPollCqNs);
    return wc;
  }

  /// Await the next completion. In polling mode the waiter wakes the
  /// instant the completion is generated (busy-poll, burning a core is not
  /// modeled as added latency); in event mode the interrupt cost is added.
  sim::Task<WorkCompletion> next() {
    polls_metric_->inc();
    auto wc = co_await entries_.recv();
    // The channel is never closed while the CQ lives.
    if (mode_ == CqMode::event_driven) {
      co_await sched_->delay(kInterruptNs);
    }
    cpu_->reserve(kPollCqNs);
    co_return *wc;
  }

  /// Polling-mode batch path for progress loops: drain a completion that
  /// has already been delivered, without going through the awaitable
  /// machinery. Charges exactly the cost sequence next() would (one poll
  /// count, one poll_cq reservation), so draining N queued completions via
  /// one next() + N-1 of these is sim-time-identical to N next() calls.
  /// Returns nullopt in event-driven mode: the interrupt cost must be paid
  /// per completion, so callers fall back to next().
  std::optional<WorkCompletion> try_next_ready() {
    if (mode_ != CqMode::polling) return std::nullopt;
    auto wc = entries_.try_recv();
    if (!wc) return std::nullopt;
    polls_metric_->inc();
    cpu_->reserve(kPollCqNs);
    return wc;
  }

  /// HCA side: deliver a completion.
  void push(WorkCompletion wc) {
    completions_metric_->inc();
    entries_.send(wc);
  }

  std::size_t depth() const { return entries_.size(); }

 private:
  sim::Scheduler* sched_;
  sim::CpuResource* cpu_;
  CqMode mode_;
  sim::Channel<WorkCompletion> entries_;
  obs::Counter* polls_metric_;        ///< verbs.cq.polls
  obs::Counter* completions_metric_;  ///< verbs.cq.completions
};

}  // namespace rmc::verbs
