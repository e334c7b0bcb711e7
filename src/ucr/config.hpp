// UCR configuration knobs.
#pragma once

#include <cstdint>

#include "simnet/time.hpp"

namespace rmc::ucr {

struct UcrConfig {
  /// Messages whose header+data fit one network buffer go out in a single
  /// transaction and are memcpy'd at the target (§V "Note on Small Set/Get
  /// operations": 8 KB). Larger messages use the rendezvous path: header
  /// only, then the target RDMA-reads the data.
  std::uint32_t eager_limit = 8192;

  /// Pre-posted receive buffers in the shared receive queue (SRQ design
  /// inherited from MVAPICH, [11]).
  std::uint32_t recv_buffers = 1024;

  /// Credit window per endpoint: max eager messages in flight towards a
  /// peer before the sender's backlog queue kicks in. A receiver returns
  /// credits explicitly once half the window is owed (otherwise they
  /// piggyback on reverse traffic).
  std::uint32_t credits_per_ep = 32;

  /// Completion detection: false = busy-polling CQs (the paper's choice,
  /// §II-A1), true = event-driven with interrupt cost per completion
  /// (exposed for the ablation benchmark).
  bool event_driven_cq = false;

  /// Keepalive probe interval for reliable endpoints; an endpoint silent
  /// for 4 intervals is declared dead. 0 (default) disables the prober
  /// entirely — note that a non-zero interval keeps a perpetual task
  /// alive, so drivers must use run_until, not run().
  sim::Time keepalive_interval = 0;
};

}  // namespace rmc::ucr
