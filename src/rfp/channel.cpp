#include "rfp/channel.hpp"

#include <algorithm>
#include <cstring>

#include "simnet/cpu.hpp"
#include "ucr/endpoint.hpp"

namespace rmc::rfp {

namespace ucrp = mc::ucrp;

namespace {

/// Local response-poll interval (client CPU is idle-waiting anyway). A
/// tick that finds the slot empty costs no event (the scheduler's poll
/// lane), so this only sets where in sim time a landed response is seen.
constexpr sim::Time kPollNs = 200;
/// CPU cost of framing a request into the staging slot.
constexpr sim::Time kRequestBuildNs = 300;

}  // namespace

Channel::Channel(ucr::Runtime& runtime, sim::Host& host, ChannelConfig config)
    : runtime_(&runtime), host_(&host), config_(config),
      bootstrap_call_(runtime, kMsgRfpBootstrap, kMsgRfpBootstrapResp),
      ops_(&obs::registry().counter("mc.rfp.ops")),
      fallbacks_(&obs::registry().counter("mc.rfp.fallbacks")),
      ring_full_(&obs::registry().counter("mc.rfp.ring_full")),
      oversize_(&obs::registry().counter("mc.rfp.oversize")),
      torn_retries_(&obs::registry().counter("mc.rfp.torn_retries")) {
  config_.slot_count = std::max(1u, config_.slot_count);
  config_.slot_size = std::max<std::uint32_t>(
      config_.slot_size,
      static_cast<std::uint32_t>(ucr::framed_size(ucrp::ResponseHeader::kSize)));
  down_handler_id_ = runtime_->on_endpoint_down([this](ucr::Endpoint& ep, Errc) {
    if (ep_ == &ep) invalidate();
  });
}

Channel::~Channel() { runtime_->remove_endpoint_handler(down_handler_id_); }

void Channel::invalidate() {
  ep_ = nullptr;
  descriptor_ = {};
}

std::span<std::byte> Channel::request_slot(std::uint32_t slot) {
  return {request_staging_.data() +
              static_cast<std::size_t>(slot) * descriptor_.slot_size,
          descriptor_.slot_size};
}

std::span<std::byte> Channel::response_slot(std::uint32_t slot) const {
  return {response_arena_.data() +
              static_cast<std::size_t>(slot) * descriptor_.slot_size,
          descriptor_.slot_size};
}

sim::Task<Status> Channel::bootstrap(ucr::Endpoint& ep, sim::Time timeout) {
  if (ready() && ep_ == &ep) co_return Status{};
  if (ep.state() != ucr::EpState::ready || ep.type() != ucr::EpType::reliable) {
    co_return Errc::disconnected;
  }
  invalidate();

  // Size both arenas for the proposal; the server may clamp the geometry
  // down, in which case the tail of each arena simply goes unused.
  const std::size_t arena_bytes =
      static_cast<std::size_t>(config_.slot_count) * config_.slot_size;
  // Both start zeroed, also on a re-bootstrap: a stale frame of the old
  // epoch that carries a reused seq must not read as ready. The arenas
  // keep their addresses, so their registrations still hold.
  response_arena_.assign_zeroed(arena_bytes);
  request_staging_.assign_zeroed(arena_bytes);
  runtime_->register_region(request_staging_.span());

  const RingProposal proposal{.response_ring = runtime_->expose_memory(response_arena_.span()),
                              .slot_count = config_.slot_count,
                              .slot_size = config_.slot_size};
  auto reply = co_await bootstrap_call_.call(ep, std::as_bytes(std::span(&proposal, 1)),
                                             timeout);
  if (!reply.ok()) co_return reply.error();
  RingDescriptor descriptor;
  if (reply->size() != sizeof(descriptor)) co_return Errc::protocol_error;
  std::memcpy(&descriptor, reply->data(), sizeof(descriptor));
  // Adopted geometry must fit the arenas we shipped a window for.
  if (!descriptor.valid() ||
      static_cast<std::size_t>(descriptor.slot_count) * descriptor.slot_size > arena_bytes) {
    co_return Errc::protocol_error;
  }

  descriptor_ = descriptor;
  slots_.assign(descriptor_.slot_count, Slot{});
  ++slots_epoch_;
  busy_slots_ = 0;
  ep_ = &ep;
  last_traffic_ = runtime_->scheduler().now();
  co_return Status{};
}

void Channel::reclaim_lost() {
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    if (s.state != SlotState::lost) continue;
    std::span<const std::byte> body;
    if (ucr::read_frame(response_slot(i), s.seq, body) == ucr::FrameState::ready) {
      // The abandoned op's response finally landed: its epoch is closed
      // and the slot can carry a new op.
      s.seq += 1;
      s.state = SlotState::free;
    }
  }
}

std::uint32_t Channel::claim_slot() {
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].state == SlotState::free) {
      slots_[i].state = SlotState::busy;
      ++busy_slots_;
      return i;
    }
  }
  return descriptor_.slot_count;
}

bool Channel::response_pending(sim::Scheduler& sched, sim::Scheduler::PollNode& node) {
  const auto& wait = static_cast<const ResponseWait&>(node);
  const Channel& channel = *wait.channel;
  return channel.serving(wait) &&
         ucr::frame_seq(channel.response_slot(wait.slot)) != wait.op_epoch &&
         sched.now() < wait.deadline;
}

void Channel::release(std::uint32_t slot) {
  if (slot >= slots_.size() || slots_[slot].state != SlotState::busy) return;
  slots_[slot].seq += 1;
  slots_[slot].state = SlotState::free;
  --busy_slots_;
}

sim::Task<Result<OpResult>> Channel::execute(ucr::Endpoint& ep, ucrp::RequestHeader hdr,
                                             std::span<const std::byte> head,
                                             std::span<const std::byte> tail,
                                             sim::Time timeout) {
  ops_->inc();
  hdr.key_len = static_cast<std::uint16_t>(head.size());
  if (!ready() || ep_ != &ep || ep.state() != ucr::EpState::ready) {
    fallbacks_->inc();
    co_return Errc::disconnected;
  }
  const std::size_t body_len = ucrp::RequestHeader::kSize + head.size() + tail.size();
  if (body_len > ucr::body_capacity(descriptor_.slot_size)) {
    oversize_->inc();
    fallbacks_->inc();
    co_return Errc::too_large;
  }
  reclaim_lost();
  const std::uint32_t slot = claim_slot();
  if (slot == descriptor_.slot_count) {
    ring_full_->inc();
    fallbacks_->inc();
    co_return Errc::no_resources;
  }
  ResponseWait wait;
  wait.idle = &Channel::response_pending;
  wait.channel = this;
  wait.ep = &ep;
  wait.generation = slots_epoch_;
  wait.slot = slot;
  auto abandon = [&](SlotState next) {
    if (slots_epoch_ == wait.generation && slots_[slot].state == SlotState::busy) {
      slots_[slot].state = next;
      --busy_slots_;
    }
    fallbacks_->inc();
  };

  sim::Scheduler& sched = runtime_->scheduler();
  // The server's poll loop parks after park_after_ns of idleness; if our
  // own send gap is anywhere near that, nudge it awake first. A lost
  // nudge degrades to this op's timeout + RPC fallback, never a hang.
  if (descriptor_.park_after_ns != 0 &&
      sched.now() - last_traffic_ >=
          static_cast<sim::Time>(descriptor_.park_after_ns / 2)) {
    const std::byte wake[kWakeBodySize]{};
    (void)runtime_->send_message(ep, kMsgRfpWake, wake, {}, nullptr,
                                 ucr::CounterRef{}, nullptr);
  }
  last_traffic_ = sched.now();

  co_await host_->cpu().consume(kRequestBuildNs);
  if (!serving(wait)) {
    abandon(SlotState::free);
    co_return Errc::disconnected;
  }

  wait.op_epoch = slots_[slot].seq;
  const std::span<std::byte> staging = request_slot(slot);
  const std::span<std::byte> body = ucr::frame_body(staging);
  hdr.encode(body.data());
  if (!head.empty()) {
    std::memcpy(body.data() + ucrp::RequestHeader::kSize, head.data(), head.size());
  }
  if (!tail.empty()) {
    std::memcpy(body.data() + ucrp::RequestHeader::kSize + head.size(), tail.data(),
                tail.size());
  }
  ucr::seal_frame(staging, wait.op_epoch, static_cast<std::uint32_t>(body_len));

  auto posted = runtime_->put(
      ep, staging.first(ucr::framed_size(body_len)),
      descriptor_.request_ring, slot * descriptor_.slot_size, nullptr);
  if (!posted.ok()) {
    // Never went out: the slot's seq is untouched and reusable.
    abandon(SlotState::free);
    co_return Errc::disconnected;
  }

  if (timeout != sim::kNoTimeout) wait.deadline = sched.now() + timeout;
  std::uint32_t torn_seen = 0;
  for (;;) {
    if (!serving(wait)) {
      abandon(SlotState::lost);
      co_return Errc::disconnected;
    }
    std::span<const std::byte> resp_body;
    switch (ucr::read_frame(response_slot(slot), wait.op_epoch, resp_body)) {
      case ucr::FrameState::ready: {
        if (resp_body.size() < ucrp::ResponseHeader::kSize) {
          // Verified but malformed — server bug, not a race. Epoch is
          // closed, so free the slot and fall back.
          release(slot);
          fallbacks_->inc();
          co_return Errc::protocol_error;
        }
        OpResult out;
        out.header = ucrp::ResponseHeader::decode(resp_body.data());
        if (out.header.status == ucrp::RStatus::rerun) {
          // The answer did not fit one response slot: re-run over RPC.
          release(slot);
          fallbacks_->inc();
          co_return Errc::no_resources;
        }
        out.body = resp_body.subspan(ucrp::ResponseHeader::kSize);
        out.slot = slot;
        co_return out;
      }
      case ucr::FrameState::torn:
        torn_retries_->inc();
        if (++torn_seen > config_.max_torn_retries) {
          abandon(SlotState::lost);
          co_return Errc::protocol_error;
        }
        break;
      case ucr::FrameState::empty:
        break;
    }
    if (sched.now() >= wait.deadline) {
      // The response may still land later; quarantine the slot until
      // reclaim_lost sees its seq close.
      abandon(SlotState::lost);
      co_return Errc::timed_out;
    }
    co_await sched.poll(wait, kPollNs);
  }
}

}  // namespace rmc::rfp
