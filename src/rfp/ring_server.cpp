#include "rfp/ring_server.hpp"

#include <algorithm>
#include <cstring>

#include "obs/profiler.hpp"
#include "simnet/time.hpp"

namespace rmc::rfp {

namespace ucrp = mc::ucrp;

namespace {

const std::uint16_t kProfPoll =
    obs::profiler().register_scope("prof.mc.rfp.poll", obs::ScopeKind::engine);
const std::uint16_t kProfExecute =
    obs::profiler().register_scope("prof.mc.rfp.execute", obs::ScopeKind::payload);

/// Geometry ceilings: a client's proposed ring is clamped to these.
constexpr std::uint32_t kMaxSlotCount = 64;
constexpr std::uint32_t kMaxSlotSize = 8192;
static_assert(ucr::body_capacity(kMaxSlotSize) >= ucrp::ResponseHeader::kSize);

/// Adaptive poll interval: spin at the min while busy, back off x2 per
/// empty sweep toward the max. The max is deliberately tight — pickup lag
/// is bounded by it, and a closed-loop client would otherwise phase-lock
/// against a coarse interval and eat it on every op; parking (not
/// backoff) is what makes a truly idle ring free.
constexpr sim::Time kPollMinNs = 200;
constexpr sim::Time kPollMaxNs = 400;

/// CPU costs: one sweep over the rings, and the decode of one verified
/// frame. The op itself is billed the server's mc::McCosts.
constexpr sim::Time kPollSweepNs = 80;
constexpr sim::Time kRequestNs = 250;

std::span<std::byte> slot_span(const PageBuffer& buf, std::uint32_t slot,
                               std::uint32_t slot_size) {
  return {buf.data() + static_cast<std::size_t>(slot) * slot_size, slot_size};
}

}  // namespace

RingServer::RingServer(ucr::Runtime& runtime, sim::Host& host, mc::Server& server,
                       RingServerConfig config)
    : runtime_(&runtime), host_(&host), server_(&server), config_(config),
      bootstraps_(&obs::registry().counter("mc.rfp.bootstraps")),
      wakes_(&obs::registry().counter("mc.rfp.wakes")),
      torn_frames_(&obs::registry().counter("mc.rfp.torn_frames")),
      sweeps_(&obs::registry().counter("mc.rfp.poll.sweeps")),
      frames_(&obs::registry().counter("mc.rfp.poll.frames")),
      parks_(&obs::registry().counter("mc.rfp.poll.parks")) {
  ready_slots_.reserve(kMaxSlotCount);
  ready_lens_.reserve(kMaxSlotCount);

  ucr::serve_bootstrap(
      *runtime_, kMsgRfpBootstrap, kMsgRfpBootstrapResp,
      [this](ucr::Endpoint& ep, std::span<const std::byte> request,
             std::span<std::byte> reply) {
        RingProposal proposal;  // a short request proposes nothing usable
        if (request.size() >= sizeof(proposal)) {
          std::memcpy(&proposal, request.data(), sizeof(proposal));
        }
        const RingDescriptor descriptor = on_bootstrap(ep, proposal);
        std::memcpy(reply.data(), &descriptor, sizeof(descriptor));
        return sizeof(descriptor);
      });
  runtime_->register_handler(
      kMsgRfpWake,
      {.on_header = {},
       .on_complete = [this](ucr::Endpoint&, std::span<const std::byte>,
                             std::span<std::byte>) {
        wakes_->inc();
        ensure_polling();
      }});
  down_handler_id_ = runtime_->on_endpoint_down([this](ucr::Endpoint& ep, Errc) {
    auto it = rings_.find(ep.id());
    if (it == rings_.end() || it->second == nullptr) return;
    it->second->ep = nullptr;  // dead: skipped by the sweep in progress
    graveyard_.push_back(std::move(it->second));
    // The null entry stays behind as a tombstone: poll_loop may be
    // suspended mid-iteration over rings_, so handlers never erase map
    // nodes — the sweep top reaps tombstones in straight-line code.
  });
}

RingServer::~RingServer() { runtime_->remove_endpoint_handler(down_handler_id_); }

RingDescriptor RingServer::on_bootstrap(ucr::Endpoint& ep, const RingProposal& req) {
  RingDescriptor resp;
  const std::uint32_t slot_count =
      std::min(std::max(1u, req.slot_count), kMaxSlotCount);
  const std::uint32_t slot_size = std::min(req.slot_size, kMaxSlotSize);
  const std::uint64_t span_bytes =
      static_cast<std::uint64_t>(slot_count) * slot_size;
  // Geometry sanity: the response arena must cover the clamped ring and
  // slots must frame at least a bare response. An unusable proposal gets
  // a zeroed (invalid) descriptor back — the client stays on classic RPC.
  const bool usable = ucr::body_capacity(slot_size) >= ucrp::ResponseHeader::kSize &&
                      req.response_ring.length >= span_bytes &&
                      ep.type() == ucr::EpType::reliable;
  if (usable) {
    auto ring = std::make_unique<ClientRing>();
    ring->ep = &ep;
    ring->slot_count = slot_count;
    ring->slot_size = slot_size;
    // Fresh mappings: every slot of a new ring reads as zero, so no stale
    // frame of an earlier ring for this endpoint can read as ready.
    ring->ring = PageBuffer(span_bytes);
    ring->staging = PageBuffer(span_bytes);
    // rmclint:allow(seqlock-discipline): fresh ring — no client holds its epochs yet,
    // so initializing every slot to epoch 1 cannot race a reader.
    ring->expected_seq.assign(slot_count, 1);
    ring->request_window = runtime_->expose_memory(ring->ring.span());
    runtime_->register_region(ring->staging.span());
    ring->response_window = req.response_ring;

    resp.request_ring = ring->request_window;
    resp.slot_count = slot_count;
    resp.slot_size = slot_size;
    resp.park_after_ns = static_cast<std::uint64_t>(config_.park_after_ns);

    auto [it, inserted] = rings_.try_emplace(ep.id());
    if (it->second != nullptr) {
      // Re-bootstrap on a live endpoint: retire the old ring via the
      // graveyard so an in-flight sweep never touches freed memory. The
      // map node is reused in place, never erased here — poll_loop may
      // be suspended mid-iteration over rings_.
      it->second->ep = nullptr;
      graveyard_.push_back(std::move(it->second));
    }
    it->second = std::move(ring);
    bootstraps_->inc();
    ensure_polling();
  }
  return resp;
}

void RingServer::ensure_polling() {
  if (poll_running_ || rings_.empty()) return;
  poll_running_ = true;
  runtime_->scheduler().spawn(poll_loop());
}

void RingServer::release_slot(ClientRing& ring, std::uint32_t slot) {
  // Blessed epoch advance (see header). The client's next request in this
  // slot must carry seq == expected_seq to verify as ready.
  ring.expected_seq[slot] += 1;
}

sim::Task<> RingServer::poll_loop() {
  sim::Scheduler& sched = runtime_->scheduler();
  sim::Time interval = kPollMinNs;
  sim::Time idle_ns = 0;
  for (;;) {
    // Straight-line sweep bookkeeping: rings retired by the down/re-
    // bootstrap handlers park in the graveyard behind a null map
    // tombstone, and both are reaped only here — so map nodes and
    // ClientRing memory seen by this sweep stay valid across every
    // co_await below.
    graveyard_.clear();
    std::erase_if(rings_, [](const auto& kv) { return kv.second == nullptr; });
    if (rings_.empty()) {
      parks_->inc();
      break;
    }
    sweeps_->inc();
    co_await host_->cpu().consume(kPollSweepNs);

    bool worked = false;
    // std::map iterators survive handler-driven insertions, and handlers
    // tombstone entries (null the pointer) instead of erasing nodes, so
    // iteration is safe across the co_awaits in the loop body.
    for (auto& [ep_id, ring_ptr] : rings_) {
      if (ring_ptr == nullptr) continue;  // tombstoned during this sweep
      ClientRing& ring = *ring_ptr;
      if (ring.ep == nullptr || ring.ep->state() != ucr::EpState::ready) continue;

      ready_slots_.clear();
      ready_lens_.clear();
      {
        obs::ProfScope prof{kProfPoll};
        for (std::uint32_t slot = 0; slot < ring.slot_count; ++slot) {
          std::span<const std::byte> body;
          switch (ucr::read_frame(slot_span(ring.ring, slot, ring.slot_size),
                             ring.expected_seq[slot], body)) {
            case ucr::FrameState::ready:
              ready_slots_.push_back(slot);
              break;
            case ucr::FrameState::torn:
              // A client write still landing; the next sweep picks it up.
              torn_frames_->inc();
              break;
            case ucr::FrameState::empty:
              break;
          }
        }
      }
      if (ready_slots_.empty()) continue;
      worked = true;
      frames_->inc(ready_slots_.size());

      for (const std::uint32_t slot : ready_slots_) {
        std::span<const std::byte> body;
        // Re-read is stable: the client never rewrites a slot before it
        // has consumed the matching response, and this frame verified.
        (void)ucr::read_frame(slot_span(ring.ring, slot, ring.slot_size),
                         ring.expected_seq[slot], body);
        ready_lens_.push_back(co_await execute(ring, slot, body));
        release_slot(ring, slot);
      }

      if (ring.ep != nullptr && ring.ep->state() == ucr::EpState::ready) {
        // All responses of this sweep ride one doorbell.
        obs::ProfScope prof{kProfPoll};
        runtime_->begin_send_batch();
        for (std::size_t i = 0; i < ready_slots_.size(); ++i) {
          const std::uint32_t slot = ready_slots_[i];
          const std::span<const std::byte> frame{
              ring.staging.data() + static_cast<std::size_t>(slot) * ring.slot_size,
              ready_lens_[i]};
          (void)runtime_->put(*ring.ep, frame, ring.response_window,
                              slot * ring.slot_size, nullptr);
        }
        runtime_->end_send_batch();
      }
    }

    if (worked) {
      interval = kPollMinNs;
      idle_ns = 0;
    } else {
      idle_ns += interval;
      if (idle_ns >= config_.park_after_ns) {
        parks_->inc();
        break;
      }
      interval = std::min(interval * 2, kPollMaxNs);
    }
    co_await sched.delay(interval);
  }
  poll_running_ = false;
  graveyard_.clear();
  std::erase_if(rings_, [](const auto& kv) { return kv.second == nullptr; });
}

std::size_t RingServer::seal_response(ClientRing& ring, std::uint32_t slot,
                                      const ucrp::ResponseHeader& resp,
                                      std::span<const std::byte> value) {
  const std::span<std::byte> staging = slot_span(ring.staging, slot, ring.slot_size);
  const std::uint32_t capacity = ucr::body_capacity(ring.slot_size);
  ucrp::ResponseHeader out = resp;
  if (ucrp::ResponseHeader::kSize + value.size() > capacity) {
    // Reply cannot be framed in one slot: tell the client to re-run the
    // op over classic RPC (the fallback matrix in DESIGN.md §16).
    out.status = ucrp::RStatus::rerun;
    value = {};
  }
  const std::span<std::byte> body = ucr::frame_body(staging);
  out.encode(body.data());
  if (!value.empty()) {
    std::memcpy(body.data() + ucrp::ResponseHeader::kSize, value.data(), value.size());
  }
  const auto body_len =
      static_cast<std::uint32_t>(ucrp::ResponseHeader::kSize + value.size());
  ucr::seal_frame(staging, ring.expected_seq[slot], body_len);
  return ucr::framed_size(body_len);
}

std::size_t RingServer::execute_mget(ClientRing& ring, std::uint32_t slot,
                                     const ucrp::RequestHeader& req,
                                     std::span<const std::byte> key_block,
                                     std::size_t& value_bytes) {
  const std::span<std::byte> staging = slot_span(ring.staging, slot, ring.slot_size);
  const std::span<std::byte> body = ucr::frame_body(staging);
  const auto key_count = static_cast<std::uint32_t>(req.delta);
  const ucrp::ResponseHeader rerun{.status = ucrp::RStatus::rerun, .req_id = req.req_id};

  // Single-chunk layout: ResponseHeader | MgetChunkHeader | records | values.
  const std::size_t records_at =
      ucrp::ResponseHeader::kSize + ucrp::MgetChunkHeader::kSize;
  std::size_t values_at = records_at + key_count * ucrp::MgetRecord::kSize;
  if (values_at > body.size()) return seal_response(ring, slot, rerun, {});

  mc::ItemStore& store = server_->store();
  mc::MgetKeyReader reader{key_block.data(), key_block.size()};
  std::string_view key;
  std::uint32_t index = 0;
  std::size_t staged = 0;
  bool overflow = false;
  while (index < key_count && reader.next(key)) {
    ucrp::MgetRecord rec;
    if (mc::ItemHeader* item = store.get_pinned(key)) {
      const auto value = item->value();
      if (values_at + value.size() > body.size()) {
        store.release(item);
        overflow = true;
        break;
      }
      rec.status = ucrp::RStatus::value;
      rec.flags = item->flags;
      rec.cas = item->cas;
      rec.value_len = static_cast<std::uint32_t>(value.size());
      std::memcpy(body.data() + values_at, value.data(), value.size());
      values_at += value.size();
      staged += value.size();
      store.release(item);
    }
    rec.encode(body.data() + records_at + index * ucrp::MgetRecord::kSize);
    ++index;
  }
  if (overflow || index != key_count) {
    // Reply overflows the slot (or the block was malformed): hand the
    // whole multiget back to the RPC path, which chunks freely.
    return seal_response(ring, slot, rerun, {});
  }

  ucrp::MgetChunkHeader chunk;
  chunk.start_index = 0;
  chunk.record_count = key_count;
  chunk.total_chunks = 1;
  chunk.total_keys = key_count;
  const ucrp::ResponseHeader resp{.status = ucrp::RStatus::value, .req_id = req.req_id};
  resp.encode(body.data());
  chunk.encode(body.data() + ucrp::ResponseHeader::kSize);
  value_bytes = staged;
  const auto body_len = static_cast<std::uint32_t>(values_at);
  ucr::seal_frame(staging, ring.expected_seq[slot], body_len);
  return ucr::framed_size(body_len);
}

sim::Task<std::size_t> RingServer::execute(ClientRing& ring, std::uint32_t slot,
                                           std::span<const std::byte> body) {
  co_await host_->cpu().consume(kRequestNs + mc::McCosts::op_base_ns);

  ucrp::RequestView req;
  if (ucrp::parse_request(body, req) != ucrp::RequestCheck::ok) {
    co_return seal_response(
        ring, slot,
        {.status = ucrp::RStatus::client_error, .req_id = req.header.req_id}, {});
  }
  server_->advance_clock();

  std::size_t copied_bytes = 0;
  std::size_t frame_len = 0;
  {
    obs::ProfScope prof{kProfExecute};
    if (req.header.op == ucrp::Op::mget) {
      frame_len = execute_mget(ring, slot, req.header, std::as_bytes(std::span(req.key)),
                               copied_bytes);
    } else {
      const mc::Outcome out = server_->execute(mc::ucr_op(req.header), req.key, req.rest);
      const ucrp::ResponseHeader resp = mc::ucr_response(req.header.op, req.header.req_id, out);
      if (out.item != nullptr) {
        frame_len = seal_response(ring, slot, resp, out.item->value());
        copied_bytes = out.item->value_len;
        server_->store().release(out.item);
      } else {
        frame_len = seal_response(ring, slot, resp, {});
        if (ucrp::is_storage(req.header.op)) copied_bytes = req.rest.size();
      }
    }
  }

  if (copied_bytes != 0) {
    co_await host_->cpu().consume(static_cast<sim::Time>(
        static_cast<double>(copied_bytes) * mc::McCosts::value_copy_ns_per_byte));
  }
  co_return frame_len;
}

}  // namespace rmc::rfp
