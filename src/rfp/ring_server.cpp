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

std::span<std::byte> slot_span(std::vector<std::byte>& buf, std::uint32_t slot,
                               std::uint32_t slot_size) {
  return {buf.data() + static_cast<std::size_t>(slot) * slot_size, slot_size};
}

}  // namespace

RingServer::RingServer(ucr::Runtime& runtime, sim::Host& host, mc::ItemStore& store,
                       RingServerConfig config)
    : runtime_(&runtime), host_(&host), store_(&store), config_(config),
      bootstraps_(&obs::registry().counter("mc.rfp.bootstraps")),
      wakes_(&obs::registry().counter("mc.rfp.wakes")),
      torn_frames_(&obs::registry().counter("mc.rfp.torn_frames")),
      sweeps_(&obs::registry().counter("mc.rfp.poll.sweeps")),
      frames_(&obs::registry().counter("mc.rfp.poll.frames")),
      parks_(&obs::registry().counter("mc.rfp.poll.parks")) {
  config_.max_slot_count = std::max(1u, config_.max_slot_count);
  config_.max_slot_size = std::max<std::uint32_t>(
      config_.max_slot_size,
      static_cast<std::uint32_t>(ucr::framed_size(ucrp::ResponseHeader::kSize)));
  ready_slots_.reserve(config_.max_slot_count);
  ready_lens_.reserve(config_.max_slot_count);

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
      std::min(std::max(1u, req.slot_count), config_.max_slot_count);
  const std::uint32_t slot_size = std::min(req.slot_size, config_.max_slot_size);
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
    ring->ring.assign(span_bytes, std::byte{0});
    ring->staging.assign(span_bytes, std::byte{0});
    // rmclint:allow(seqlock-discipline): fresh ring — no client holds its epochs yet,
    // so initializing every slot to epoch 1 cannot race a reader.
    ring->expected_seq.assign(slot_count, 1);
    ring->request_window = runtime_->expose_memory(ring->ring);
    runtime_->register_region(ring->staging);
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
  sim::Time interval = config_.poll_min_ns;
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
    co_await host_->cpu().consume(config_.poll_sweep_ns);

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
          if (ready_lens_[i] == 0) continue;
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
      interval = config_.poll_min_ns;
      idle_ns = 0;
    } else {
      idle_ns += interval;
      if (idle_ns >= config_.park_after_ns) {
        parks_->inc();
        break;
      }
      interval = std::min(interval * 2, config_.poll_max_ns);
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
    out.status = ucrp::RStatus::server_error;
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
                                     std::span<const std::byte> key_block) {
  const std::span<std::byte> staging = slot_span(ring.staging, slot, ring.slot_size);
  const std::span<std::byte> body = ucr::frame_body(staging);
  const auto key_count = static_cast<std::uint32_t>(req.delta);

  ucrp::ResponseHeader resp;
  resp.status = ucrp::RStatus::value;
  resp.req_id = req.req_id;

  // Single-chunk layout: ResponseHeader | MgetChunkHeader | records | values.
  const std::size_t records_at =
      ucrp::ResponseHeader::kSize + ucrp::MgetChunkHeader::kSize;
  std::size_t values_at = records_at + key_count * ucrp::MgetRecord::kSize;
  if (values_at > body.size()) {
    return seal_response(ring, slot,
                         ucrp::ResponseHeader{.status = ucrp::RStatus::server_error,
                                              .req_id = req.req_id},
                         {});
  }

  ucrp::MgetKeyReader reader{key_block.data(), key_block.size()};
  std::string_view key;
  std::uint32_t index = 0;
  std::size_t value_bytes = 0;
  bool overflow = false;
  while (index < key_count && reader.next(key)) {
    ucrp::MgetRecord rec;
    if (mc::ItemHeader* item = store_->get_pinned(key)) {
      const auto value = item->value();
      if (values_at + value.size() > body.size()) {
        store_->release(item);
        overflow = true;
        break;
      }
      rec.status = ucrp::RStatus::value;
      rec.flags = item->flags;
      rec.cas = item->cas;
      rec.value_len = static_cast<std::uint32_t>(value.size());
      std::memcpy(body.data() + values_at, value.data(), value.size());
      values_at += value.size();
      value_bytes += value.size();
      store_->release(item);
    }
    rec.encode(body.data() + records_at + index * ucrp::MgetRecord::kSize);
    ++index;
  }
  if (overflow || index != key_count) {
    // Reply overflows the slot (or the block was malformed): hand the
    // whole multiget back to the RPC path, which chunks freely.
    return seal_response(ring, slot,
                         ucrp::ResponseHeader{.status = ucrp::RStatus::server_error,
                                              .req_id = req.req_id},
                         {});
  }

  ucrp::MgetChunkHeader chunk;
  chunk.start_index = 0;
  chunk.record_count = key_count;
  chunk.total_chunks = 1;
  chunk.total_keys = key_count;
  resp.encode(body.data());
  chunk.encode(body.data() + ucrp::ResponseHeader::kSize);
  mget_value_bytes_ = value_bytes;
  const auto body_len = static_cast<std::uint32_t>(values_at);
  ucr::seal_frame(staging, ring.expected_seq[slot], body_len);
  return ucr::framed_size(body_len);
}

sim::Task<std::size_t> RingServer::execute(ClientRing& ring, std::uint32_t slot,
                                           std::span<const std::byte> body) {
  co_await host_->cpu().consume(config_.request_ns + config_.op_base_ns);

  ucrp::ResponseHeader resp;
  if (body.size() < ucrp::RequestHeader::kSize) {
    resp.status = ucrp::RStatus::client_error;
    co_return seal_response(ring, slot, resp, {});
  }
  const auto req = ucrp::RequestHeader::decode(body.data());
  resp.req_id = req.req_id;
  const std::span<const std::byte> tail = body.subspan(ucrp::RequestHeader::kSize);
  if (tail.size() < req.key_len) {
    resp.status = ucrp::RStatus::client_error;
    co_return seal_response(ring, slot, resp, {});
  }
  const std::string_view key{reinterpret_cast<const char*>(tail.data()), req.key_len};
  const std::span<const std::byte> value = tail.subspan(req.key_len);

  store_->set_clock(
      static_cast<std::uint32_t>(1 + runtime_->scheduler().now() / kNsPerSec));

  std::size_t copied_bytes = 0;
  std::size_t frame_len = 0;
  {
    obs::ProfScope prof{kProfExecute};
    switch (req.op) {
      case ucrp::Op::get:
      case ucrp::Op::gets: {
        if (mc::ItemHeader* item = store_->get_pinned(key)) {
          resp.status = ucrp::RStatus::value;
          resp.flags = item->flags;
          resp.cas = item->cas;
          frame_len = seal_response(ring, slot, resp, item->value());
          copied_bytes = item->value_len;
          store_->release(item);
        } else {
          resp.status = ucrp::RStatus::not_found;
          frame_len = seal_response(ring, slot, resp, {});
        }
        break;
      }
      case ucrp::Op::set:
      case ucrp::Op::add:
      case ucrp::Op::replace:
      case ucrp::Op::append:
      case ucrp::Op::prepend:
      case ucrp::Op::cas: {
        mc::SetMode mode = mc::SetMode::set;
        switch (req.op) {
          case ucrp::Op::add: mode = mc::SetMode::add; break;
          case ucrp::Op::replace: mode = mc::SetMode::replace; break;
          case ucrp::Op::append: mode = mc::SetMode::append; break;
          case ucrp::Op::prepend: mode = mc::SetMode::prepend; break;
          case ucrp::Op::cas: mode = mc::SetMode::cas; break;
          default: break;
        }
        auto stored = store_->store(mode, key, value, req.flags, req.exptime, req.cas);
        if (stored.ok()) {
          resp.status = ucrp::RStatus::stored;
        } else {
          switch (stored.error()) {
            case Errc::not_stored: resp.status = ucrp::RStatus::not_stored; break;
            case Errc::exists: resp.status = ucrp::RStatus::exists; break;
            case Errc::not_found: resp.status = ucrp::RStatus::not_found; break;
            default: resp.status = ucrp::RStatus::server_error; break;
          }
        }
        copied_bytes = value.size();
        frame_len = seal_response(ring, slot, resp, {});
        break;
      }
      case ucrp::Op::del:
        resp.status =
            store_->del(key) ? ucrp::RStatus::deleted : ucrp::RStatus::not_found;
        frame_len = seal_response(ring, slot, resp, {});
        break;
      case ucrp::Op::incr:
      case ucrp::Op::decr: {
        auto result = store_->arith(key, req.delta, req.op == ucrp::Op::decr);
        if (result.ok()) {
          resp.status = ucrp::RStatus::number;
          resp.number = *result;
        } else if (result.error() == Errc::not_found) {
          resp.status = ucrp::RStatus::not_found;
        } else {
          resp.status = ucrp::RStatus::client_error;
        }
        frame_len = seal_response(ring, slot, resp, {});
        break;
      }
      case ucrp::Op::touch:
        resp.status = store_->touch(key, req.exptime) ? ucrp::RStatus::touched
                                                      : ucrp::RStatus::not_found;
        frame_len = seal_response(ring, slot, resp, {});
        break;
      case ucrp::Op::mget:
        mget_value_bytes_ = 0;
        frame_len = execute_mget(
            ring, slot, req,
            tail.first(std::min<std::size_t>(req.key_len, tail.size())));
        copied_bytes = mget_value_bytes_;
        break;
      default:
        // flush_all / version and anything unknown stay on the RPC path
        // (fallback matrix, DESIGN.md §16).
        resp.status = ucrp::RStatus::client_error;
        frame_len = seal_response(ring, slot, resp, {});
        break;
    }
  }

  if (copied_bytes != 0) {
    co_await host_->cpu().consume(static_cast<sim::Time>(
        static_cast<double>(copied_bytes) * config_.value_copy_ns_per_byte));
  }
  co_return frame_len;
}

}  // namespace rmc::rfp
