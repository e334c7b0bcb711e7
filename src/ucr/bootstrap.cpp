#include "ucr/bootstrap.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <unordered_map>

namespace rmc::ucr {

namespace {

/// Cookies are process-unique, so every runtime shares one registry.
std::uint64_t next_cookie() {
  static std::uint64_t next = 1;
  return next++;
}

std::unordered_map<std::uint64_t, BootstrapCall*>& cookie_registry() {
  static std::unordered_map<std::uint64_t, BootstrapCall*> map;
  return map;
}

}  // namespace

BootstrapCall::BootstrapCall(Runtime& runtime, std::uint16_t request_id,
                             std::uint16_t reply_id)
    : runtime_(&runtime), request_id_(request_id), cookie_(next_cookie()) {
  cookie_registry()[cookie_] = this;
  runtime_->register_handler(
      reply_id, {.on_header = {},
                 .on_complete = [](Endpoint&, std::span<const std::byte> header,
                                   std::span<std::byte>) { on_reply(header); }});
}

BootstrapCall::~BootstrapCall() {
  cookie_registry().erase(cookie_);
  if (reply_counter_) runtime_->unexport_counter(reply_ref_);
}

void BootstrapCall::on_reply(std::span<const std::byte> header) {
  if (header.size() < kBootstrapReplySuffix) return;
  const std::size_t body_len = header.size() - kBootstrapReplySuffix;
  std::uint64_t cookie = 0;
  std::memcpy(&cookie, header.data() + body_len, sizeof(cookie));
  auto it = cookie_registry().find(cookie);
  if (it == cookie_registry().end()) return;
  // A straggler may overwrite the body, but only the current call's
  // counter wakes the caller, and the current reply always lands last.
  const auto body = header.first(body_len);
  it->second->reply_.assign(body.begin(), body.end());
}

sim::Task<Result<std::span<const std::byte>>> BootstrapCall::call(
    Endpoint& ep, std::span<const std::byte> body, sim::Time timeout) {
  if (body.size() > kMaxBootstrapBody) co_return Errc::too_large;
  if (reply_counter_) runtime_->unexport_counter(reply_ref_);
  reply_counter_ = runtime_->make_counter();
  reply_ref_ = runtime_->export_counter(*reply_counter_);

  std::array<std::byte, kBootstrapRequestPrefix + kMaxBootstrapBody> request{};
  std::memcpy(request.data(), &cookie_, sizeof(cookie_));
  std::memcpy(request.data() + sizeof(cookie_), &reply_ref_.id, sizeof(reply_ref_.id));
  std::copy(body.begin(), body.end(), request.begin() + kBootstrapRequestPrefix);
  auto sent = runtime_->send_message(
      ep, request_id_, std::span(request).first(kBootstrapRequestPrefix + body.size()), {},
      nullptr, CounterRef{}, nullptr);
  if (!sent.ok()) co_return sent.error();

  if (!co_await reply_counter_->wait_geq(1, timeout)) co_return Errc::timed_out;
  co_return std::span<const std::byte>(reply_);
}

void serve_bootstrap(Runtime& runtime, std::uint16_t request_id, std::uint16_t reply_id,
                     BootstrapServer serve) {
  Runtime* rt = &runtime;
  runtime.register_handler(
      request_id,
      {.on_header = {},
       .on_complete = [rt, reply_id, serve = std::move(serve)](
                          Endpoint& ep, std::span<const std::byte> header,
                          std::span<std::byte>) {
         if (header.size() < kBootstrapRequestPrefix) return;
         std::uint64_t cookie = 0;
         std::uint64_t reply_counter = 0;
         std::memcpy(&cookie, header.data(), sizeof(cookie));
         std::memcpy(&reply_counter, header.data() + sizeof(cookie), sizeof(reply_counter));
         std::array<std::byte, kMaxBootstrapBody + kBootstrapReplySuffix> reply{};
         const std::size_t body_len =
             serve(ep, header.subspan(kBootstrapRequestPrefix),
                   std::span(reply).first(kMaxBootstrapBody));
         assert(body_len <= kMaxBootstrapBody);
         std::memcpy(reply.data() + body_len, &cookie, sizeof(cookie));
         (void)rt->send_message(ep, reply_id,
                                std::span(reply).first(body_len + kBootstrapReplySuffix), {},
                                nullptr, CounterRef{reply_counter}, nullptr);
       }});
}

}  // namespace rmc::ucr
