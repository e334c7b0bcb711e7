// Unit + integration tests for the software verbs layer: MR protection,
// SEND/RECV matching, RDMA READ/WRITE data movement and validation, RC
// completion semantics, SRQ sharing, connection management, error flushes,
// and the OS-bypass property (one-sided ops charge no remote host CPU).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "simnet/faults.hpp"
#include "simnet/netparams.hpp"
#include "verbs/hca.hpp"

namespace rmc::verbs {
namespace {

using namespace rmc::literals;
using sim::Scheduler;
using sim::Task;

/// Two hosts on one IB fabric with one HCA each — the standard fixture.
struct Pair {
  Scheduler sched;
  sim::Fabric fabric{sched, sim::ib_qdr_link()};
  sim::Host host_a{sched, 0, "a", 8};
  sim::Host host_b{sched, 1, "b", 8};
  Hca hca_a{sched, fabric, host_a};
  Hca hca_b{sched, fabric, host_b};

  std::unique_ptr<CompletionQueue> cq_a = hca_a.create_cq();
  std::unique_ptr<CompletionQueue> cq_b = hca_b.create_cq();

  QueuePair* qp_a = nullptr;
  QueuePair* qp_b = nullptr;

  /// Manually wire a QP pair (no CM).
  void wire() {
    qp_a = &hca_a.create_qp(*cq_a, *cq_a);
    qp_b = &hca_b.create_qp(*cq_b, *cq_b);
    qp_a->connect(hca_b.addr(), qp_b->qp_num());
    qp_b->connect(hca_a.addr(), qp_a->qp_num());
  }
};

// ----------------------------------------------------------- memory ----

TEST(Memory, RegisterAssignsDistinctKeys) {
  Pair p;
  std::vector<std::byte> buf_a(128), buf_b(128);
  auto& mr_a = p.hca_a.reg_mr(buf_a);
  auto& mr_b = p.hca_a.reg_mr(buf_b);
  EXPECT_NE(mr_a.lkey(), mr_b.lkey());
  EXPECT_NE(mr_a.rkey(), mr_b.rkey());
  EXPECT_NE(mr_a.lkey(), mr_a.rkey());
  EXPECT_EQ(p.hca_a.pd().region_count(), 2u);
}

TEST(Memory, ContainsChecksBounds) {
  Pair p;
  std::vector<std::byte> buf(100);
  auto& mr = p.hca_a.reg_mr(buf);
  EXPECT_TRUE(mr.contains(mr.addr(), 100));
  EXPECT_TRUE(mr.contains(mr.addr() + 50, 50));
  EXPECT_FALSE(mr.contains(mr.addr() + 50, 51));
  EXPECT_FALSE(mr.contains(mr.addr() - 1, 10));
  // Overflow probe: huge length must not wrap.
  EXPECT_FALSE(mr.contains(mr.addr(), ~std::size_t{0}));
}

TEST(Memory, DeregisterInvalidatesKeys) {
  Pair p;
  std::vector<std::byte> buf(64);
  auto& mr = p.hca_a.reg_mr(buf);
  const auto lkey = mr.lkey();
  p.hca_a.dereg_mr(mr);
  EXPECT_FALSE(p.hca_a.pd().check_local(lkey, std::span<const std::byte>(buf)).ok());
}

TEST(Memory, RegistrationChargesCpu) {
  Pair p;
  const auto before = p.host_a.cpu().busy_ns();
  std::vector<std::byte> big(1_MiB);
  p.hca_a.reg_mr(big);
  EXPECT_GT(p.host_a.cpu().busy_ns(), before);
}

// -------------------------------------------------------- send/recv ----

TEST(SendRecv, DeliversPayloadAndImmediate) {
  Pair p;
  p.wire();
  std::vector<std::byte> src(256), dst(512);
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = static_cast<std::byte>(i);
  auto& mr_src = p.hca_a.reg_mr(src);
  auto& mr_dst = p.hca_b.reg_mr(dst);

  ASSERT_TRUE(p.qp_b->post_recv({.wr_id = 7, .buffer = dst, .lkey = mr_dst.lkey()}).ok());
  ASSERT_TRUE(p.qp_a
                  ->post_send({.wr_id = 1,
                               .opcode = Opcode::send,
                               .local = src,
                               .lkey = mr_src.lkey(),
                               .imm_data = 0xabcd})
                  .ok());

  bool recv_done = false, send_done = false;
  p.sched.spawn([](CompletionQueue& cq, bool& done, std::vector<std::byte>& dst2) -> Task<> {
    auto wc = co_await cq.next();
    EXPECT_EQ(wc.status, WcStatus::success);
    EXPECT_EQ(wc.opcode, Opcode::recv);
    EXPECT_EQ(wc.wr_id, 7u);
    EXPECT_EQ(wc.byte_len, 256u);
    EXPECT_EQ(wc.imm_data, 0xabcdu);
    EXPECT_EQ(dst2[255], static_cast<std::byte>(255));
    done = true;
  }(*p.cq_b, recv_done, dst));
  p.sched.spawn([](CompletionQueue& cq, bool& done) -> Task<> {
    auto wc = co_await cq.next();
    EXPECT_EQ(wc.status, WcStatus::success);
    EXPECT_EQ(wc.opcode, Opcode::send);
    EXPECT_EQ(wc.wr_id, 1u);
    done = true;
  }(*p.cq_a, send_done));

  p.sched.run();
  EXPECT_TRUE(recv_done);
  EXPECT_TRUE(send_done);
}

TEST(SendRecv, RnrWhenNoReceivePosted) {
  Pair p;
  p.wire();
  std::vector<std::byte> src(64);
  auto& mr = p.hca_a.reg_mr(src);
  ASSERT_TRUE(
      p.qp_a->post_send({.wr_id = 9, .opcode = Opcode::send, .local = src, .lkey = mr.lkey()})
          .ok());
  bool saw = false;
  p.sched.spawn([](CompletionQueue& cq, bool& saw2) -> Task<> {
    auto wc = co_await cq.next();
    EXPECT_EQ(wc.status, WcStatus::receiver_not_ready);
    saw2 = true;
  }(*p.cq_a, saw));
  p.sched.run();
  EXPECT_TRUE(saw);
}

TEST(SendRecv, OversizedPayloadErrorsBothSides) {
  Pair p;
  p.wire();
  std::vector<std::byte> src(512), dst(64);
  auto& mr_src = p.hca_a.reg_mr(src);
  auto& mr_dst = p.hca_b.reg_mr(dst);
  ASSERT_TRUE(p.qp_b->post_recv({.wr_id = 2, .buffer = dst, .lkey = mr_dst.lkey()}).ok());
  ASSERT_TRUE(
      p.qp_a
          ->post_send({.wr_id = 3, .opcode = Opcode::send, .local = src, .lkey = mr_src.lkey()})
          .ok());
  int errors = 0;
  p.sched.spawn([](CompletionQueue& cq, int& errors2) -> Task<> {
    auto wc = co_await cq.next();
    EXPECT_EQ(wc.status, WcStatus::local_protection_error);
    ++errors2;
  }(*p.cq_b, errors));
  p.sched.spawn([](CompletionQueue& cq, int& errors2) -> Task<> {
    auto wc = co_await cq.next();
    EXPECT_EQ(wc.status, WcStatus::remote_access_error);
    ++errors2;
  }(*p.cq_a, errors));
  p.sched.run();
  EXPECT_EQ(errors, 2);
}

TEST(SendRecv, PostSendWithBadLkeyFailsSynchronously) {
  Pair p;
  p.wire();
  std::vector<std::byte> src(64);
  EXPECT_EQ(
      p.qp_a->post_send({.wr_id = 1, .opcode = Opcode::send, .local = src, .lkey = 999}).error(),
      Errc::invalid_argument);
}

TEST(SendRecv, PostOnUnconnectedQpFails) {
  Pair p;
  auto& qp = p.hca_a.create_qp(*p.cq_a, *p.cq_a);
  std::vector<std::byte> src(16);
  auto& mr = p.hca_a.reg_mr(src);
  EXPECT_EQ(
      qp.post_send({.wr_id = 1, .opcode = Opcode::send, .local = src, .lkey = mr.lkey()}).error(),
      Errc::disconnected);
}

TEST(SendRecv, ManyMessagesArriveInOrder) {
  Pair p;
  p.wire();
  constexpr int kCount = 50;
  std::vector<std::vector<std::byte>> bufs(kCount, std::vector<std::byte>(8));
  std::vector<std::byte> src(8);
  auto& mr_src = p.hca_a.reg_mr(src);
  std::vector<MemoryRegion*> mrs;
  for (auto& b : bufs) mrs.push_back(&p.hca_b.reg_mr(b));
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(p.qp_b
                    ->post_recv({.wr_id = static_cast<std::uint64_t>(i),
                                 .buffer = bufs[i],
                                 .lkey = mrs[i]->lkey()})
                    .ok());
  }
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(p.qp_a
                    ->post_send({.wr_id = 100u + i,
                                 .opcode = Opcode::send,
                                 .local = src,
                                 .lkey = mr_src.lkey(),
                                 .imm_data = static_cast<std::uint32_t>(i)})
                    .ok());
  }
  std::vector<std::uint32_t> order;
  p.sched.spawn([](CompletionQueue& cq, std::vector<std::uint32_t>& order2) -> Task<> {
    for (int i = 0; i < kCount; ++i) {
      auto wc = co_await cq.next();
      EXPECT_EQ(wc.status, WcStatus::success);
      order2.push_back(wc.imm_data);
    }
  }(*p.cq_b, order));
  p.sched.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(order[i], static_cast<std::uint32_t>(i));
}

// ------------------------------------------------------------- rdma ----

TEST(Rdma, ReadPullsRemoteBytes) {
  Pair p;
  p.wire();
  std::vector<std::byte> remote(1024);
  std::vector<std::byte> local(1024);
  for (std::size_t i = 0; i < remote.size(); ++i) remote[i] = static_cast<std::byte>(i * 3);
  auto& mr_remote = p.hca_b.reg_mr(remote);
  auto& mr_local = p.hca_a.reg_mr(local);

  ASSERT_TRUE(p.qp_a
                  ->post_send({.wr_id = 11,
                               .opcode = Opcode::rdma_read,
                               .local = local,
                               .lkey = mr_local.lkey(),
                               .remote_addr = mr_remote.addr(),
                               .rkey = mr_remote.rkey()})
                  .ok());
  bool done = false;
  p.sched.spawn([](CompletionQueue& cq, bool& fin, std::vector<std::byte>& local2) -> Task<> {
    auto wc = co_await cq.next();
    EXPECT_EQ(wc.status, WcStatus::success);
    EXPECT_EQ(wc.opcode, Opcode::rdma_read);
    EXPECT_EQ(wc.byte_len, 1024u);
    EXPECT_EQ(local2[100], static_cast<std::byte>(300 & 0xff));
    fin = true;
  }(*p.cq_a, done, local));
  p.sched.run();
  EXPECT_TRUE(done);
}

TEST(Rdma, ReadSeesBytesAtResponseTime) {
  // RDMA reads race with remote writes: the bytes captured are whatever is
  // in memory when the responder processes the request — the hazard the
  // paper cites when rejecting client-cached addresses (§III).
  Pair p;
  p.wire();
  std::vector<std::byte> remote(16, std::byte{0});
  std::vector<std::byte> local(16);
  auto& mr_remote = p.hca_b.reg_mr(remote);
  auto& mr_local = p.hca_a.reg_mr(local);

  // Mutate remote memory before the read request can arrive (wire latency
  // is ~450ns, so t=100 beats it).
  p.sched.call_at(100, [&remote] { remote[0] = std::byte{42}; });
  ASSERT_TRUE(p.qp_a
                  ->post_send({.wr_id = 1,
                               .opcode = Opcode::rdma_read,
                               .local = local,
                               .lkey = mr_local.lkey(),
                               .remote_addr = mr_remote.addr(),
                               .rkey = mr_remote.rkey()})
                  .ok());
  p.sched.spawn([](CompletionQueue& cq) -> Task<> { (void)co_await cq.next(); }(*p.cq_a));
  p.sched.run();
  EXPECT_EQ(local[0], std::byte{42});
}

TEST(Rdma, WritePushesLocalBytes) {
  Pair p;
  p.wire();
  std::vector<std::byte> local(128, std::byte{7});
  std::vector<std::byte> remote(128, std::byte{0});
  auto& mr_local = p.hca_a.reg_mr(local);
  auto& mr_remote = p.hca_b.reg_mr(remote);

  ASSERT_TRUE(p.qp_a
                  ->post_send({.wr_id = 5,
                               .opcode = Opcode::rdma_write,
                               .local = local,
                               .lkey = mr_local.lkey(),
                               .remote_addr = mr_remote.addr(),
                               .rkey = mr_remote.rkey()})
                  .ok());
  bool done = false;
  p.sched.spawn([](CompletionQueue& cq, bool& fin, std::vector<std::byte>& remote2) -> Task<> {
    auto wc = co_await cq.next();
    EXPECT_EQ(wc.status, WcStatus::success);
    EXPECT_EQ(remote2[127], std::byte{7});
    fin = true;
  }(*p.cq_a, done, remote));
  p.sched.run();
  EXPECT_TRUE(done);
}

TEST(Rdma, BadRkeyYieldsRemoteAccessError) {
  Pair p;
  p.wire();
  std::vector<std::byte> local(64);
  auto& mr_local = p.hca_a.reg_mr(local);
  ASSERT_TRUE(p.qp_a
                  ->post_send({.wr_id = 5,
                               .opcode = Opcode::rdma_read,
                               .local = local,
                               .lkey = mr_local.lkey(),
                               .remote_addr = 0xdead,
                               .rkey = 0xbeef})
                  .ok());
  bool done = false;
  p.sched.spawn([](CompletionQueue& cq, bool& fin) -> Task<> {
    auto wc = co_await cq.next();
    EXPECT_EQ(wc.status, WcStatus::remote_access_error);
    fin = true;
  }(*p.cq_a, done));
  p.sched.run();
  EXPECT_TRUE(done);
}

TEST(Rdma, OutOfBoundsReadRejected) {
  Pair p;
  p.wire();
  std::vector<std::byte> remote(64);
  std::vector<std::byte> local(128);  // asks for more than the MR holds
  auto& mr_remote = p.hca_b.reg_mr(remote);
  auto& mr_local = p.hca_a.reg_mr(local);
  ASSERT_TRUE(p.qp_a
                  ->post_send({.wr_id = 5,
                               .opcode = Opcode::rdma_read,
                               .local = local,
                               .lkey = mr_local.lkey(),
                               .remote_addr = mr_remote.addr(),
                               .rkey = mr_remote.rkey()})
                  .ok());
  bool done = false;
  p.sched.spawn([](CompletionQueue& cq, bool& fin) -> Task<> {
    auto wc = co_await cq.next();
    EXPECT_EQ(wc.status, WcStatus::remote_access_error);
    fin = true;
  }(*p.cq_a, done));
  p.sched.run();
  EXPECT_TRUE(done);
}

TEST(Rdma, OneSidedOpsDoNotChargeRemoteHostCpu) {
  // The OS-bypass property the whole paper rests on: an RDMA read is
  // served by the remote HCA, not the remote host's cores.
  Pair p;
  p.wire();
  std::vector<std::byte> remote(4096);
  std::vector<std::byte> local(4096);
  auto& mr_remote = p.hca_b.reg_mr(remote);
  auto& mr_local = p.hca_a.reg_mr(local);
  const auto remote_cpu_before = p.host_b.cpu().busy_ns();

  ASSERT_TRUE(p.qp_a
                  ->post_send({.wr_id = 1,
                               .opcode = Opcode::rdma_read,
                               .local = local,
                               .lkey = mr_local.lkey(),
                               .remote_addr = mr_remote.addr(),
                               .rkey = mr_remote.rkey()})
                  .ok());
  p.sched.spawn([](CompletionQueue& cq) -> Task<> { (void)co_await cq.next(); }(*p.cq_a));
  p.sched.run();
  EXPECT_EQ(p.host_b.cpu().busy_ns(), remote_cpu_before);
}

// --------------------------------------------------------- rc resend ----
//
// The requester resends an unanswered RDMA Write or Read from its
// retransmit sweep, which runs every 5 ms (half the 10 ms RTO); each
// resend doubles the wait, up to 64 RTOs. The completion times below pin
// that schedule.

/// One RDMA Write or Read from a to b posted at t = 0 with the a-b link
/// down; `heal_at` brings it back up (0: never).
struct ResendRun {
  WorkCompletion wc;
  bool completed = false;
  sim::Time completed_at = 0;
  std::uint64_t retransmits = 0;
  int on_error_calls = 0;
  QpState requester_state = QpState::reset;
  std::vector<std::byte> local = std::vector<std::byte>(256, std::byte{7});
  std::vector<std::byte> remote = std::vector<std::byte>(256, std::byte{9});
};

ResendRun one_sided_across_cut(Opcode opcode, sim::Time heal_at) {
  Pair p;
  p.wire();
  ResendRun run;
  auto& mr_local = p.hca_a.reg_mr(run.local);
  auto& mr_remote = p.hca_b.reg_mr(run.remote);
  p.qp_a->set_on_error([&run](QueuePair&) { ++run.on_error_calls; });
  sim::FaultInjector& faults = p.fabric.faults();
  const sim::NicAddr a = p.hca_a.addr(), b = p.hca_b.addr();
  faults.set_link_down(a, b, true);
  if (heal_at != 0) {
    p.sched.call_at(heal_at, [&faults, a, b] { faults.set_link_down(a, b, false); });
  }
  obs::Counter& retransmits = obs::registry().counter("verbs.rc.retransmits");
  const std::uint64_t before = retransmits.value();

  EXPECT_TRUE(p.qp_a
                  ->post_send({.wr_id = 3,
                               .opcode = opcode,
                               .local = run.local,
                               .lkey = mr_local.lkey(),
                               .remote_addr = mr_remote.addr(),
                               .rkey = mr_remote.rkey()})
                  .ok());
  p.sched.spawn([](Pair& pb, ResendRun& out) -> Task<> {
    out.wc = co_await pb.cq_a->next();
    out.completed_at = pb.sched.now();
    out.completed = true;
  }(p, run));
  p.sched.run();
  run.retransmits = retransmits.value() - before;
  run.requester_state = p.qp_a->state();
  return run;
}

TEST(RcResend, WriteHealsAfterLinkDownWindow) {
  const ResendRun run = one_sided_across_cut(Opcode::rdma_write, 2_ms);
  ASSERT_TRUE(run.completed);
  EXPECT_EQ(run.wc.status, WcStatus::success);
  EXPECT_EQ(run.wc.opcode, Opcode::rdma_write);
  EXPECT_EQ(run.wc.wr_id, 3u);
  EXPECT_EQ(run.remote, run.local);  // the resent bytes landed
  EXPECT_EQ(run.retransmits, 1u);
  EXPECT_EQ(run.completed_at, 10'005'826u);  // resent by the sweep at 10 ms
  EXPECT_EQ(run.requester_state, QpState::ready);
  EXPECT_EQ(run.on_error_calls, 0);
}

TEST(RcResend, ReadHealsAfterLinkDownWindow) {
  const ResendRun run = one_sided_across_cut(Opcode::rdma_read, 2_ms);
  ASSERT_TRUE(run.completed);
  EXPECT_EQ(run.wc.status, WcStatus::success);
  EXPECT_EQ(run.wc.opcode, Opcode::rdma_read);
  EXPECT_EQ(run.wc.byte_len, 256u);
  EXPECT_EQ(run.local, run.remote);  // the resent read returned the remote bytes
  EXPECT_EQ(run.retransmits, 1u);
  EXPECT_EQ(run.completed_at, 10'005'831u);
  EXPECT_EQ(run.requester_state, QpState::ready);
  EXPECT_EQ(run.on_error_calls, 0);
}

TEST(RcResend, WriteToAPeerThatNeverAnswersExceedsRetries) {
  const ResendRun run = one_sided_across_cut(Opcode::rdma_write, 0);
  ASSERT_TRUE(run.completed);
  EXPECT_EQ(run.wc.status, WcStatus::retry_exceeded);
  EXPECT_EQ(run.wc.opcode, Opcode::rdma_write);
  EXPECT_EQ(run.retransmits, 7u);
  // Resends at 10, 30, 70, 150, 310, 630 and 1270 ms; the last wait ends
  // at 1910 ms.
  EXPECT_EQ(run.completed_at, 1'910'000'000u);
  EXPECT_EQ(run.remote, std::vector<std::byte>(256, std::byte{9}));
  EXPECT_EQ(run.requester_state, QpState::error);
  EXPECT_EQ(run.on_error_calls, 1);
}

TEST(RcResend, ReadFromAPeerThatNeverAnswersExceedsRetries) {
  const ResendRun run = one_sided_across_cut(Opcode::rdma_read, 0);
  ASSERT_TRUE(run.completed);
  EXPECT_EQ(run.wc.status, WcStatus::retry_exceeded);
  EXPECT_EQ(run.wc.opcode, Opcode::rdma_read);
  EXPECT_EQ(run.retransmits, 7u);
  EXPECT_EQ(run.completed_at, 1'910'000'000u);
  EXPECT_EQ(run.local, std::vector<std::byte>(256, std::byte{7}));
  EXPECT_EQ(run.requester_state, QpState::error);
  EXPECT_EQ(run.on_error_calls, 1);
}

// ------------------------------------------------------ responder qp ----

TEST(ResponderQp, RequestToAGoneOrErroredQpCompletesFlushed) {
  // A SEND, RDMA Write or RDMA Read aimed at a QP its HCA destroyed or
  // moved to error is answered flushed, and moves no bytes either way.
  for (const bool destroyed : {true, false}) {
    for (const Opcode opcode : {Opcode::send, Opcode::rdma_write, Opcode::rdma_read}) {
      SCOPED_TRACE(std::string(destroyed ? "destroyed, " : "in error, ") +
                   (opcode == Opcode::send         ? "send"
                    : opcode == Opcode::rdma_write ? "rdma_write"
                                                   : "rdma_read"));
      Pair p;
      p.wire();
      std::vector<std::byte> local(64, std::byte{7}), remote(64, std::byte{9});
      auto& mr_local = p.hca_a.reg_mr(local);
      auto& mr_remote = p.hca_b.reg_mr(remote);
      ASSERT_TRUE(
          p.qp_b->post_recv({.wr_id = 1, .buffer = remote, .lkey = mr_remote.lkey()}).ok());
      if (destroyed) {
        p.hca_b.destroy_qp(*p.qp_b);
      } else {
        p.qp_b->to_error();
      }
      ASSERT_TRUE(p.qp_a
                      ->post_send({.wr_id = 2,
                                   .opcode = opcode,
                                   .local = local,
                                   .lkey = mr_local.lkey(),
                                   .remote_addr = mr_remote.addr(),
                                   .rkey = mr_remote.rkey()})
                      .ok());
      WorkCompletion wc;
      p.sched.spawn([](CompletionQueue& cq, WorkCompletion& out) -> Task<> {
        out = co_await cq.next();
      }(*p.cq_a, wc));
      p.sched.run();
      EXPECT_EQ(wc.wr_id, 2u);
      EXPECT_EQ(wc.opcode, opcode);
      EXPECT_EQ(wc.status, WcStatus::flushed);
      EXPECT_EQ(remote, std::vector<std::byte>(64, std::byte{9}));
      EXPECT_EQ(local, std::vector<std::byte>(64, std::byte{7}));
    }
  }
}

// ---------------------------------------------------------------- srq ----

TEST(Srq, SharedAcrossQps) {
  Pair p;
  SharedReceiveQueue srq;
  auto cq_b2 = p.hca_b.create_cq();
  auto& qp_a1 = p.hca_a.create_qp(*p.cq_a, *p.cq_a);
  auto& qp_a2 = p.hca_a.create_qp(*p.cq_a, *p.cq_a);
  auto& qp_b1 = p.hca_b.create_qp(*p.cq_b, *p.cq_b, &srq);
  auto& qp_b2 = p.hca_b.create_qp(*cq_b2, *cq_b2, &srq);
  qp_a1.connect(p.hca_b.addr(), qp_b1.qp_num());
  qp_b1.connect(p.hca_a.addr(), qp_a1.qp_num());
  qp_a2.connect(p.hca_b.addr(), qp_b2.qp_num());
  qp_b2.connect(p.hca_a.addr(), qp_a2.qp_num());

  std::vector<std::vector<std::byte>> pool(2, std::vector<std::byte>(64));
  auto& mr0 = p.hca_b.reg_mr(pool[0]);
  auto& mr1 = p.hca_b.reg_mr(pool[1]);
  srq.post({.wr_id = 0, .buffer = pool[0], .lkey = mr0.lkey()});
  srq.post({.wr_id = 1, .buffer = pool[1], .lkey = mr1.lkey()});

  std::vector<std::byte> src(32);
  auto& mr_src = p.hca_a.reg_mr(src);
  ASSERT_TRUE(
      qp_a1.post_send({.wr_id = 1, .opcode = Opcode::send, .local = src, .lkey = mr_src.lkey()})
          .ok());
  ASSERT_TRUE(
      qp_a2.post_send({.wr_id = 2, .opcode = Opcode::send, .local = src, .lkey = mr_src.lkey()})
          .ok());

  int got = 0;
  auto drain = [](CompletionQueue& cq, int& res_out) -> Task<> {
    auto wc = co_await cq.next();
    EXPECT_EQ(wc.status, WcStatus::success);
    ++res_out;
  };
  p.sched.spawn(drain(*p.cq_b, got));
  p.sched.spawn(drain(*cq_b2, got));
  p.sched.run();
  EXPECT_EQ(got, 2);
  EXPECT_TRUE(srq.empty());
}

TEST(Srq, HandsOutTheBufferPostedMostRecently) {
  // LIFO: a buffer reposted after use is the next one handed out, so a
  // runtime keeps landing in the same few warm buffers.
  SharedReceiveQueue srq;
  std::vector<std::byte> pool(4 * 64);
  auto wr = [&](std::uint64_t id) {
    return RecvWr{.wr_id = id, .buffer = std::span(pool).subspan(id * 64, 64), .lkey = 1};
  };
  for (std::uint64_t id = 0; id < 4; ++id) srq.post(wr(id));
  EXPECT_EQ(srq.take().wr_id, 3u);
  srq.post(wr(3));
  EXPECT_EQ(srq.take().wr_id, 3u);
  EXPECT_EQ(srq.take().wr_id, 2u);
  srq.post(wr(3));
  EXPECT_EQ(srq.take().wr_id, 3u);
  EXPECT_EQ(srq.depth(), 2u);
  EXPECT_EQ(srq.take().wr_id, 1u);
  EXPECT_EQ(srq.take().wr_id, 0u);
  EXPECT_TRUE(srq.empty());
}

TEST(Srq, QpWithSrqRejectsDirectPostRecv) {
  Pair p;
  SharedReceiveQueue srq;
  auto& qp = p.hca_b.create_qp(*p.cq_b, *p.cq_b, &srq);
  std::vector<std::byte> buf(64);
  auto& mr = p.hca_b.reg_mr(buf);
  EXPECT_EQ(qp.post_recv({.wr_id = 0, .buffer = buf, .lkey = mr.lkey()}).error(),
            Errc::invalid_argument);
}

// ----------------------------------------------------------------- cm ----

TEST(Cm, ConnectEstablishesBothSides) {
  Pair p;
  QueuePair* server_qp = nullptr;
  p.hca_b.listen(4711, {.make_qp = [&] { return &p.hca_b.create_qp(*p.cq_b, *p.cq_b); },
                        .on_established = [&](QueuePair& qp) { server_qp = &qp; }});

  QueuePair* client_qp = nullptr;
  p.sched.spawn([](Pair& pb, QueuePair*& out) -> Task<> {
    auto result = co_await pb.hca_a.connect(pb.hca_b.addr(), 4711, *pb.cq_a, *pb.cq_a);
    EXPECT_TRUE(result.ok());
    out = *result;
  }(p, client_qp));
  p.sched.run();

  ASSERT_NE(client_qp, nullptr);
  ASSERT_NE(server_qp, nullptr);
  EXPECT_EQ(client_qp->state(), QpState::ready);
  EXPECT_EQ(server_qp->state(), QpState::ready);
  EXPECT_EQ(client_qp->remote_qpn(), server_qp->qp_num());
  EXPECT_EQ(server_qp->remote_qpn(), client_qp->qp_num());
}

TEST(Cm, ConnectToClosedPortIsRefused) {
  Pair p;
  Errc err = Errc::ok;
  p.sched.spawn([](Pair& pb, Errc& ec) -> Task<> {
    auto result = co_await pb.hca_a.connect(pb.hca_b.addr(), 9999, *pb.cq_a, *pb.cq_a);
    ec = result.error();
  }(p, err));
  p.sched.run();
  EXPECT_EQ(err, Errc::refused);
}

TEST(Cm, DataFlowsAfterCmHandshake) {
  Pair p;
  std::vector<std::byte> dst(64);
  auto& mr_dst = p.hca_b.reg_mr(dst);
  p.hca_b.listen(80, {.make_qp = [&] { return &p.hca_b.create_qp(*p.cq_b, *p.cq_b); },
                      .on_established = [&](QueuePair& qp) {
                        EXPECT_TRUE(
                            qp.post_recv({.wr_id = 1, .buffer = dst, .lkey = mr_dst.lkey()})
                                .ok());
                      }});

  std::vector<std::byte> src(32, std::byte{9});
  auto& mr_src = p.hca_a.reg_mr(src);
  bool done = false;
  p.sched.spawn([](Pair& pb, std::vector<std::byte>& src2, MemoryRegion& mr, bool& fin) -> Task<> {
    auto result = co_await pb.hca_a.connect(pb.hca_b.addr(), 80, *pb.cq_a, *pb.cq_a);
    EXPECT_TRUE(result.ok());
    QueuePair* qp = *result;
    EXPECT_TRUE(
        qp->post_send({.wr_id = 2, .opcode = Opcode::send, .local = src2, .lkey = mr.lkey()})
            .ok());
    auto wc = co_await pb.cq_a->next();
    EXPECT_EQ(wc.status, WcStatus::success);
    fin = true;
  }(p, src, mr_src, done));

  bool got = false;
  p.sched.spawn([](CompletionQueue& cq, std::vector<std::byte>& dst2, bool& res_out) -> Task<> {
    auto wc = co_await cq.next();
    EXPECT_EQ(wc.status, WcStatus::success);
    EXPECT_EQ(dst2[0], std::byte{9});
    res_out = true;
  }(*p.cq_b, dst, got));

  p.sched.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(got);
}

TEST(Cm, DisconnectFlushesPeer) {
  Pair p;
  p.wire();
  // Peer b posts a recv that will never be matched; disconnect flushes it.
  std::vector<std::byte> dst(64);
  auto& mr_dst = p.hca_b.reg_mr(dst);
  ASSERT_TRUE(p.qp_b->post_recv({.wr_id = 77, .buffer = dst, .lkey = mr_dst.lkey()}).ok());

  p.hca_a.disconnect(*p.qp_a);
  bool flushed = false;
  p.sched.spawn([](CompletionQueue& cq, bool& flushed2) -> Task<> {
    auto wc = co_await cq.next();
    EXPECT_EQ(wc.status, WcStatus::flushed);
    EXPECT_EQ(wc.wr_id, 77u);
    flushed2 = true;
  }(*p.cq_b, flushed));
  p.sched.run();
  EXPECT_TRUE(flushed);
  EXPECT_EQ(p.qp_a->state(), QpState::error);
  EXPECT_EQ(p.qp_b->state(), QpState::error);
}

TEST(Cm, PostAfterDisconnectFails) {
  Pair p;
  p.wire();
  p.hca_a.disconnect(*p.qp_a);
  std::vector<std::byte> src(16);
  auto& mr = p.hca_a.reg_mr(src);
  EXPECT_EQ(p.qp_a->post_send({.wr_id = 1, .opcode = Opcode::send, .local = src,
                               .lkey = mr.lkey()})
                .error(),
            Errc::disconnected);
  p.sched.run();
}

// ---------------------------------------------------------------- ud ----

TEST(Ud, DatagramDeliveredWithSourceAddressing) {
  Pair p;
  auto& qa = p.hca_a.create_ud_qp(*p.cq_a, *p.cq_a);
  auto& qb = p.hca_b.create_ud_qp(*p.cq_b, *p.cq_b);
  EXPECT_EQ(qa.type(), QpType::ud);
  EXPECT_EQ(qa.state(), QpState::ready);  // connectionless: born ready

  std::vector<std::byte> src(128, std::byte{3}), dst(256);
  auto& mr_src = p.hca_a.reg_mr(src);
  auto& mr_dst = p.hca_b.reg_mr(dst);
  ASSERT_TRUE(qb.post_recv({.wr_id = 5, .buffer = dst, .lkey = mr_dst.lkey()}).ok());
  ASSERT_TRUE(qa.post_send({.wr_id = 6,
                            .opcode = Opcode::send,
                            .local = src,
                            .lkey = mr_src.lkey(),
                            .ud_remote_nic = p.hca_b.addr(),
                            .ud_remote_qpn = qb.qp_num()})
                  .ok());
  bool got = false;
  p.sched.spawn([](Pair& pb, QueuePair& qa2, bool& res_out, std::vector<std::byte>& dst2) -> Task<> {
    auto wc = co_await pb.cq_b->next();
    EXPECT_EQ(wc.status, WcStatus::success);
    EXPECT_EQ(wc.byte_len, 128u);
    EXPECT_EQ(wc.src_qp, qa2.qp_num());
    EXPECT_EQ(wc.src_nic, pb.hca_a.addr());
    EXPECT_EQ(dst2[0], std::byte{3});
    res_out = true;
  }(p, qa, got, dst));
  p.sched.run();
  EXPECT_TRUE(got);
}

TEST(Ud, SendCompletesLocallyWithoutAck) {
  Pair p;
  auto& qa = p.hca_a.create_ud_qp(*p.cq_a, *p.cq_a);
  auto& qb = p.hca_b.create_ud_qp(*p.cq_b, *p.cq_b);
  std::vector<std::byte> src(32);
  auto& mr = p.hca_a.reg_mr(src);
  // No recv posted at b: the datagram will be dropped — but the sender
  // still gets a success completion, immediately (local semantics).
  ASSERT_TRUE(qa.post_send({.wr_id = 1,
                            .opcode = Opcode::send,
                            .local = src,
                            .lkey = mr.lkey(),
                            .ud_remote_nic = p.hca_b.addr(),
                            .ud_remote_qpn = qb.qp_num()})
                  .ok());
  auto wc = p.cq_a->poll();
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->status, WcStatus::success);
  p.sched.run();  // the drop at b generates nothing at all
  EXPECT_FALSE(p.cq_b->poll().has_value());
}

TEST(Ud, OversizedDatagramRejectedAtPost) {
  Pair p;
  auto& qa = p.hca_a.create_ud_qp(*p.cq_a, *p.cq_a);
  std::vector<std::byte> src(kUdMtu + 1);
  auto& mr = p.hca_a.reg_mr(src);
  EXPECT_EQ(qa.post_send({.wr_id = 1,
                          .opcode = Opcode::send,
                          .local = src,
                          .lkey = mr.lkey(),
                          .ud_remote_nic = p.hca_b.addr(),
                          .ud_remote_qpn = 1})
                .error(),
            Errc::invalid_argument);
}

TEST(Ud, RdmaOpsRejectedOnUdQp) {
  Pair p;
  auto& qa = p.hca_a.create_ud_qp(*p.cq_a, *p.cq_a);
  std::vector<std::byte> buf(64);
  auto& mr = p.hca_a.reg_mr(buf);
  EXPECT_EQ(qa.post_send({.wr_id = 1,
                          .opcode = Opcode::rdma_read,
                          .local = buf,
                          .lkey = mr.lkey(),
                          .remote_addr = 0x1000,
                          .rkey = 7})
                .error(),
            Errc::invalid_argument);
}

TEST(Ud, TruncatingDatagramBurnsReceive) {
  Pair p;
  auto& qa = p.hca_a.create_ud_qp(*p.cq_a, *p.cq_a);
  auto& qb = p.hca_b.create_ud_qp(*p.cq_b, *p.cq_b);
  std::vector<std::byte> src(512), dst(64);
  auto& mr_src = p.hca_a.reg_mr(src);
  auto& mr_dst = p.hca_b.reg_mr(dst);
  ASSERT_TRUE(qb.post_recv({.wr_id = 9, .buffer = dst, .lkey = mr_dst.lkey()}).ok());
  ASSERT_TRUE(qa.post_send({.wr_id = 1,
                            .opcode = Opcode::send,
                            .local = src,
                            .lkey = mr_src.lkey(),
                            .ud_remote_nic = p.hca_b.addr(),
                            .ud_remote_qpn = qb.qp_num()})
                  .ok());
  bool saw = false;
  p.sched.spawn([](CompletionQueue& cq, bool& saw2) -> Task<> {
    auto wc = co_await cq.next();
    EXPECT_EQ(wc.status, WcStatus::local_protection_error);
    EXPECT_EQ(wc.wr_id, 9u);
    saw2 = true;
  }(*p.cq_b, saw));
  p.sched.run();
  EXPECT_TRUE(saw);
}

TEST(Ud, FabricDropLosesDatagramSilently) {
  Scheduler sched;
  auto link = sim::ib_qdr_link();
  link.drop_per_million = 1000000;  // drop everything
  sim::Fabric fabric{sched, link};
  sim::Host ha{sched, 0, "a", 8}, hb{sched, 1, "b", 8};
  Hca hca_a{sched, fabric, ha}, hca_b{sched, fabric, hb};
  auto cq_a = hca_a.create_cq();
  auto cq_b = hca_b.create_cq();
  auto& qa = hca_a.create_ud_qp(*cq_a, *cq_a);
  auto& qb = hca_b.create_ud_qp(*cq_b, *cq_b);
  std::vector<std::byte> src(16), dst(64);
  auto& mr_src = hca_a.reg_mr(src);
  auto& mr_dst = hca_b.reg_mr(dst);
  ASSERT_TRUE(qb.post_recv({.wr_id = 1, .buffer = dst, .lkey = mr_dst.lkey()}).ok());
  ASSERT_TRUE(qa.post_send({.wr_id = 2,
                            .opcode = Opcode::send,
                            .local = src,
                            .lkey = mr_src.lkey(),
                            .ud_remote_nic = hca_b.addr(),
                            .ud_remote_qpn = qb.qp_num()})
                  .ok());
  sched.run();
  EXPECT_FALSE(cq_b->poll().has_value());           // never arrived
  EXPECT_GT(fabric.nic(1).dropped_messages(), 0u);  // and the fabric knows
}

// ------------------------------------------------------------ timing ----

TEST(Timing, SmallSendLatencyIsAFewMicroseconds) {
  // §I: verbs-level one-way latency on IB is 1-2 us. Measure send-post to
  // recv-completion for 8 bytes on the QDR fabric.
  Pair p;
  p.wire();
  std::vector<std::byte> src(8), dst(8);
  auto& mr_src = p.hca_a.reg_mr(src);
  auto& mr_dst = p.hca_b.reg_mr(dst);
  ASSERT_TRUE(p.qp_b->post_recv({.wr_id = 1, .buffer = dst, .lkey = mr_dst.lkey()}).ok());
  sim::Time done_at = 0;
  p.sched.spawn([](Pair& pb, std::vector<std::byte>& src2, MemoryRegion& mr,
                   sim::Time& done_at2) -> Task<> {
    EXPECT_TRUE(pb.qp_a
                    ->post_send(
                        {.wr_id = 2, .opcode = Opcode::send, .local = src2, .lkey = mr.lkey()})
                    .ok());
    auto wc = co_await pb.cq_b->next();
    EXPECT_EQ(wc.status, WcStatus::success);
    done_at2 = pb.sched.now();
  }(p, src, mr_src, done_at));
  p.sched.run();
  EXPECT_GT(done_at, 500u);     // can't beat the wire
  EXPECT_LT(done_at, 3000u);    // must stay in the verbs ballpark (< 3 us)
}

TEST(Timing, EventDrivenCqAddsInterruptCost) {
  Pair p;
  auto cq_poll = p.hca_b.create_cq(CqMode::polling);
  auto cq_event = p.hca_b.create_cq(CqMode::event_driven);

  sim::Time poll_at = 0, event_at = 0;
  p.sched.spawn([](CompletionQueue& cq, sim::Time& at, Scheduler& s) -> Task<> {
    (void)co_await cq.next();
    at = s.now();
  }(*cq_poll, poll_at, p.sched));
  p.sched.spawn([](CompletionQueue& cq, sim::Time& at, Scheduler& s) -> Task<> {
    (void)co_await cq.next();
    at = s.now();
  }(*cq_event, event_at, p.sched));

  p.sched.call_at(1000, [&] {
    cq_poll->push({});
    cq_event->push({});
  });
  p.sched.run();
  EXPECT_EQ(poll_at, 1000u);
  EXPECT_EQ(event_at, 1000u + kInterruptNs);
}

}  // namespace
}  // namespace rmc::verbs
