// Substrate validation (not a paper figure): raw transport-level
// ping-pong latency and large-message bandwidth for verbs and each socket
// stack, checked against the calibration anchors from §I of the paper:
// verbs small-message latency 1-2 us one-way, sockets-on-IB 20-25 us
// one-way.
#include <cstdio>
#include <vector>

#include "common/table.hpp"
#include "simnet/netparams.hpp"
#include "sockets/stack.hpp"
#include "ucr/runtime.hpp"

using namespace rmc;
using namespace rmc::literals;

namespace {

/// Raw verbs SEND/RECV ping-pong: one-way latency for `size` bytes.
double verbs_one_way_us(sim::LinkParams link, verbs::VerbsCosts costs, std::size_t size,
                        int iters = 200) {
  sim::Scheduler sched;
  sim::Fabric fabric(sched, link);
  sim::Host a(sched, 0, "a", 8), b(sched, 1, "b", 8);
  verbs::Hca ha(sched, fabric, a, costs), hb(sched, fabric, b, costs);
  auto cq_a = ha.create_cq();
  auto cq_b = hb.create_cq();
  auto& qa = ha.create_qp(*cq_a, *cq_a);
  auto& qb = hb.create_qp(*cq_b, *cq_b);
  qa.connect(hb.addr(), qb.qp_num());
  qb.connect(ha.addr(), qa.qp_num());

  std::vector<std::byte> buf_a(size), buf_b(size);
  auto& mr_a = ha.reg_mr(buf_a);
  auto& mr_b = hb.reg_mr(buf_b);

  sim::Time total = 0;
  sched.spawn([](sim::Scheduler& sch, verbs::QueuePair& qa2, verbs::QueuePair& qb2,
                 verbs::CompletionQueue& cq_a2, verbs::CompletionQueue& cq_b2,
                 std::vector<std::byte>& buf_a2, std::vector<std::byte>& buf_b2,
                 verbs::MemoryRegion& mr_a2, verbs::MemoryRegion& mr_b2, int iters2,
                 sim::Time& total2) -> sim::Task<> {
    const sim::Time start = sch.now();
    for (int i = 0; i < iters2; ++i) {
      (void)qb2.post_recv({.wr_id = 1, .buffer = buf_b2, .lkey = mr_b2.lkey()});
      (void)qa2.post_send(
          {.wr_id = 2, .opcode = verbs::Opcode::send, .local = buf_a2, .lkey = mr_a2.lkey()});
      while ((co_await cq_b2.next()).opcode != verbs::Opcode::recv) {
      }
      // pong
      (void)qa2.post_recv({.wr_id = 3, .buffer = buf_a2, .lkey = mr_a2.lkey()});
      (void)qb2.post_send(
          {.wr_id = 4, .opcode = verbs::Opcode::send, .local = buf_b2, .lkey = mr_b2.lkey()});
      while ((co_await cq_a2.next()).opcode != verbs::Opcode::recv) {
      }
    }
    total2 = sch.now() - start;
  }(sched, qa, qb, *cq_a, *cq_b, buf_a, buf_b, mr_a, mr_b, iters, total));
  sched.run();
  return to_us(total) / (2.0 * iters);
}

/// Socket ping-pong: one-way latency for `size` bytes.
double socket_one_way_us(sim::LinkParams link, sock::StackCosts costs, std::size_t size,
                         int iters = 100) {
  sim::Scheduler sched;
  sim::Fabric fabric(sched, link);
  sim::Host a(sched, 0, "a", 8), b(sched, 1, "b", 8);
  sock::NetStack sa(sched, fabric, a, costs), sb(sched, fabric, b, costs);
  sock::Listener& listener = sb.listen(1);
  sched.spawn([](sock::Listener& l, std::size_t size2) -> sim::Task<> {
    sock::Socket* s = co_await l.accept();
    std::vector<std::byte> buf(size2);
    while (true) {
      auto st = co_await s->recv_exact(buf);
      if (!st.ok()) co_return;
      (void)co_await s->send(buf);
    }
  }(listener, size));

  sim::Time total = 0;
  sched.spawn([](sim::Scheduler& sch, sock::NetStack& sa2, sock::NetStack& sb2,
                 std::size_t size2, int iters2, sim::Time& total2) -> sim::Task<> {
    auto r = co_await sa2.connect(sb2.addr(), 1);
    sock::Socket* s = *r;
    std::vector<std::byte> buf(size2);
    const sim::Time start = sch.now();
    for (int i = 0; i < iters2; ++i) {
      (void)co_await s->send(buf);
      (void)co_await s->recv_exact(buf);
    }
    total2 = sch.now() - start;
    s->close();
  }(sched, sa, sb, size, iters, total));
  sched.run();
  return to_us(total) / (2.0 * iters);
}

}  // namespace

int main() {
  std::printf("=== Transport micro-benchmarks (substrate validation) ===\n\n");

  verbs::VerbsCosts qdr_costs{
      .post_wr_ns = 250, .hca_process_ns = 250, .hca_inbound_write_ns = 250};
  verbs::VerbsCosts ddr_costs{
      .post_wr_ns = 350, .hca_process_ns = 350, .hca_inbound_write_ns = 350};

  {
    Table t("one-way latency (us) by payload size",
            {"size", "verbs-QDR", "verbs-DDR", "SDP-QDR", "IPoIB-QDR", "TOE-10GigE",
             "TCP-1GigE"});
    for (std::size_t size : {8u, 256u, 4096u, 65536u}) {
      t.add_row({format_size_label(size),
                 Table::num(verbs_one_way_us(sim::ib_qdr_link(), qdr_costs, size)),
                 Table::num(verbs_one_way_us(sim::ib_ddr_link(), ddr_costs, size)),
                 Table::num(socket_one_way_us(sim::ib_qdr_link(), sock::sdp_ib(), size)),
                 Table::num(socket_one_way_us(sim::ib_qdr_link(), sock::kernel_tcp_ipoib(), size)),
                 Table::num(socket_one_way_us(sim::ten_gige_link(), sock::toe_10ge(), size)),
                 Table::num(socket_one_way_us(sim::one_gige_link(), sock::kernel_tcp_1ge(), size))});
    }
    t.print();
  }

  const double verbs_small = verbs_one_way_us(sim::ib_qdr_link(), qdr_costs, 8);
  const double sdp_small = socket_one_way_us(sim::ib_qdr_link(), sock::sdp_ib(), 8);
  std::printf("\nanchors (paper §I): verbs one-way %.1f us (paper 1-2 us), "
              "sockets-on-IB %.1f us (paper 20-25 us)\n",
              verbs_small, sdp_small);

  // Large-message bandwidth: 4 MB stream in 64 KB messages.
  {
    Table t("achievable bandwidth (MB/s), 64 KiB messages", {"transport", "MB/s"});
    auto bw = [](double us_one_way, std::size_t size) {
      return static_cast<double>(size) / us_one_way;  // bytes/us == MB/s
    };
    t.add_row({"verbs-QDR", Table::num(bw(verbs_one_way_us(sim::ib_qdr_link(), qdr_costs, 65536), 65536), 0)});
    t.add_row({"verbs-DDR", Table::num(bw(verbs_one_way_us(sim::ib_ddr_link(), ddr_costs, 65536), 65536), 0)});
    t.add_row({"SDP-QDR", Table::num(bw(socket_one_way_us(sim::ib_qdr_link(), sock::sdp_ib(), 65536), 65536), 0)});
    t.add_row({"IPoIB-QDR", Table::num(bw(socket_one_way_us(sim::ib_qdr_link(), sock::kernel_tcp_ipoib(), 65536), 65536), 0)});
    t.add_row({"TOE-10GigE", Table::num(bw(socket_one_way_us(sim::ten_gige_link(), sock::toe_10ge(), 65536), 65536), 0)});
    t.print();
  }
  return 0;
}
