// RFP server-bypass RPC evaluation (DESIGN.md §16): the paper's RPC
// path versus one-sided RDMA-read GETs (§9) versus remote-fetch rings
// (RFP) across value sizes on both cluster profiles — plus an RPC vs
// RFP SET sweep, the case one-sided reads cannot accelerate at all.
//
// Expected shape: RFP beats RPC at small sizes in BOTH directions (the
// data path is two inbound RDMA Writes; no SEND, no receive buffer, no
// CQ wake-up on either side) while keeping the server CPU executing the
// op — so unlike the one-sided path it accelerates SETs, arithmetic and
// deletes too. Oversized SETs are caught client-side and match the RPC
// line exactly; oversized GET *replies* are only discovered at the
// server, so the 4K GET row pays a ring probe plus the RPC re-run —
// the visible price of mis-sizing slots for the value distribution.
//
// `--seed <n>` reruns under a different deterministic workload stream;
// `--tie-breaker insertion` runs every cell with the insertion-mode
// explorer installed, which must leave the output byte-identical.
#include <cstdio>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "fig_common.hpp"

using namespace rmc;
using namespace rmc::bench;

namespace {

using Mode = mc::ClientBehavior::Mode;

double run_mode(core::ClusterKind cluster, Mode mode, core::OpPattern pattern,
                std::uint32_t value_size, std::uint64_t seed) {
  core::TestBedConfig config;
  config.cluster = cluster;
  config.transport = core::TransportKind::ucr_verbs;
  config.client.mode = mode;
  core::TestBed bed(config);
  if (sim::TieBreaker* breaker = cell_tie_breaker()) bed.scheduler().set_tie_breaker(breaker);
  core::WorkloadConfig workload;
  workload.pattern = pattern;
  workload.value_size = value_size;
  workload.ops_per_client = 400;
  workload.seed = seed;
  return core::run_workload(bed, workload).mean_latency_us();
}

struct GetCell {
  double rpc_us = 0;
  double one_us = 0;
  double rfp_us = 0;
};

struct SetCell {
  double rpc_us = 0;
  double rfp_us = 0;
};

std::vector<GetCell> get_sweep(core::ClusterKind cluster, const std::vector<std::uint32_t>& sizes,
                               std::uint64_t seed, const char* title, bool csv) {
  std::vector<GetCell> cells;
  for (std::uint32_t size : sizes) {
    GetCell cell;
    cell.rpc_us = run_mode(cluster, Mode::rpc, core::OpPattern::pure_get, size, seed);
    cell.one_us = run_mode(cluster, Mode::onesided_get, core::OpPattern::pure_get, size, seed);
    cell.rfp_us = run_mode(cluster, Mode::rfp, core::OpPattern::pure_get, size, seed);
    cells.push_back(cell);
  }
  if (csv) {
    std::printf("# %s\nsize,rpc_us,onesided_us,rfp_us\n", title);
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      std::printf("%u,%.3f,%.3f,%.3f\n", sizes[i], cells[i].rpc_us, cells[i].one_us,
                  cells[i].rfp_us);
    }
    std::printf("\n");
  } else {
    Table table(title, {"size", "rpc us", "1-sided us", "rfp us", "rfp speedup"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      table.add_row({format_size_label(sizes[i]), Table::num(cells[i].rpc_us),
                     Table::num(cells[i].one_us), Table::num(cells[i].rfp_us),
                     Table::num(cells[i].rpc_us / cells[i].rfp_us, 2) + "x"});
    }
    table.print();
    std::printf("\n");
  }
  return cells;
}

std::vector<SetCell> set_sweep(core::ClusterKind cluster, const std::vector<std::uint32_t>& sizes,
                               std::uint64_t seed, const char* title, bool csv) {
  std::vector<SetCell> cells;
  for (std::uint32_t size : sizes) {
    SetCell cell;
    cell.rpc_us = run_mode(cluster, Mode::rpc, core::OpPattern::pure_set, size, seed);
    cell.rfp_us = run_mode(cluster, Mode::rfp, core::OpPattern::pure_set, size, seed);
    cells.push_back(cell);
  }
  if (csv) {
    std::printf("# %s\nsize,rpc_us,rfp_us\n", title);
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      std::printf("%u,%.3f,%.3f\n", sizes[i], cells[i].rpc_us, cells[i].rfp_us);
    }
    std::printf("\n");
  } else {
    Table table(title, {"size", "rpc us", "rfp us", "rfp speedup"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      table.add_row({format_size_label(sizes[i]), Table::num(cells[i].rpc_us),
                     Table::num(cells[i].rfp_us),
                     Table::num(cells[i].rpc_us / cells[i].rfp_us, 2) + "x"});
    }
    table.print();
    std::printf("\n");
  }
  return cells;
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = csv_mode(argc, argv);
  init_tie_breaker(argc, argv);
  const std::string profile_file = profile_path(argc, argv);
  const std::uint64_t seed = seed_arg(argc, argv);
  const std::vector<std::uint32_t> sizes{4, 64, 256, 1024, 4096};

  std::printf("=== RFP rings: RPC vs one-sided Read vs remote-fetch ===\n\n");
  (void)get_sweep(core::ClusterKind::cluster_a, sizes, seed, "Cluster A (DDR) pure Get", csv);
  const auto get_qdr =
      get_sweep(core::ClusterKind::cluster_b, sizes, seed, "Cluster B (QDR) pure Get", csv);
  (void)set_sweep(core::ClusterKind::cluster_a, sizes, seed, "Cluster A (DDR) pure Set", csv);
  const auto set_qdr =
      set_sweep(core::ClusterKind::cluster_b, sizes, seed, "Cluster B (QDR) pure Set", csv);

  // Headlines: the acceptance criteria — RFP beats the classic RPC on
  // small-value GETs AND SETs on the QDR profile. Index 1 is 64 B.
  const GetCell& ghead = get_qdr[1];
  const SetCell& shead = set_qdr[1];
  std::printf("headline: QDR 64B get RPC=%.3fus rfp=%.3fus (%.2fx); set RPC=%.3fus rfp=%.3fus (%.2fx)\n",
              ghead.rpc_us, ghead.rfp_us, ghead.rpc_us / ghead.rfp_us, shead.rpc_us, shead.rfp_us,
              shead.rpc_us / shead.rfp_us);

  // --trace <file>: one representative traced cell (RFP 64 B GETs on
  // QDR) with the same op count; the frame path is what's interesting.
  const std::string trace_file = arg_value(argc, argv, "--trace");
  if (!trace_file.empty()) {
    obs::tracer().enable();
    const double traced =
        run_mode(core::ClusterKind::cluster_b, Mode::rfp, core::OpPattern::pure_get, 64, seed);
    std::printf("traced cell: QDR 64B rfp=%.3fus\n", traced);
    write_trace(trace_file);
  }
  dump_metrics_if_requested(argc, argv);
  dump_latency_if_requested(argc, argv);
  write_profile(profile_file);
  return 0;
}
