#!/usr/bin/env python3
"""rmcbench runner: build, run, check, report and compare.

One workload; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics:

    python3 bench/rmcbench/run.py --workload rpc-small --seed 1 --seconds 10 --trace 0

Every workload, printed as one table and written as one JSON file:

    python3 bench/rmcbench/run.py [--repeat N] [--seed S] [--traced] [--out FILE]
    python3 bench/rmcbench/run.py --smoke
    python3 bench/rmcbench/run.py compare base.json head.json

The metric names, units, directions and bounds come from BENCHMARK.json at
the repository root. README.md beside this file defines every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
DEFAULT_BUILD = ROOT / "build-rmcbench"
HELD_OUT_SEED = 2
RUN_TIMEOUT_S = 170
SMOKE_SCALE = 0.01

# Host speed on a shared machine drifts between plateaus up to 30 % apart
# (a busy sibling hyperthread, frequency, neighbours), for seconds to
# minutes at a time. Every host-time end-to-end metric is therefore
# corrected to a reference speed: scaled by the rate of the frozen
# calibration slice (ref_kernel.cpp) measured around it, over this rate,
# which is the slice's speed in the fast phase of the 4-vCPU Xeon VM the
# benchmark was sized on. bench.raw_host_ops_per_s keeps the uncorrected
# rate.
REF_CAL_MOPS = 11.0

# Profiler scope prefix -> benchmark layer. The benchmark's own root scope
# (bench.window) is the unattributed remainder. The set-up scopes
# (prof.sim.testbed, prof.sim.fleetbed) never run inside the window.
SCOPE_LAYERS = (
    ("prof.sim.sched", "simnet"),
    ("prof.sim.fabric", "simnet"),
    ("prof.sim.pool", "simnet"),
    ("prof.verbs", "verbs"),
    ("prof.ucr", "ucr"),
    ("prof.sock", "sockets"),
    ("prof.mc.client", "memcached"),
    ("prof.mc.server", "memcached"),
    ("prof.mc.rfp", "rfp"),
)
TRACED_LAYERS = ("simnet", "verbs", "ucr", "sockets", "memcached", "rfp")

# End-to-end metrics that differ from run to run: a comparison needs
# several runs of each side to resolve them.
HOST_E2E_METRICS = {"host_ops_per_s", "setup_s", "peak_rss_mb"}
MIN_RUNS = 3

# Per-layer metrics measured in host time. Every other per-layer metric is
# a count or a simulated quantity and must repeat exactly.
HOST_LAYER_METRICS = {
    "simnet.host_ns_per_event",
    "memcached.store_get_host_ns",
    "memcached.store_set_host_ns",
    "core.build_s",
    "core.connect_s",
    "core.populate_s",
    "obs.profiler_attributed_ratio",
    "obs.trace_overhead_ratio",
    "bench.ref_kernel_mops",
    "bench.cal_kernel_mops",
    "bench.raw_host_ops_per_s",
} | {f"{layer}.self_ns_per_op" for layer in TRACED_LAYERS}


def fail(msg: str, code: int = 2) -> None:
    print(f"rmcbench: {msg}", file=sys.stderr)
    raise SystemExit(code)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")
    return {}


# --------------------------------------------------------------- building
def build(build_dir: Path) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources at {ROOT / 'src'}: run from a full checkout")
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "rmcbench-build.log"
    with log.open("w") as out:
        if not (build_dir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                fail(f"configure failed; see {log}", 1)
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", str(build_dir), "--target", "rmcbench", "-j", jobs]
        if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
            fail(f"build failed; see {log}", 1)
    return build_dir / "rmcbench"


def run_binary(binary: Path, workload: str, seed: int, seconds: float, trace: bool,
               scale: float = 1.0, spans: Path | None = None) -> dict:
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--scale", str(scale)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        fail(f"{workload}: workload process exited with {proc.returncode}", 1)
    return json.loads(lines[-1])


# --------------------------------------------------------------- metrics
def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def untraced(raw: dict) -> list[dict]:
    return [r for r in raw["rounds"] if not r["traced"]]


def calibrated_rates(round_: dict) -> list[float]:
    """An untraced round's window rates at the reference speed. Each window
    is scaled by the mean of the calibration slices timed on either side."""
    cal = round_["cal_mops"]
    return [rate * REF_CAL_MOPS * 2.0 / (before + after)
            for rate, before, after in zip(round_["window_rates"], cal, cal[1:])]


def calibrated_setup_s(build: dict) -> float:
    """One build's set-up time at the reference speed, scaled by the
    calibration slice timed just before it."""
    return (build["build_s"] + build["connect_s"] + build["populate_s"]) \
        * build["cal_mops"] / REF_CAL_MOPS


def end_to_end(raw: dict) -> dict[str, float]:
    r0 = raw["rounds"][0]
    sim = r0["sim"]
    windows = [w for r in untraced(raw) for w in calibrated_rates(r)]
    return {
        # The upper quartile: what the correction misses (memory contention,
        # interrupts) only ever slows a window down, and a quartile is still
        # robust to the odd window whose calibration slice was interrupted.
        "host_ops_per_s": quartiles(windows)[2],
        "setup_s": statistics.median(calibrated_setup_s(s) for s in raw["setup"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "sim_ops_per_s": ratio(r0["window_ops"] * 1e9, r0["window_sim_ns"]),
        "sim_get_p50_us": sim["get_p50_us"],
        "sim_get_p99_us": sim["get_p99_us"],
        "sim_set_p50_us": sim["set_p50_us"],
        "sim_set_p99_us": sim["set_p99_us"],
        "hit_ratio": ratio(sim["hits"], sim["lookups"]),
    }


def self_ns_by_layer(profile: dict) -> tuple[dict[str, float], float, float]:
    """Wall self time per layer, the unattributed root self time, and the
    profiling window, all in host ns."""
    by_layer = {layer: 0.0 for layer in TRACED_LAYERS}
    root = 0.0
    for node in profile["nodes"]:
        name = node["name"]
        if name == "bench.window":
            root += node["wall_self_ns"]
            continue
        for prefix, layer in SCOPE_LAYERS:
            if name.startswith(prefix):
                by_layer[layer] += node["wall_self_ns"]
                break
    return by_layer, root, float(profile["window"]["wall_ns"])


def per_layer(raw: dict) -> dict[str, float]:
    r0 = raw["rounds"][0]
    ops = r0["window_ops"]
    c = r0["counters"]
    t = r0["timers"]
    g = r0["gauges"]
    k = r0["kinds"]
    per = lambda name: ratio(c[name], ops)  # noqa: E731
    gets = k["get"]

    def timer_mean(*names: str) -> float:
        count = sum(t[n]["count"] for n in names)
        return ratio(sum(t[n]["count"] * t[n]["mean_ns"] for n in names), count)

    setups = raw["setup"]
    out = {
        "simnet.events_per_op": per("sim.sched.events"),
        "simnet.counter_waits_per_op": per("sim.counter.waits"),
        "simnet.host_ns_per_event": statistics.median(
            ratio(r["window_host_s"] * 1e9, r["counters"]["sim.sched.events"])
            for r in untraced(raw)),
        "simnet.queue_depth_hwm": float(g["sim.sched.queue_depth"]),
        "simnet.packets_per_op": per("sim.fabric.packets"),
        "simnet.wire_bytes_per_op": per("sim.fabric.bytes"),
        "simnet.pool_cached_bytes_hwm": float(r0["pool_cached_bytes_hwm"]),
        "verbs.wrs_per_op": ratio(c["verbs.post.send"] + c["verbs.post.rdma_read"]
                                  + c["verbs.post.rdma_write"] + c["verbs.post.ud_send"], ops),
        "verbs.batched_wrs_per_op": per("verbs.doorbell.batched_wrs"),
        "verbs.cq_polls_per_op": per("verbs.cq.polls"),
        "verbs.cq_completions_per_op": per("verbs.cq.completions"),
        "verbs.read_bytes_per_op": per("verbs.rdma.read_bytes"),
        "verbs.retransmits": float(c["verbs.rc.retransmits"]),
        "ucr.eager_per_op": per("ucr.eager.sends"),
        "ucr.rendezvous_per_op": per("ucr.rendezvous.sends"),
        "ucr.recv_per_op": per("ucr.msgs.received"),
        "ucr.drain_batch_mean": t["ucr.cq.drain_batch"]["mean_ns"],
        "ucr.backlog_stalls_per_op": per("ucr.backlog.stalls"),
        "sockets.segments_per_op": per("sock.segments.sent"),
        "sockets.bytes_per_op": per("sock.bytes.sent"),
        "memcached.requests_per_op": ratio(c["mc.requests.ucr"] + c["mc.requests.text"]
                                           + c["mc.requests.binary"], ops),
        "memcached.stage_parse_ns": t["mc.server.stage.parse"]["mean_ns"],
        "memcached.stage_queue_ns": t["mc.server.stage.queue"]["mean_ns"],
        "memcached.stage_execute_ns": t["mc.server.stage.execute"]["mean_ns"],
        "memcached.stage_format_ns": t["mc.server.stage.format"]["mean_ns"],
        "memcached.worker_queue_hwm": float(g["mc.worker.queue_depth"]),
        "memcached.client_build_ns": timer_mean(
            "mc.latency.get.build", "mc.latency.set.build", "mc.latency.mget.build"),
        "memcached.client_wait_ns": timer_mean(
            "mc.latency.get.wait", "mc.latency.set.wait", "mc.latency.mget.wait"),
        "memcached.client_complete_ns": timer_mean(
            "mc.latency.get.complete", "mc.latency.set.complete", "mc.latency.mget.complete"),
        "memcached.evictions_per_op": per("mc.store.evictions"),
        "memcached.arena_overflows_per_op": per("mc.alloc.arena_overflows"),
        "onesided.reads_per_get": ratio(c["mc.oneside.reads"], gets),
        "onesided.fallback_ratio": ratio(c["mc.oneside.fallbacks"], gets),
        "onesided.torn_retries_per_get": ratio(c["mc.oneside.torn_retries"], gets),
        "onesided.publishes_per_set": ratio(c["mc.oneside.publishes"], k["set"]),
        "rfp.ring_op_ratio": per("mc.rfp.ops"),
        "rfp.fallback_ratio": per("mc.rfp.fallbacks"),
        "rfp.sweeps_per_op": per("mc.rfp.poll.sweeps"),
        "rfp.frames_per_sweep": ratio(c["mc.rfp.poll.frames"], c["mc.rfp.poll.sweeps"]),
        "rfp.parks_per_op": per("mc.rfp.poll.parks"),
        "rfp.wakes_per_op": per("mc.rfp.wakes"),
        "core.build_s": statistics.median(s["build_s"] for s in setups),
        "core.connect_s": statistics.median(s["connect_s"] for s in setups),
        "core.populate_s": statistics.median(s["populate_s"] for s in setups),
        "process.allocs_per_op": ratio(r0["alloc_calls"], ops),
        "process.alloc_bytes_per_op": ratio(r0["alloc_bytes"], ops),
        "bench.ref_kernel_mops": statistics.mean(raw["ref_kernel_mops"]),
        "bench.cal_kernel_mops": statistics.median(c for r in untraced(raw) for c in r["cal_mops"]),
        "bench.raw_host_ops_per_s": statistics.median(
            w for r in untraced(raw) for w in r["window_rates"]),
    }
    traced = [r for r in raw["rounds"] if r["traced"]]
    if traced and "profile" in raw:
        traced_ops = sum(r["window_ops"] for r in traced)
        by_layer, root, window = self_ns_by_layer(raw["profile"])
        for layer, ns in by_layer.items():
            out[f"{layer}.self_ns_per_op"] = ratio(ns, traced_ops)
        out["obs.profiler_attributed_ratio"] = ratio(sum(by_layer.values()), window)
        out["obs.trace_overhead_ratio"] = ratio(
            statistics.median(w for r in untraced(raw) for w in r["window_rates"]),
            statistics.median(w for r in traced for w in r["window_rates"]))
        replay = raw["store_replay"]
        out["memcached.store_get_host_ns"] = replay["get_ns"]
        out["memcached.store_set_host_ns"] = replay["set_ns"]
    return out


# ------------------------------------------------------------ correctness
# What every round must reproduce exactly: everything the simulation decides.
EXACT_ROUND_KEYS = ("window_ops", "window_sim_ns", "sim", "kinds", "counters", "timers", "gauges")
# Heap traffic and pool high-water marks depend on what earlier rounds left
# in the pools, so only round 0 of two processes must agree on them.
ROUND0_KEYS = ("alloc_calls", "alloc_bytes", "pool_cached_bytes_hwm")


def exact_view(round_: dict) -> dict:
    return {key: round_[key] for key in EXACT_ROUND_KEYS}


def check_run(raw: dict) -> list[str]:
    """Correctness failures of one workload process, as messages."""
    name = raw["workload"]
    problems = []
    if raw["threads"] != 1:
        problems.append(f"{name}: {raw['threads']} threads (the process must stay single-threaded)")
    setup_errors = sum(s["errors"] for s in raw["setup"])
    if setup_errors:
        problems.append(f"{name}: {setup_errors} failed set-up steps (connect or populate)")
    base = exact_view(raw["rounds"][0])
    for i, r in enumerate(raw["rounds"]):
        if r["mismatches"]:
            problems.append(f"{name}: round {i}: {r['mismatches']} torn or wrong values")
        if r["errors"]:
            problems.append(f"{name}: round {i}: {r['errors']} failed ops ({r['timeouts']} timeouts)")
        if r["window_ops"] == 0:
            problems.append(f"{name}: round {i}: the measured window never closed")
        elif exact_view(r) != base:
            problems.append(f"{name}: round {i} ({'traced' if r['traced'] else 'untraced'}) "
                            "differs from round 0 in simulated results or ledger counts")
        if r["counters"].get("verbs.rc.retransmits", 0):
            problems.append(f"{name}: round {i}: RC retransmits on a loss-free fabric")
    if raw["seed"] != 1 and raw["stream_hash"] == raw["stream_hash_seed1"]:
        problems.append(f"{name}: seed {raw['seed']} generates the same op stream as seed 1")
    return problems


def attempted_failed(raw: dict) -> tuple[int, int]:
    attempted = sum(r["attempted"] for r in raw["rounds"])
    failed = sum(r["errors"] + r["mismatches"] for r in raw["rounds"])
    failed += sum(s["errors"] for s in raw["setup"])
    return attempted, failed


# ------------------------------------------------------- one-workload mode
def single(args: argparse.Namespace, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    binary = args.build_dir / "rmcbench" if args.no_build else build(args.build_dir)
    spans = args.build_dir / f"rmcbench-spans-{args.workload}.json" if args.trace else None
    raw = run_binary(binary, args.workload, args.seed, args.seconds, bool(args.trace),
                     spans=spans)
    problems = check_run(raw)
    for p in problems:
        print(p, file=sys.stderr)
    values = per_layer(raw) if args.trace else end_to_end(raw)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in listed:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<34} {value:>16.6g} {m['unit']}")
    attempted, failed = attempted_failed(raw)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


# ----------------------------------------------------------- report mode
def summarize(values: list[float]) -> dict:
    med, q1, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "values": values}


def report(args: argparse.Namespace, spec: dict) -> int:
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    binary = args.build_dir / "rmcbench" if args.no_build else build(args.build_dir)
    scale = SMOKE_SCALE if args.smoke else 1.0
    traced = args.traced or args.smoke

    problems: list[str] = []
    results: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    first_view: dict[str, dict] = {}
    windows: dict[str, list[float]] = {w: [] for w in workloads}
    kernel: list[float] = []
    for rep in range(args.repeat):
        for w in workloads:
            # A traced process runs untraced rounds too (round 0 first), and
            # the end-to-end numbers come only from those.
            spans = args.build_dir / f"rmcbench-spans-{w}.json" if traced else None
            raw = run_binary(binary, w, args.seed, args.seconds, traced, scale, spans)
            problems += check_run(raw)
            r0 = raw["rounds"][0]
            view = exact_view(r0) | {key: r0[key] for key in ROUND0_KEYS}
            if first_view.setdefault(w, view) != view:
                problems.append(f"{w}: repeat {rep} differs from repeat 0 in simulated results "
                                "or ledger counts")
            kernel += raw["ref_kernel_mops"]
            into = results[w]
            windows[w] += [x for r in untraced(raw) for x in calibrated_rates(r)]
            for name, v in end_to_end(raw).items():
                into.setdefault(name, []).append(v)
            if traced:
                for name, v in per_layer(raw).items():
                    into.setdefault(name, []).append(v)
                try:
                    json.loads(spans.read_text())
                except (OSError, json.JSONDecodeError):
                    problems.append(f"{w}: the span file {spans} does not load as JSON")
            print(f"ran {w} (repeat {rep}{', traced' if traced else ''})", file=sys.stderr)

    rows = []
    summary: dict[str, dict[str, dict]] = {}
    for m in spec["end_to_end"] + spec["per_layer"]:
        for w in workloads:
            values = results[w].get(m["name"])
            if values is None:
                continue
            s = summarize(values)
            summary.setdefault(w, {})[m["name"]] = {"unit": m["unit"], **s}
            rows.append((m["name"], w, m["unit"], s))
            if m["name"] == "host_ops_per_s":
                # The run values are per-run window upper quartiles; the pooled
                # windows show the spread inside the runs.
                s = summarize(windows[w])
                summary[w]["host_ops_per_s"]["windows"] = {k: s[k] for k in ("median", "q1", "q3", "n")}
                rows.append(("host_ops_per_s (windows)", w, m["unit"], s))
    print(f"{'metric':<34} | {'workload':<16} | {'unit':<9} | {'median':>13} | {'q1':>13} | "
          f"{'q3':>13} | n")
    for name, w, unit, s in rows:
        print(f"{name:<34} | {w:<16} | {unit:<9} | {s['median']:>13.6g} | {s['q1']:>13.6g} | "
              f"{s['q3']:>13.6g} | {s['n']}")
    print(f"bench.ref_kernel_mops (all samples): median {statistics.median(kernel):.4g}")

    if args.smoke:
        for m in spec["end_to_end"] + spec["per_layer"]:
            for w in workloads:
                if m["name"] not in summary.get(w, {}):
                    problems.append(f"{w}: metric {m['name']} was not printed")
    out = {"benchmark": "rmcbench", "seed": args.seed, "repeat": args.repeat,
           "smoke": args.smoke, "ref_kernel_mops": kernel, "units": units,
           "results": summary, "problems": problems}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {args.out}")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


# ---------------------------------------------------------- compare mode
def compare(base_path: Path, head_path: Path, spec: dict) -> int:
    base = json.loads(base_path.read_text())
    head = json.loads(head_path.read_text())
    print(f"{'metric':<30} | {'workload':<16} | {'base':>12} | {'head':>12} | {'change':>8} | verdict")
    worse = 0
    for m in spec["end_to_end"]:
        for w in sorted(set(base["results"]) & set(head["results"])):
            b = base["results"][w].get(m["name"])
            h = head["results"][w].get(m["name"])
            if b is None or h is None:
                continue
            sign = 1.0 if m["better"] == "higher" else -1.0
            change = sign * ratio(h["median"] - b["median"], abs(b["median"]))
            spread = max(ratio(s["q3"] - s["q1"], abs(s["median"])) for s in (b, h))
            if m["name"] in HOST_E2E_METRICS and min(b["n"], h["n"]) < MIN_RUNS:
                verdict = f"unresolved (fewer than {MIN_RUNS} runs a side)"
            elif spread > m["bound"]:
                # A wide spread still resolves when one side wins every pairing.
                better_all = all(sign * (hv - bv) > 0 for hv in h["values"] for bv in b["values"])
                worse_all = all(sign * (hv - bv) < 0 for hv in h["values"] for bv in b["values"])
                verdict = "better" if better_all else "worse" if worse_all else "unresolved"
            elif change < -m["bound"]:
                verdict = "worse"
            elif change > m["bound"]:
                verdict = "better"
            else:
                verdict = "within bound"
            worse += verdict == "worse"
            print(f"{m['name']:<30} | {w:<16} | {b['median']:>12.6g} | {h['median']:>12.6g} | "
                  f"{change * 100:>+7.2f}% | {verdict}")

    print("\nper-layer ledger (exact metrics must not move unless the change names them):")
    moved = 0
    for m in spec["per_layer"]:
        for w in sorted(set(base["results"]) & set(head["results"])):
            b = base["results"][w].get(m["name"])
            h = head["results"][w].get(m["name"])
            if b is None or h is None:
                continue
            host = m["name"] in HOST_LAYER_METRICS
            same = (abs(h["median"] - b["median"]) <= 0.05 * abs(b["median"]) if host
                    else math.isclose(h["median"], b["median"], rel_tol=1e-12, abs_tol=1e-12))
            if not same:
                moved += 1
                print(f"  {m['name']:<34} {w:<16} {b['median']:>14.6g} -> {h['median']:<14.6g}"
                      f"{' (host)' if host else ''}")
    if not moved:
        print("  nothing moved")

    kb = statistics.median(base["ref_kernel_mops"])
    kh = statistics.median(head["ref_kernel_mops"])
    drift = ratio(kh - kb, kb)
    print(f"\nbench.ref_kernel_mops: base {kb:.4g}, head {kh:.4g} ({drift * 100:+.1f}%)")
    if abs(drift) > 0.05:
        print("WARNING: the machine-speed sentinel moved by more than 5 %; host-time verdicts "
              "above may reflect the machine, not the change. Re-run both sides interleaved.")
    return 1 if worse else 0


def main(argv: list[str]) -> int:
    spec = load_spec()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            fail("usage: run.py compare base.json head.json")
        return compare(Path(argv[1]), Path(argv[2]), spec)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="run one workload; the last stdout line is its JSON result")
    ap.add_argument("--workloads", help="comma-separated subset for the table (default: all)")
    ap.add_argument("--seed", type=int, default=1, help=f"workload seed (held-out: {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="measured host time per process: seconds / 5 rounds, at least one")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 1 prints the per-layer metrics of a traced run")
    ap.add_argument("--traced", action="store_true",
                    help="table mode: traced processes, which also run the untraced rounds "
                    "the end-to-end metrics come from")
    ap.add_argument("--repeat", type=int, default=1, help="table mode: round-robin repeats")
    ap.add_argument("--smoke", action="store_true",
                    help=f"{SMOKE_SCALE:.0%} of the ops on every workload, traced, all checks")
    ap.add_argument("--build-dir", type=Path, default=DEFAULT_BUILD)
    ap.add_argument("--no-build", action="store_true", help="use an already-built binary")
    ap.add_argument("--out", type=Path, default=None, help="table mode: JSON output file")
    args = ap.parse_args(argv)
    args.build_dir = args.build_dir.resolve()
    if args.out is None:
        args.out = args.build_dir / ("rmcbench-smoke.json" if args.smoke else "rmcbench-results.json")
    if args.workload:
        return single(args, spec)
    return report(args, spec)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
