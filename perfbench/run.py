#!/usr/bin/env python3
"""tcells benchmark: builds perfbench_cycle, runs cycles, reports metrics.

    python3 perfbench/run.py --workload crowd_collect --seed 1 \
        --seconds 44 --trace 0

Each workload runs as repeated cycles, one perfbench_cycle process per cycle:
a fresh fleet and Engine, one warm-up query, then a fixed number of measured
queries (see README.md). Another cycle starts while it is predicted to end
within --seconds; only completed cycles are pooled. --trace 0 reports the
end-to-end metrics of untraced cycles. --trace 1 runs pairs of cycles with
the same inputs, one untraced and one traced, and reports the per-layer
metrics.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The line before it is a report with the machine block,
the steal share and the raw per-cycle figures.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
CYCLE_BIN = os.path.join(BUILD_DIR, "perfbench_cycle")

WORKLOADS = ("crowd_collect", "wide_groups", "concurrent_mix")
# A run must end within 180 s: no cycle process may outlive RUN_LIMIT_S.
CYCLE_TIMEOUT_S = 150
RUN_LIMIT_S = 170

# SSI verbs reported per query; the bulk ones also report items.
SSI_VERBS = (
    "fetch_posts_batch", "upload_collection_batch", "size_reached",
    "take_collected", "stage_partition", "fetch_partition",
    "upload_round_output", "take_round_output", "deliver_result",
    "fetch_result", "retire", "fetch_epoch_block",
)
SSI_BULK_VERBS = ("fetch_posts_batch", "upload_collection_batch",
                  "take_collected", "fetch_partition")
NET_COUNTERS = ("frames_sent", "calls_sent", "bytes_sent", "retries",
                "deadline_hits")


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Build


def build():
    """Configures (once) and builds perfbench_cycle; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no tcells sources next to perfbench/ (src/ missing)")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "perfbench_cycle", "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)


# ---------------------------------------------------------------------------
# Cycles


def run_cycle(workload, seed, cycle, mode, scale, timeout_s):
    """Runs one cycle process; returns its JSON, or None when it failed."""
    cmd = [CYCLE_BIN, "--workload", workload, "--seed", str(seed),
           "--cycle", str(cycle), "--mode", mode, "--scale", scale]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=max(0.001, timeout_s))
    except subprocess.TimeoutExpired:
        print(f"perfbench: cycle {cycle} ({mode}) timed out", file=sys.stderr)
        return None
    if proc.returncode == 2:
        raise BenchError(f"perfbench_cycle refused to run {workload}")
    if proc.returncode != 0:
        print(f"perfbench: cycle {cycle} ({mode}) exited "
              f"{proc.returncode}", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run_cycles(workload, seed, seconds, traced, scale="full"):
    """Runs cycles (untraced/traced pairs with --trace 1) while the next one
    is predicted to end within `seconds`; the first always runs. Returns
    (completed untraced cycles, completed traced cycles, failed cycles)."""
    t0 = time.monotonic()
    untraced, traced_cycles, durations = [], [], []
    cycle = 0
    while True:
        start = time.monotonic()
        modes = ("untraced", "traced") if traced else ("untraced",)
        done = []
        for mode in modes:
            left = RUN_LIMIT_S - (time.monotonic() - t0)
            result = run_cycle(workload, seed, cycle, mode, scale,
                               min(CYCLE_TIMEOUT_S, left))
            if result is None:
                return untraced, traced_cycles, 1
            done.append(result)
        untraced.append(done[0])
        if traced:
            traced_cycles.append(done[1])
        durations.append(time.monotonic() - start)
        cycle += 1
        elapsed = time.monotonic() - t0
        if elapsed + statistics.fmean(durations) > seconds:
            return untraced, traced_cycles, 0


# ---------------------------------------------------------------------------
# Aggregation


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def queries(cycles):
    return [q for c in cycles for q in c["queries"]]


def is_solo(cycles):
    return cycles[0]["clients"] == 1


def p50_latency_ms(cycles):
    """Median latency; with several protocols, the mean of the two middle
    per-protocol medians (a pooled median would fall between protocols)."""
    qs = queries(cycles)
    by_protocol = {}
    for q in qs:
        by_protocol.setdefault(q["protocol"], []).append(q["latency_ms"])
    if len(by_protocol) == 1:
        return median([q["latency_ms"] for q in qs])
    medians = sorted(median(v) for v in by_protocol.values())
    mid = len(medians) // 2
    if len(medians) % 2:
        return medians[mid]
    return (medians[mid - 1] + medians[mid]) / 2


def busy_window(cycle):
    """The span in which every client is busy: from the last client's first
    submit to the first client's last completion (seconds, cycle-relative)."""
    per_client = {}
    for q in cycle["queries"]:
        per_client.setdefault(q["client"], []).append(q)
    start = max(min(q["start_s"] for q in qs) for qs in per_client.values())
    end = min(max(q["end_s"] for q in qs) for qs in per_client.values())
    return start, end


def qps(cycles):
    """Oracle-correct queries per second of measured wall. A solo client's
    measured wall is its summed latency (the oracle check between queries is
    excluded); concurrent clients count completions inside the busy window."""
    if is_solo(cycles):
        qs = queries(cycles)
        wall = sum(q["latency_ms"] for q in qs) / 1000.0
        return sum(1 for q in qs if q["ok"]) / wall
    done, wall = 0, 0.0
    for c in cycles:
        start, end = busy_window(c)
        wall += end - start
        done += sum(1 for q in c["queries"]
                    if q["ok"] and start < q["end_s"] <= end)
    return done / wall if wall > 0 else 0.0


def inflight_mean(cycles):
    """Queries in flight on average inside the busy window."""
    busy, wall = 0.0, 0.0
    for c in cycles:
        start, end = busy_window(c)
        wall += end - start
        for q in c["queries"]:
            busy += max(0.0, min(end, q["end_s"]) - max(start, q["start_s"]))
    return busy / wall if wall > 0 else 0.0


def outcome_counts(cycles):
    """(attempted, oracle-matched) over every query, warm-ups included."""
    attempted = sum(1 + len(c["queries"]) for c in cycles)
    matched = sum(int(c["warm_ok"]) + sum(1 for q in c["queries"] if q["ok"])
                  for c in cycles)
    return attempted, matched


def rss_growth(cycle):
    """Growth per measured query of the memory the program holds through
    malloc, from after the warm-up to after the last query (both with no
    query in flight). The plain resident set jumps by 40-90 MB at random
    queries when glibc arenas grow for the threads each query starts, and
    on concurrent_mix, memory that malloc holds free moves by +-15 MB
    between cycles; neither is memory the program retains."""
    return ((cycle["heap_end_mb"] - cycle["heap_setup_mb"]) /
            len(cycle["queries"]))


def end_to_end(cycles):
    attempted, matched = outcome_counts(cycles)
    qs = queries(cycles)
    return {
        "setup_s": (median([c["setup_s"] for c in cycles]), "s"),
        "query_p50_ms": (p50_latency_ms(cycles), "ms"),
        "qps": (qps(cycles), "1/s"),
        "success_share": (matched / attempted, "ratio"),
        "rss_setup_mb": (median([c["rss_setup_mb"] for c in cycles]), "MB"),
        "rss_growth_mb_per_query": (median([rss_growth(c) for c in cycles]),
                                    "MB"),
        "load_q_mb": (mean([q["load_bytes"] / 1e6 for q in qs]), "MB"),
        "tq_model_s": (mean([q["tq_s"] for q in qs]), "sim_s"),
    }


def latency_drift(cycle):
    """Median latency of the cycle's last quarter of queries over its first
    quarter (queries ordered by their position k in the client loop)."""
    k_max = cycle["queries_per_client"]
    quarter = max(1, k_max // 4)
    first = [q["latency_ms"] for q in cycle["queries"] if q["k"] < quarter]
    last = [q["latency_ms"] for q in cycle["queries"]
            if q["k"] >= k_max - quarter]
    return median(last) / median(first)


def phases_ms(q):
    return q["collection_ms"] + q["aggregation_ms"] + q["filtering_ms"]


def net_delta(cycle):
    return {k: cycle["net_end"][k] - cycle["net_after_warmup"][k]
            for k in cycle["net_end"]}


def per_layer(untraced, traced):
    """Per-layer metrics of a --trace 1 run (units in the second slot)."""
    m = {}
    uq, tq = queries(untraced), queries(traced)
    n_traced = len(tq)

    # tcells: the engine path, timed at Engine::Create/Submit/QueryHandle.
    m["tcells.provision_s"] = (median([c["provision_s"] for c in untraced]),
                               "s")
    m["tcells.create_s"] = (median([c["create_s"] for c in untraced]), "s")
    m["tcells.discover_s"] = (median([c["discover_s"] for c in untraced]),
                              "s")
    m["tcells.first_query_ms"] = (
        median([c["first_query_ms"] for c in untraced]), "ms")
    m["tcells.submit_us"] = (median([q["submit_us"] for q in uq]), "us")
    m["tcells.queue_wait_ms"] = (mean([q["queue_wait_ms"] for q in uq]), "ms")
    m["tcells.latency_drift"] = (median([latency_drift(c) for c in untraced]),
                                 "ratio")
    m["tcells.queries_measured"] = (len(uq) + n_traced, "count")
    m["tcells.inflight_mean"] = (inflight_mean(untraced), "count")

    # protocol: RunOutcome::metrics of the traced queries.
    m["protocol.collection_ms"] = (median([q["collection_ms"] for q in tq]),
                                   "ms")
    m["protocol.aggregation_ms"] = (median([q["aggregation_ms"] for q in tq]),
                                    "ms")
    m["protocol.filtering_ms"] = (median([q["filtering_ms"] for q in tq]),
                                  "ms")
    m["protocol.unattributed_ms"] = (
        median([q["latency_ms"] - phases_ms(q) for q in tq]), "ms")
    m["protocol.unattributed_share"] = (
        median([(q["latency_ms"] - phases_ms(q)) / q["latency_ms"]
                for q in tq]),
        "ratio")
    m["protocol.collection_share"] = (
        median([q["collection_ms"] / q["latency_ms"] for q in tq]), "ratio")
    m["protocol.rounds_share"] = (
        median([(q["aggregation_ms"] + q["filtering_ms"]) / q["latency_ms"]
                for q in tq]), "ratio")
    m["protocol.collection_ticks"] = (mean([q["collection_ticks"]
                                            for q in tq]), "count")
    m["protocol.rounds"] = (mean([q["rounds"] for q in tq]), "count")
    m["protocol.partitions"] = (mean([q["partitions"] for q in tq]), "count")
    m["protocol.tuples"] = (mean([q["tuples"] for q in tq]), "count")
    m["protocol.ns_per_tuple_query_path"] = (
        median([(q["aggregation_ms"] + q["filtering_ms"]) * 1e6 / q["tuples"]
                for q in tq if q["tuples"]]), "ns")
    m["protocol.collection_contributions_per_s"] = (
        median([q["participants"] / (q["collection_ms"] / 1000.0)
                for q in tq if q["collection_ms"] > 0]), "1/s")

    # ssi: the TimedSsi decorator, per traced query.
    for verb in SSI_VERBS:
        stats = [q["ssi"][verb] for q in tq]
        m[f"ssi.{verb}.calls"] = (mean([s["calls"] for s in stats]), "count")
        m[f"ssi.{verb}.ms"] = (mean([s["ms"] for s in stats]), "ms")
        m[f"ssi.{verb}.errors"] = (mean([s["errors"] for s in stats]),
                                   "count")
        if verb in SSI_BULK_VERBS:
            m[f"ssi.{verb}.items"] = (mean([s["items"] for s in stats]),
                                      "count")
    m["ssi.busy_share"] = (median([q["ssi_busy_ms"] / q["latency_ms"]
                                   for q in tq]), "ratio")

    # net: Engine::metrics() over the traced cycles' measured queries.
    deltas = [net_delta(c) for c in traced]
    for key in NET_COUNTERS:
        m[f"net.{key}"] = (sum(d[key] for d in deltas) / n_traced, "count")
    m["net.calls_per_frame_mean"] = (
        sum(d["calls_sent"] for d in deltas) /
        max(1, sum(d["frames_sent"] for d in deltas)), "ratio")
    m["engine.partitions_lost"] = (sum(d["partitions_lost"] for d in deltas),
                                   "count")

    # tds: phase wall during which no SSI call of that phase was in flight.
    m["tds.collection_self_ms"] = (
        median([q["collection_ms"] - q["ssi_collection_busy_ms"] for q in tq]),
        "ms")
    m["tds.round_self_ms"] = (
        median([q["aggregation_ms"] + q["filtering_ms"] -
                q["ssi_round_busy_ms"] for q in tq]), "ms")

    # keys: dynamic-key Engine::Create minus static, same fleet.
    if traced[0]["dynamic_keys"]:
        keys_setup = (median([c["create_s"] for c in traced]) -
                      median([c["static_create_s"] for c in traced]))
    else:
        keys_setup = 0.0
    m["keys.setup_s"] = (keys_setup, "s")
    m["keys.contributions_rejected"] = (
        sum(q["contributions_rejected"] for q in uq + tq), "count")

    # sim: the §6.1 cost model.
    m["sim.p_tds"] = (median([q["p_tds"] for q in tq]), "count")
    m["sim.tlocal_s"] = (median([q["tlocal_s"] for q in tq]), "sim_s")

    # host.
    m["host.busy_cores"] = (median([c["cpu_s"] / c["window_s"]
                                    for c in untraced]), "cores")
    m["host.steal_share"] = (steal_share(untraced + traced), "ratio")

    m["trace.overhead_ms"] = (p50_latency_ms(traced) -
                              p50_latency_ms(untraced), "ms")
    return m


def steal_share(cycles):
    return mean([c["steal_share"] for c in cycles])


def frame_check(untraced, traced):
    """Decorator fidelity: a traced cycle must put the same calls on the
    wire as its untraced twin. Returns a list of mismatch descriptions."""
    problems = []
    if not is_solo(untraced):
        return problems  # concurrent clients interleave frames differently
    for u, t in zip(untraced, traced):
        nu, nt = u["net_end"], t["net_end"]
        if nu["calls_sent"] != nt["calls_sent"]:
            problems.append(f"cycle seed {u['cycle_seed']}: calls_sent "
                            f"{nu['calls_sent']} untraced vs "
                            f"{nt['calls_sent']} traced")
        # Group commit may coalesce concurrent round calls into frames
        # differently between two identical runs (a few frames in 10^5);
        # a decorator that unbatched a bulk verb would change it by far more.
        frames_gap = abs(nu["frames_sent"] - nt["frames_sent"])
        if frames_gap > 0.01 * nu["frames_sent"]:
            problems.append(f"cycle seed {u['cycle_seed']}: frames_sent "
                            f"{nu['frames_sent']} untraced vs "
                            f"{nt['frames_sent']} traced")
    return problems


# ---------------------------------------------------------------------------
# Machine fingerprint


def machine(cycles):
    cpu_model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and cpu_model == "unknown":
                    cpu_model = value.strip()
                elif key == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    return {
        "cpu_model": cpu_model,
        "nproc": len(os.sched_getaffinity(0)),
        "aes_ni": "aes" in flags,
        "sha_ni": "sha_ni" in flags,
        "kernel": platform.release(),
        "compiler": cycles[0]["compiler"],
        "build_type": cycles[0]["build_type"],
    }


# ---------------------------------------------------------------------------


def measure(workload, seed, seconds, trace):
    """Runs the benchmark; returns (report, result) dictionaries."""
    untraced, traced, failed_cycles = run_cycles(workload, seed, seconds,
                                                 trace)
    if not untraced:
        raise BenchError("no cycle completed")
    attempted, matched = outcome_counts(untraced + traced)
    problems = []
    for c in untraced + traced:
        for q in c["queries"]:
            if not q["ok"]:
                problems.append(f"query {q['k']} of client {q['client']} "
                                f"({q['protocol']}): {q['error']}")
        if not c["warm_ok"]:
            problems.append(f"warm-up query: {c['warm_error']}")
    if failed_cycles:
        problems.append(f"{failed_cycles} cycle(s) did not complete")
    if trace:
        problems += frame_check(untraced, traced)
        metrics = per_layer(untraced, traced)
    else:
        metrics = end_to_end(untraced)
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "machine": machine(untraced),
        "host.steal_share": steal_share(untraced + traced),
        "cycles": len(untraced) + len(traced),
        "problems": problems,
        "cycle_summaries": [
            {k: c[k] for k in ("mode", "cycle_seed", "setup_s", "rss_setup_mb",
                               "rss_end_mb", "window_s", "steal_share")}
            | {"rss_growth_mb_per_query": rss_growth(c)}
            | {"latency_ms": [round(q["latency_ms"], 3)
                              for q in c["queries"]]}
            for c in untraced + traced
        ],
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - matched,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return report, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
        report, result = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
