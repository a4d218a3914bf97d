#!/usr/bin/env python3
"""Smoke self-test of the benchmark: every workload at tiny scale, in seconds.

    python3 perfbench/smoke_test.py

Builds perfbench_cycle like run.py does, then runs one untraced/traced cycle
pair per workload at --scale tiny and checks that
  * success_share is 1 (every query matched the plaintext oracle);
  * the derived tds.*_self_ms are non-negative;
  * no query's collection + aggregation + filtering wall exceeds its latency;
  * only complete cycles are pooled (a cycle cut by its timeout is dropped,
    and the pooled query count is complete cycles x queries per cycle);
  * the printed metric names and units are those BENCHMARK.json declares.
Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 7


class Failures:
    def __init__(self):
        self.messages = []

    def check(self, ok, message):
        if not ok:
            self.messages.append(message)


def check_workload(workload, failures):
    untraced, traced, failed = run.run_cycles(workload, SEED, seconds=0,
                                              traced=True, scale="tiny")
    failures.check(failed == 0 and len(untraced) == 1 and len(traced) == 1,
                   f"{workload}: expected one complete cycle pair, got "
                   f"{len(untraced)}/{len(traced)} with {failed} failed")
    if not untraced or not traced:
        return

    e2e = run.end_to_end(untraced)
    failures.check(e2e["success_share"][0] == 1.0,
                   f"{workload}: success_share {e2e['success_share'][0]}")
    attempted, matched = run.outcome_counts(traced)
    failures.check(matched == attempted,
                   f"{workload}: a traced query missed the oracle")

    layers = run.per_layer(untraced, traced)
    check_declared(workload, "end_to_end", e2e, failures)
    check_declared(workload, "per_layer", layers, failures)
    for name in ("tds.collection_self_ms", "tds.round_self_ms"):
        failures.check(layers[name][0] >= 0,
                       f"{workload}: {name} = {layers[name][0]}")
    for q in run.queries(traced):
        failures.check(q["collection_ms"] - q["ssi_collection_busy_ms"] >= 0,
                       f"{workload}: negative collection self time")
    for q in run.queries(untraced + traced):
        failures.check(run.phases_ms(q) <= q["latency_ms"],
                       f"{workload}: phases {run.phases_ms(q):.3f} ms exceed "
                       f"wall {q['latency_ms']:.3f} ms")
    failures.check(not run.frame_check(untraced, traced),
                   f"{workload}: {run.frame_check(untraced, traced)}")

    per_cycle = untraced[0]["clients"] * untraced[0]["queries_per_client"]
    attempted, _ = run.outcome_counts(untraced)
    failures.check(len(run.queries(untraced)) == per_cycle and
                   attempted == per_cycle + 1,
                   f"{workload}: pooled {len(run.queries(untraced))} queries "
                   f"from one cycle of {per_cycle}")


def check_declared(workload, section, metrics, failures):
    """The metrics a run prints are exactly those BENCHMARK.json declares,
    with the same units."""
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return
    with open(path) as f:
        declared = {m["name"]: m["unit"] for m in json.load(f)[section]}
    printed = {name: unit for name, (_, unit) in metrics.items()}
    failures.check(printed == declared,
                   f"{workload}: {section} metrics differ from BENCHMARK.json:"
                   f" {sorted(set(printed.items()) ^ set(declared.items()))}")


def check_incomplete_cycle_dropped(failures):
    """A cycle killed by its timeout must not reach the pool."""
    real_run_cycle = run.run_cycle
    calls = []

    def cut_second_cycle(workload, seed, cycle, mode, scale, timeout_s):
        calls.append(cycle)
        if cycle == 1:
            timeout_s = 0.001  # killed long before it can finish
        return real_run_cycle(workload, seed, cycle, mode, scale, timeout_s)

    run.run_cycle = cut_second_cycle
    try:
        untraced, _, failed = run.run_cycles("crowd_collect", SEED,
                                             seconds=3600, traced=False,
                                             scale="tiny")
    finally:
        run.run_cycle = real_run_cycle
    failures.check(calls == [0, 1] and failed == 1 and len(untraced) == 1,
                   f"cut cycle: calls {calls}, failed {failed}, pooled "
                   f"{len(untraced)}")


def main():
    run.build()
    failures = Failures()
    for workload in run.WORKLOADS:
        check_workload(workload, failures)
    check_incomplete_cycle_dropped(failures)
    for message in failures.messages:
        print(f"FAIL {message}")
    print("smoke test " + ("failed" if failures.messages else "passed"))
    return 1 if failures.messages else 0


if __name__ == "__main__":
    sys.exit(main())
