#!/usr/bin/env python3
"""Same-host A/B of two revisions on the perfbench end-to-end metrics.

Extracts each revision into its own tree under a scratch directory (with
`git archive`, so the repository's own checkout, refs and worktree list are
left alone), then runs `perfbench/run.py --trace 0` from both trees for every
seed and workload, alternating which side runs first. Each tree builds its own
`perfbench_cycle` in its own `.bench_build/`; nothing is written under
`perfbench/`.

Per workload and end-to-end metric (names and `better` directions come from
BENCHMARK.json) it prints each side's median and quartiles, the relative
change of the medians, and the share of pairs the head won (ties count for
neither side). A gain is claimed only when the head wins at least nine tenths
of the pairs and the medians differ by more than the base's interquartile
range; a metric whose head median is worse than the base median by more than
the BENCHMARK.json bound is flagged.

Usage:
  scripts/perfbench_ab.py --base HEAD~1 --head HEAD --seeds 701-710 \
      --scratch /tmp/ab [--workloads crowd_collect,wide_groups] \
      [--seconds 44] [--json /tmp/ab/summary.json]

`--head WORKTREE` measures the current checkout: its tracked files plus any
untracked files git does not ignore.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    """'701-710' or '701,705,709' (or a mix) -> list of ints."""
    seeds = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def extract(rev, dest):
    """Writes the files of `rev` (or of the checkout, for WORKTREE) to dest."""
    if os.path.isdir(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    if rev == "WORKTREE":
        listed = subprocess.run(
            ["git", "-C", REPO, "ls-files", "-z", "--cached", "--others",
             "--exclude-standard"],
            check=True, capture_output=True).stdout.split(b"\0")
        for name in filter(None, (n.decode() for n in listed)):
            src = os.path.join(REPO, name)
            if not os.path.isfile(src):
                continue  # deleted in the checkout but still in the index
            os.makedirs(os.path.dirname(os.path.join(dest, name)),
                        exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))
        return
    archive = subprocess.Popen(["git", "-C", REPO, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def run_once(tree, workload, seed, seconds):
    """One `run.py --trace 0` run: its result dict (the last JSON line), plus
    the report's `problems` list (the line before it)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"run.py failed in {tree} ({workload}, seed {seed})")
    result = json.loads(lines[-1])
    result["problems"] = json.loads(lines[-2]).get("problems", []) \
        if len(lines) > 1 else []
    return result


def quartiles(values):
    """(q1, median, q3) by the inclusive method; degenerate for n < 2."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(spec, runs):
    """runs: {workload: [(base_result, head_result), ...]} -> rows."""
    rows = []
    for workload, pairs in runs.items():
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            base = [b["metrics"][name]["value"] for b, _ in pairs]
            head = [h["metrics"][name]["value"] for _, h in pairs]
            wins = sum(1 for b, h in zip(base, head)
                       if (h < b if lower else h > b))
            b1, bmed, b3 = quartiles(base)
            h1, hmed, h3 = quartiles(head)
            change = (hmed - bmed) / bmed if bmed else 0.0
            worse = change if lower else -change
            rows.append({
                "workload": workload,
                "metric": name,
                "better": metric["better"],
                "base": [b1, bmed, b3],
                "head": [h1, hmed, h3],
                "change": change,
                "head_wins": wins,
                "pairs": len(pairs),
                "gain": wins >= 0.9 * len(pairs) and
                        abs(hmed - bmed) > (b3 - b1),
                "over_bound": worse > metric["bound"],
                "correct": all(b["correct"] and h["correct"]
                               for b, h in pairs),
            })
    return rows


def print_rows(rows):
    header = (f"{'workload':<15} {'metric':<24} {'base q1/med/q3':>26} "
              f"{'head q1/med/q3':>26} {'change':>8} {'wins':>6}  verdict")
    print(header)
    print("-" * len(header))
    for r in rows:
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
        verdict = []
        if r["gain"]:
            verdict.append("gain")
        if r["over_bound"]:
            verdict.append("WORSE THAN BOUND")
        if not r["correct"]:
            verdict.append("INCORRECT RUN")
        print(f"{r['workload']:<15} {r['metric']:<24} {fmt(r['base']):>26} "
              f"{fmt(r['head']):>26} {r['change']:>+8.1%} "
              f"{r['head_wins']:>3}/{r['pairs']:<2}  {' '.join(verdict)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision")
    parser.add_argument("--head", required=True,
                        help="git revision, or WORKTREE for the checkout")
    parser.add_argument("--seeds", required=True,
                        help="e.g. 701-710 or 701,703 (one pair per seed)")
    parser.add_argument("--scratch", required=True,
                        help="directory for the two trees (recreated)")
    parser.add_argument("--workloads", default=None,
                        help="comma list (default: all of BENCHMARK.json)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json)")
    parser.add_argument("--json", default=None,
                        help="also write the raw runs and rows here")
    args = parser.parse_args()

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    seeds = parse_seeds(args.seeds)

    trees = {"base": os.path.join(args.scratch, "base"),
             "head": os.path.join(args.scratch, "head")}
    extract(args.base, trees["base"])
    extract(args.head, trees["head"])

    runs = {w: [] for w in workloads}
    for k, seed in enumerate(seeds):
        order = ("base", "head") if k % 2 == 0 else ("head", "base")
        for workload in workloads:
            got = {}
            for side in order:
                got[side] = run_once(trees[side], workload, seed, seconds)
                p50 = got[side]["metrics"]["query_p50_ms"]["value"]
                print(f"# seed {seed} {workload} {side}: query_p50_ms "
                      f"{p50:.1f} correct={got[side]['correct']} "
                      f"{' | '.join(got[side]['problems'])}",
                      file=sys.stderr, flush=True)
            runs[workload].append((got["base"], got["head"]))

    rows = summarize(spec, runs)
    print(f"base={args.base} head={args.head} seeds={seeds} "
          f"seconds={seconds}")
    print_rows(rows)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"base": args.base, "head": args.head, "seeds": seeds,
                       "seconds": seconds, "rows": rows,
                       "runs": {w: [[b, h] for b, h in p]
                                for w, p in runs.items()}}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
