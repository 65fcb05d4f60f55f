#!/usr/bin/env python3
"""A/B-compare the repo benchmark between two checkouts.

Usage: perfbench_ab.py --base DIR --change DIR --workload W [--workload W ...]
                       [--seed N] [--pairs N] [--seconds S]
       perfbench_ab.py --self-test

Runs N alternating pairs of `python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0`, each side in its own checkout with that checkout's
own run.py (so each side builds and measures its own code exactly as the
benchmark would).  Within a pair the side that runs first alternates
(base first on even pairs, change first on odd ones), so a drift of the
host's speed between runs falls on both sides alike.

For every workload and every end-to-end metric of the base checkout's
BENCHMARK.json it prints the median of each side, the relative change of
the medians, the base side's quartiles (Q1..Q3, statistics.quantiles n=4)
and how many pairs the change won.  A host metric (unit "s" or "MB")
counts as a gain when the change wins at least 9 pairs in 10 and its
median moves by more than the base interquartile range in the better
direction.

Exit status: 0 when every run succeeded and every deterministic metric
(anything that is not a host metric: virtual time, ratios, counts) is
bit-identical between the two sides in every pair; 1 otherwise.  A
refactor meant only to speed the simulator up must leave those metrics
identical, so a difference is a failure, not noise.

--self-test runs the summary on canned results, including a negative case
where one deterministic metric differs and the check must fail.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HOST_UNITS = {"s", "MB"}


def fail(msg):
    print("perfbench_ab: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def run_once(checkout, workload, seed, seconds):
    """One perfbench run in `checkout`; returns its result document."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = {"correct": False, "metrics": {}}
    result["exit"] = proc.returncode
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(spec, base_runs, change_runs):
    """Per-metric rows for one workload plus the list of problems found.

    `base_runs`/`change_runs` are result documents in pair order."""
    problems = []
    for side, runs in (("base", base_runs), ("change", change_runs)):
        for i, r in enumerate(runs):
            if r.get("exit", 0) != 0 or not r.get("correct", False):
                problems.append(f"{side} run {i} failed")
    rows = []
    pairs = list(zip(base_runs, change_runs))
    for m in spec:
        name, better = m["name"], m["better"]
        host = m["unit"] in HOST_UNITS
        try:
            b = [p[0]["metrics"][name]["value"] for p in pairs]
            c = [p[1]["metrics"][name]["value"] for p in pairs]
        except KeyError:
            problems.append(f"{name}: missing from a run")
            continue
        sign = -1.0 if better == "lower" else 1.0
        wins = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
        mb, mc = statistics.median(b), statistics.median(c)
        q1, q3 = quartiles(b)
        row = {"metric": name, "unit": m["unit"], "host": host,
               "base_median": mb, "change_median": mc,
               "delta_pct": (mc - mb) / mb * 100.0 if mb else 0.0,
               "base_q1": q1, "base_q3": q3, "wins": wins,
               "pairs": len(pairs)}
        if host:
            row["gain"] = (wins >= math.ceil(0.9 * len(pairs)) and
                           sign * (mc - mb) > q3 - q1)
        else:
            row["identical"] = b == c
            if b != c:
                problems.append(f"{name}: deterministic metric differs "
                                f"(base {b}, change {c})")
        rows.append(row)
    return rows, problems


def print_table(workload, seed, rows, out=sys.stdout):
    print(f"\n== {workload} seed {seed} ==", file=out)
    print(f"{'metric':18} {'base':>12} {'change':>12} {'delta':>8} "
          f"{'base Q1..Q3':>25} {'wins':>6}  note", file=out)
    for r in rows:
        note = ""
        if r["host"]:
            note = "gain" if r["gain"] else ""
        else:
            note = "identical" if r["identical"] else "DIFFERS"
        iqr = f"{r['base_q1']:.6g}..{r['base_q3']:.6g}"
        print(f"{r['metric']:18} {r['base_median']:12.6g} "
              f"{r['change_median']:12.6g} {r['delta_pct']:+7.1f}% "
              f"{iqr:>25} {r['wins']:>3}/{r['pairs']:<2}  {note}", file=out)


def self_test():
    spec = [{"name": "run_s", "unit": "s", "better": "lower"},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower"},
            {"name": "vt_p99_us", "unit": "sim_us", "better": "lower"},
            {"name": "frames_per_sim_s", "unit": "frames/sim_s",
             "better": "higher"}]

    def doc(run_s, rss, p99=12.5, fps=1000.0, correct=True):
        return {"correct": correct, "exit": 0 if correct else 1,
                "metrics": {"run_s": {"value": run_s},
                            "peak_rss_mb": {"value": rss},
                            "vt_p99_us": {"value": p99},
                            "frames_per_sim_s": {"value": fps}}}

    base = [doc(1.0 + 0.01 * i, 40.0) for i in range(10)]
    change = [doc(0.6 + 0.01 * i, 40.0 + (0.1 if i == 3 else 0.0))
              for i in range(10)]
    change[9] = doc(1.5, 40.0)  # one lost pair: 9/10 still counts
    rows, problems = summarize(spec, base, change)
    by = {r["metric"]: r for r in rows}
    if problems:
        fail(f"self-test: clean comparison reported {problems}")
    if by["run_s"]["wins"] != 9 or not by["run_s"]["gain"]:
        fail(f"self-test: run_s should be a 9/10 gain: {by['run_s']}")
    if by["peak_rss_mb"]["gain"] or by["peak_rss_mb"]["wins"] != 0:
        fail(f"self-test: a rise is not a win: {by['peak_rss_mb']}")
    if abs(by["run_s"]["base_median"] - 1.045) > 1e-9:
        fail(f"self-test: bad median: {by['run_s']}")
    if not by["vt_p99_us"]["identical"]:
        fail("self-test: identical deterministic metric flagged")
    # A small median move inside the base spread is no gain, even 10/10.
    near = [doc(r["metrics"]["run_s"]["value"] - 0.001, 40.0) for r in base]
    rows, _ = summarize(spec, base, near)
    if rows[0]["wins"] != 10 or rows[0]["gain"]:
        fail(f"self-test: a move inside the IQR was called a gain: {rows[0]}")
    # Negative cases: a deterministic difference and a failed run.
    bad = [doc(0.6, 40.0) for _ in range(10)]
    bad[4] = doc(0.6, 40.0, fps=999.0)
    _, problems = summarize(spec, base, bad)
    if not any("frames_per_sim_s" in p for p in problems):
        fail("self-test: a differing deterministic metric was not caught")
    bad[4] = doc(0.6, 40.0, correct=False)
    _, problems = summarize(spec, base, bad)
    if not any("change run 4 failed" in p for p in problems):
        fail("self-test: a failed run was not caught")
    with open(os.devnull, "w") as sink:
        print_table("selftest", 1, rows, out=sink)
    print("perfbench_ab: self-test OK")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--base")
    ap.add_argument("--change")
    ap.add_argument("--workload", action="append",
                    choices=["storm", "net4096", "fft2d"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not (args.base and args.change and args.workload) or args.pairs < 1:
        ap.error("--base, --change, --workload and --pairs >= 1 are required")

    spec = load_spec(args.base)
    all_problems = []
    for w in args.workload:
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                checkout = args.base if side == "base" else args.change
                runs[side].append(run_once(checkout, w, args.seed,
                                           args.seconds))
            print(f"{w} pair {i + 1}/{args.pairs}: run_s base "
                  f"{runs['base'][-1]['metrics'].get('run_s', {}).get('value')}"
                  f" change "
                  f"{runs['change'][-1]['metrics'].get('run_s', {}).get('value')}",
                  file=sys.stderr, flush=True)
        rows, problems = summarize(spec, runs["base"], runs["change"])
        print_table(w, args.seed, rows)
        all_problems += [f"{w}: {p}" for p in problems]
    for p in all_problems:
        print("perfbench_ab: " + p, file=sys.stderr)
    return 1 if all_problems else 0


if __name__ == "__main__":
    sys.exit(main())
