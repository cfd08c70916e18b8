"""Compare two checkouts on perfbench workloads in alternating pairs.

    python3 tools/pairs.py PARENT_DIR CHANGE_DIR --workload W [W ...]
                           --pairs N [--seed S] [--seconds T]

runs `python3 perfbench/run.py --workload W [--seed S] [--seconds T]` from
the root of each checkout, N times each, for each workload W.  Round i runs
one pair of every workload in turn, the parent first when i is even and the
change first when it is odd, so that a drift of the host falls on both
sides and on every workload alike.  It then prints one table per workload:
for each end-to-end metric of BENCHMARK.json, the median and quartiles of
each side, the ratio of the medians (change / parent), how many pairs the
change won (strictly better, in the metric's direction), and whether the
medians differ by more than the parent's interquartile range.  Each table
ends with one line that names every metric whose change median is worse
than the parent's by more than the metric's bound in BENCHMARK.json, taken
as a fraction of the parent's median, or says none.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _end_to_end():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)["end_to_end"]


def end_to_end_metrics():
    """[(name, better)] of the end-to-end metrics in BENCHMARK.json."""
    return [(m["name"], m["better"]) for m in _end_to_end()]


def end_to_end_bounds():
    """{name: bound} of the end-to-end metrics in BENCHMARK.json."""
    return {m["name"]: m["bound"] for m in _end_to_end()}


def result_of(stdout):
    """The JSON result: the last line that run.py prints."""
    return json.loads(stdout.strip().splitlines()[-1])


def quartiles(values):
    """(first quartile, median, third quartile) of values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, metrics, bounds=None):
    """One row per metric of metrics [(name, better)] over pairs [(parent
    result, change result)] of run.py results: each side's (q1, median, q3),
    the ratio of the medians, the pairs the change won, whether the medians
    differ, in the metric's direction, by more than the parent's
    interquartile range, and whether the change median is worse than the
    parent's by more than the metric's bound in bounds {name: bound}, a
    fraction of the parent's median (never, for a metric without one)."""
    rows = []
    bounds = bounds or {}
    for name, better in metrics:
        sides = [[r["metrics"][name]["value"] for r in side]
                 for side in zip(*pairs)]
        parent, change = map(quartiles, sides)
        sign = 1 if better == "lower" else -1
        rows.append({
            "name": name, "parent": parent, "change": change,
            "ratio": change[1] / parent[1] if parent[1] else float("nan"),
            "wins": sum(sign * (p - c) > 0 for p, c in zip(*sides)),
            "clear": sign * (parent[1] - change[1]) > parent[2] - parent[0],
            "over": name in bounds and sign * (change[1] - parent[1])
            > bounds[name] * abs(parent[1])})
    return rows


def over_bounds(rows):
    """The line that ends a table: the metrics of rows worse than their
    bound, or none."""
    return "over bound: %s" % (", ".join(
        r["name"] for r in rows if r["over"]) or "none")


def report(pairs, rows):
    """The printed lines of summarize's rows."""
    lines = ["%-20s %30s %30s %7s %6s %8s" % (
        "metric", "parent median [q1, q3]", "change median [q1, q3]",
        "ratio", "wins", "gap>IQR")]
    for r in rows:
        (pq1, pm, pq3), (cq1, cm, cq3) = r["parent"], r["change"]
        lines.append("%-20s %12.6f [%.4f, %.4f] %12.6f [%.4f, %.4f] "
                     "%7.3f %3d/%-2d %8s" % (
                         r["name"], pm, pq1, pq3, cm, cq1, cq3, r["ratio"],
                         r["wins"], len(pairs), "yes" if r["clear"] else "no"))
    incorrect = sum(not r["correct"] for pair in pairs for r in pair)
    if incorrect:
        lines.append("%d runs were not correct" % incorrect)
    return lines


def run(checkout, workload, args):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload]
    for flag, value in (("--seed", args.seed), ("--seconds", args.seconds)):
        if value is not None:
            cmd += [flag, str(value)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("pairs: %s in %s exited with %d:\n%s"
                 % (" ".join(cmd[1:]), checkout, proc.returncode,
                    proc.stderr))
    return result_of(proc.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True, nargs="+", action="extend")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args(argv)
    pairs = {w: [] for w in args.workload}
    for i in range(args.pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for workload in pairs:
            pair = [None, None]
            for side in order:
                pair[side] = run((args.parent, args.change)[side], workload,
                                 args)
            pairs[workload].append(tuple(pair))
            print("pairs: %s %d/%d done, wall_s %.4f -> %.4f" % (
                workload, i + 1, args.pairs,
                *(r["metrics"]["wall_s"]["value"] for r in pair)),
                file=sys.stderr)
    for workload, done in pairs.items():
        print("pairs %s: %d pairs, parent %s, change %s"
              % (workload, args.pairs, args.parent, args.change))
        rows = summarize(done, end_to_end_metrics(), end_to_end_bounds())
        for line in report(done, rows) + [over_bounds(rows)]:
            print(line)


if __name__ == "__main__":
    main()
