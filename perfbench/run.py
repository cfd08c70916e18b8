"""Run one workload of the effsim benchmark and print its metrics.

    python3 perfbench/run.py --workload {queens,fuzz,chains} [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the root of a checkout; effsim is imported from its src/.  Each
workload runs in a child process (worker.py), one item after another, with
no threads.  The set-up is measured in SETUP_SAMPLES further children.

--trace 0 prints the end-to-end metrics; --trace 1 spends half the time in
untraced passes and half in traced ones, prints the per-layer metrics and
writes the spans to perfbench/out/.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

An item that raises, returns a wrong answer, or is in flight when the worker
dies, fails; the items of that pass that never ran fail with it.  A run with
a failed item is not correct.
"""

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import metric_units
from workloads import DEFAULT_SEED, PIPELINES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = [sys.executable, str(HERE / "worker.py")]
SETUP_SAMPLES = 7
TIME_LIMIT = 170  # seconds; a run ends within three minutes whatever happens


def end_to_end_units():
    units = {"setup_s": "s", "wall_s": "s"}
    for p in PIPELINES:
        units["pipeline_s." + p] = "s"
    # The share of items that passed.  failed_ratio, its complement, is
    # printed too, but is 0 on a correct run, and a metric must not be 0.
    units["ok_ratio"] = "ratio"
    units["peak_rss_mb"] = "MB"
    return units


class BenchError(Exception):
    """The benchmark could not run at all, so there is no result."""


def run_worker(cmd, deadline):
    """Run one worker to its end, or kill it at the deadline; return its
    events and exit code."""
    # A fixed hash seed, so that a run depends only on --seed.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=env)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    events = []
    try:
        for line in proc.stdout:
            try:
                events.append(json.loads(line))
            except ValueError:
                pass  # a line cut short by a crash
    finally:
        timer.cancel()
        timer.join()
        proc.stdout.close()
        code = proc.wait()
    return events, code


class Tally:
    """The passes of one worker run, and which items failed."""

    def __init__(self, events, code):
        self.passes = []
        self.rss_mb = 0.0
        self.blind_spots = []
        in_flight = None
        for ev in events:
            kind = ev["event"]
            if kind == "pass":
                self.passes.append({"traced": ev["traced"],
                                    "size": ev["items"], "items": [],
                                    "layers": None, "complete": False})
            elif kind == "start":
                in_flight = ev["label"]
            elif kind == "item":
                self.passes[-1]["items"].append(ev)
                in_flight = None
            elif kind == "layers":
                self.passes[-1]["layers"] = ev["metrics"]
            elif kind == "pass_end":
                self.passes[-1]["complete"] = True
            elif kind == "rss":
                self.rss_mb = ev["mb"]
            elif kind == "blind_spots":
                self.blind_spots = ev["names"]
        self.code = code
        self.attempted = sum(p["size"] for p in self.passes)
        self.failures = []
        untraced = {}
        for p in self.passes:
            for ev in p["items"]:
                if not ev["ok"]:
                    self.failures.append((ev["label"], ev["error"]))
                elif not p["traced"]:
                    untraced[ev["label"]] = ev["digest"]
                elif untraced.get(ev["label"], ev["digest"]) != ev["digest"]:
                    self.failures.append(
                        (ev["label"], "traced output differs from untraced"))
            lost = p["size"] - len(p["items"])
            if lost:
                self.failures.append(
                    (in_flight, "worker exited with %d; %d items lost"
                     % (code, lost)))
                self.failures.extend([(None, "not run")] * (lost - 1))

    @property
    def correct(self):
        return self.code == 0 and not self.failures

    def passes_of(self, traced):
        """The traced or untraced passes; one cut short is used only when
        no pass is whole."""
        ps = [p for p in self.passes if p["traced"] == traced]
        return [p for p in ps if p["complete"]] or ps

    def seconds(self, traced, pipeline=None, scaled=True):
        """The time of a pass in its items or in one pipeline's items: the
        sum over the items of each one's median over the passes, so that an
        item slowed in one pass by the host does not move the rest.  Scaled
        to the reference speed (see kernel.py), or as measured."""
        key = "seconds" if scaled else "raw_seconds"
        per_item = collections.defaultdict(list)
        for p in self.passes_of(traced):
            for ev in p["items"]:
                if pipeline is None or pipeline in ev["pipelines"]:
                    per_item[ev["label"]].append(ev[key])
        return sum(statistics.median(v) for v in per_item.values())


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(tally, setups):
    metrics = {"setup_s": median(setups), "wall_s": tally.seconds(False)}
    for p in PIPELINES:
        metrics["pipeline_s." + p] = tally.seconds(False, p)
    metrics["ok_ratio"] = 1 - len(tally.failures) / tally.attempted
    metrics["peak_rss_mb"] = tally.rss_mb
    return metrics


def per_layer(tally):
    """The per-layer metrics, and notes on the traced run."""
    units = metric_units()
    traced = [p["layers"] for p in tally.passes
              if p["traced"] and p["layers"] is not None]
    metrics = {}
    for name, unit in units.items():
        values = [m[name] for m in traced]
        # Counts come from one pass (they repeat); times are medians.
        metrics[name] = (median(values) if unit == "s"
                         else values[0] if values else 0)
    untraced = tally.seconds(False)
    metrics["trace.overhead_ratio"] = (
        tally.seconds(True) / untraced if untraced else 0.0)
    counts = [{k: v for k, v in m.items() if units[k] != "s"} for m in traced]
    notes = ["  %d traced passes; counts repeat across them: %s"
             % (len(traced), "yes" if counts[1:] == counts[:-1] else "NO")]
    notes += ["  blind spot (bypasses the wrappers): %s" % b
              for b in tally.blind_spots]
    return metrics, notes


def benchmark(workload, seed, seconds, trace, worker=WORKER):
    """Run the workload; return (result, lines), lines being the report
    printed above the result."""
    deadline = time.monotonic() + TIME_LIMIT
    args = ["--workload", workload, "--seed", str(seed)]
    setups, raw_setups = [], []
    for _ in range(SETUP_SAMPLES):
        events, code = run_worker(worker + ["--mode", "setup"] + args,
                                  deadline)
        if code != 0:
            raise BenchError("set-up failed with exit code %d" % code)
        for ev in events:
            if ev["event"] == "setup":
                setups.append(ev["seconds"])
                raw_setups.append(ev["raw_seconds"])

    spans = HERE / "out" / ("trace-%s-%d.jsonl" % (workload, seed))
    cmd = worker + ["--mode", "run", "--seconds", str(seconds),
                    "--trace", str(trace)] + args
    if trace:
        spans.parent.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans)]
    tally = Tally(*run_worker(cmd, deadline))
    if not tally.passes:
        raise BenchError("the worker exited with %d before its first pass"
                         % tally.code)

    lines = ["perfbench %s: seed %d, %d untraced passes, %d items attempted,"
             " %d failed" % (workload, seed, len(tally.passes_of(False)),
                             tally.attempted, len(tally.failures))]
    lines += ["  FAILED %s: %s" % f for f in tally.failures[:20]]
    if trace:
        metrics, notes = per_layer(tally)
        units = dict(metric_units(), **{"trace.overhead_ratio": "ratio"})
        shown = metrics
        lines += notes + ["  spans: %s" % spans.relative_to(ROOT)]
    else:
        metrics = end_to_end(tally, setups)
        units = dict(end_to_end_units(), failed_ratio="ratio")
        shown = dict(metrics, failed_ratio=1 - metrics["ok_ratio"])
        lines.append("  setup_s is the median of %d set-ups, the other times"
                     " sums of per-item medians over passes; times are"
                     " scaled to the reference speed" % len(setups))
        lines.append("  as measured, unscaled: setup_s %.6f s, wall_s %.6f s"
                     % (median(raw_setups), tally.seconds(False, scaled=False)))
    lines += [("  %-34s %14.6f %s" if isinstance(value, float)
               else "  %-34s %14d %s") % (name, value, units[name])
              for name, value in shown.items()]
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": len(tally.failures),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    return result, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 0:
        ap.error("--seconds must not be negative")
    if not (ROOT / "src" / "effsim" / "__init__.py").is_file():
        print("perfbench: no effsim source at %s" % (ROOT / "src" / "effsim"),
              file=sys.stderr)
        return 1
    try:
        result, lines = benchmark(args.workload, args.seed, args.seconds,
                                  args.trace)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
