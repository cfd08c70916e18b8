"""One workload in one process: import effsim, build the items, run passes.

``run.py`` starts this script as a child process and reads its events, one
JSON object per line on standard output; the items themselves see standard
error as their standard output.  A crash of this process (the interpreter
dying on a deep recursion, say) therefore loses nothing but the items in
flight, which ``run.py`` counts as failed.

Modes:
  setup  import effsim and build the workload's inputs, report the time
  run    the same, then run passes of the items until the time is up; with
         --trace 1 the second half of the time is spent in traced passes
"""

import argparse
import collections
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from kernel import Probe, calibrate, scale
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One run of a short item reads mostly the host's speed of that moment.  An
# item that took t seconds in the pass before runs ceil(TARGET_S / t) times
# in the next, at most ROUNDS times, spread over the pass; its time in that
# pass is the median of those runs.
TARGET_S = 0.4
ROUNDS = 7


class Events:
    """The event stream to run.py, on the process's original stdout."""

    def __init__(self):
        self.out = os.fdopen(os.dup(1), "w", buffering=1)
        sys.stdout = sys.stderr

    def __call__(self, **event):
        self.out.write(json.dumps(event) + "\n")


def import_effsim():
    """Import effsim from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import effsim
    if Path(effsim.__file__).resolve().parent != SRC / "effsim":
        raise ImportError("effsim imported from %s, not from %s"
                          % (effsim.__file__, SRC))


def digest(output):
    return hashlib.sha256(repr(output).encode()).hexdigest()[:16]


def run_item(item, tracer):
    """Run one item, returning its event fields: its time less the probes'
    (untraced runs only), the probes' kernel times, and whether it passed.
    An exception fails the item and the pass goes on."""
    gc.collect()  # every item starts from the same heap, whatever the order
    probe = Probe(active=tracer is None)
    start = time.perf_counter()
    try:
        with probe:
            if tracer is None:
                output = item.run()
            else:
                with tracer.span("item:" + item.label), \
                        tracer.span("pipeline:" + ("+".join(item.pipelines)
                                                   or "suite")):
                    output = item.run()
    except Exception as exc:
        return {"seconds": time.perf_counter() - start - probe.spent,
                "probed": probe.samples, "ok": False,
                "error": "%s: %s" % (type(exc).__name__, str(exc)[:200])}
    seconds = time.perf_counter() - start - probe.spent
    timing = {"seconds": seconds, "probed": probe.samples}
    try:
        ok = bool(item.check(output))
    except Exception as exc:
        return dict(timing, ok=False,
                    error="check raised %s" % type(exc).__name__)
    return dict(timing, ok=ok, digest=digest(output),
                error=None if ok else "output differs from the reference")


def schedule(items, reps):
    """The runs of one pass.  The pass has ROUNDS rounds; the items that run
    once are shared out among them in order, and an item that runs k =
    reps[label] > 1 times runs at the end of k rounds spread evenly."""
    once = [item for item in items if reps.get(item.label, 1) == 1]
    order = []
    for r in range(ROUNDS):
        order += once[r * len(once) // ROUNDS:(r + 1) * len(once) // ROUNDS]
        order += [item for item in items if reps.get(item.label, 1) > 1
                  and r in {j * ROUNDS // reps[item.label]
                            for j in range(reps[item.label])}]
    return order


def repetitions(runs):
    """How many times each item runs in the next pass, from its runs in
    this one."""
    return {label: min(ROUNDS, math.ceil(
        TARGET_S / max(statistics.median(r["seconds"] for r in rs), 1e-9)))
        for label, rs in runs.items()}


def merge(runs):
    """An item's event for the pass: the median time of its runs, failed if
    any run failed or two runs disagreed."""
    bad = [r for r in runs if not r["ok"]]
    event = dict(bad[0] if bad else runs[0],
                 seconds=statistics.median(r["seconds"] for r in runs),
                 raw_seconds=statistics.median(r["raw_seconds"]
                                               for r in runs))
    if not bad and len({r["digest"] for r in runs}) > 1:
        event.update(ok=False, error="output differs from run to run")
    return event


def run_passes(items, budget, emit, tracer=None):
    """Run whole passes for about `budget` seconds, rounded to the nearest
    whole pass, and at least one.  Traced passes run each item once."""
    traced = tracer is not None
    reps = {}
    start = time.perf_counter()
    n = 0
    while n == 0 or (time.perf_counter() - start) * (n + 0.5) / n < budget:
        emit(event="pass", traced=traced, items=len(items))
        if traced:
            tracer.reset()
        order = schedule(items, reps)
        left = collections.Counter(item.label for item in order)
        runs = collections.defaultdict(list)
        before = calibrate()
        for item in order:
            emit(event="start", label=item.label)
            run = run_item(item, tracer)
            after = calibrate()
            run["raw_seconds"] = run["seconds"]
            run["seconds"] = scale(run["seconds"], before, after,
                                   run.pop("probed"))
            before = after
            runs[item.label].append(run)
            left[item.label] -= 1
            if not left[item.label]:
                emit(event="item", label=item.label, pipelines=item.pipelines,
                     traced=traced, **merge(runs[item.label]))
        if traced:
            emit(event="layers", metrics=tracer.metrics())
        else:
            reps = repetitions(runs)
        emit(event="pass_end", traced=traced)
        n += 1


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="where the traced run writes its spans")
    args = ap.parse_args(argv)
    emit = Events()

    before = calibrate()
    start = time.perf_counter()
    import_effsim()
    items = WORKLOADS[args.workload](args.seed)
    seconds = time.perf_counter() - start
    emit(event="setup", raw_seconds=seconds,
         seconds=scale(seconds, before, calibrate()))
    if args.mode == "setup":
        return 0

    if not args.trace:
        run_passes(items, args.seconds, emit)
    else:
        from tracer import Tracer
        run_passes(items, args.seconds / 2, emit)
        tracer = Tracer()
        tracer.install()
        try:
            emit(event="blind_spots", names=tracer.blind_spots)
            run_passes(items, args.seconds / 2, emit, tracer)
        finally:
            tracer.uninstall()
        if args.spans:
            tracer.write_spans(args.spans)
    emit(event="rss", mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
         / 1024)
    return 0


if __name__ == "__main__":
    sys.exit(main())
