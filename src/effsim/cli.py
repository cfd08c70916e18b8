"""Command-line interface.

Commands:
    queens   --n N --pipeline P [--output text|json]
    difftest --suite <theorem id> [--trials T] [--seed K] [--depth D]
    laws     --suite <law suite>  [--trials T] [--seed K]
    lemmas   --suite <lemma id>   [--trials T] [--seed K]
    bench    --n N
    trace    --pipeline fusedF|fusedTF --n N

Exit codes: 0 success, 1 suite failure, 2 usage error.  A suite command
without --seed takes its seed from the EFFSIM_SEED environment variable, or
42 when it is unset; a value that is not an integer is a usage error.
"""

import argparse
import json
import os
import sys
import time

from .difftest import (
    THEOREM_IDS, LAW_SUITES, LEMMA_IDS,
    check_theorem, check_laws, check_lemma,
)
from .queens import PIPELINES, run_pipeline, queens, queens_m, INITIAL, QUEENS_UNDO
from .machines import simulate_f, simulate_tf
from .handlers import h_nil


def _seed(parser, args):
    """A suite command's seed: --seed, else EFFSIM_SEED, else 42."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get("EFFSIM_SEED", "42")
    try:
        return int(env)
    except ValueError:
        parser.error("EFFSIM_SEED must be an integer, got %r" % (env,))


def _positive(kind):
    def parse(text):
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("%s must be an integer" % kind)
        if v < 1:
            raise argparse.ArgumentTypeError("%s must be >= 1" % kind)
        return v
    return parse


# The suite commands as name -> (help, suite ids, default trials, run), where
# run(args, seed) returns the suite's report.
_SUITES = {
    "difftest": ("run a theorem suite", THEOREM_IDS, 1000,
                 lambda a, seed: check_theorem(a.suite, a.trials, seed,
                                               depth=a.depth)),
    "laws": ("run a law suite", LAW_SUITES, 500,
             lambda a, seed: check_laws(a.suite, a.trials, seed)),
    "lemmas": ("run a lemma suite", LEMMA_IDS, 300,
               lambda a, seed: check_lemma(a.suite, a.trials, seed)),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="effsim",
        description="Backtracking-effects engine: pipelines, differential "
                    "test suites, benchmarks, and machine traces.")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("queens", help="solve n-queens with one pipeline")
    q.add_argument("--n", type=_positive("n"), required=True)
    q.add_argument("--pipeline", choices=sorted(PIPELINES), default="local")
    q.add_argument("--output", choices=("text", "json"), default="text")

    for name, (help_, ids, trials, _run) in _SUITES.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("--suite", choices=ids, required=True)
        p.add_argument("--trials", type=_positive("trials"), default=trials)
        p.add_argument("--seed", type=int, default=None)
        if name == "difftest":
            p.add_argument("--depth", type=int, choices=range(0, 11),
                           default=6)
        p.add_argument("--output", choices=("text", "json"), default="text")

    b = sub.add_parser("bench", help="time every pipeline on n-queens")
    b.add_argument("--n", type=_positive("n"), required=True)
    b.add_argument("--output", choices=("text", "json"), default="text")

    t = sub.add_parser("trace", help="emit machine step records")
    t.add_argument("--pipeline", choices=("fusedF", "fusedTF"),
                   default="fusedTF")
    t.add_argument("--n", type=_positive("n"), required=True)
    t.add_argument("--output", choices=("text", "json"), default="text")

    return parser


def _report_exit(report, output):
    ok = not report["failures"]
    if output == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        print("suite %s: %d trials, %d failures"
              % (report["suite"], report["trials"], len(report["failures"])))
        for f in report["failures"][:5]:
            print("  trialSeed=%d  %s" % (f["trialSeed"], f["astText"]))
            print("    lhs=%s" % f["lhs"])
            print("    rhs=%s" % f["rhs"])
        if report.get("counterexample"):
            print("  put-or violated under local semantics (as expected):")
            print("    %s" % report["counterexample"]["astText"])
    return 0 if ok else 1


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "queens":
        solutions = run_pipeline(args.pipeline, args.n)
        if args.output == "json":
            print(json.dumps({"n": args.n, "solutions": solutions,
                              "count": len(solutions)}, sort_keys=True))
        else:
            for sol in solutions:
                print(sol)
            print("%d solutions" % len(solutions))
        return 0

    if args.command in _SUITES:
        report = _SUITES[args.command][3](args, _seed(parser, args))
        return _report_exit(report, args.output)

    if args.command == "bench":
        rows = []
        reference = None
        agree = True
        for name in PIPELINES:
            t0 = time.perf_counter()
            solutions = run_pipeline(name, args.n)
            dt = time.perf_counter() - t0
            if reference is None:
                reference = solutions
            elif solutions != reference:
                agree = False
            rows.append({"pipeline": name, "seconds": round(dt, 4),
                         "count": len(solutions)})
        payload = {"n": args.n, "agreement": agree, "timings": rows}
        if args.output == "json":
            print(json.dumps(payload, sort_keys=True))
        else:
            print("n=%d  agreement=%s" % (args.n, agree))
            for row in rows:
                print("  %-8s %8.4fs  %d solutions"
                      % (row["pipeline"], row["seconds"], row["count"]))
        return 0 if agree else 1

    if args.command == "trace":
        steps = []
        if args.pipeline == "fusedF":
            result = h_nil(simulate_f(queens(args.n), INITIAL, trace=steps))
        else:
            result = h_nil(simulate_tf(queens_m(args.n), INITIAL,
                                       QUEENS_UNDO, trace=steps))
        if args.output == "json":
            print(json.dumps({"n": args.n, "pipeline": args.pipeline,
                              "steps": len(steps),
                              "solutions": result,
                              "trace": [list(s) for s in steps]},
                             sort_keys=True))
        else:
            for s in steps:
                print("\t".join(str(x) for x in s))
            print("%d steps, %d solutions" % (len(steps), len(result)))
        return 0

    parser.error("unknown command")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
