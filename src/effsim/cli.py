"""Command-line interface.

Commands:
    queens   --n N --pipeline P [--output text|json]
    difftest --suite <theorem id> [--trials T] [--seed K] [--depth D]
    laws     --suite <law suite>  [--trials T] [--seed K]
    lemmas   --suite <lemma id>   [--trials T] [--seed K]
    bench    --n N
    trace    --pipeline fusedF|fusedTF --n N

Each command is one row of _COMMANDS: its help, its arguments and a run
function that returns (JSON payload, text lines, exit code).  Every command
takes --output text|json, and main prints the payload or the lines from one
place.

Exit codes: 0 success, 1 suite failure, 2 usage error.  A stdout that is
closed before the output is written, as by `effsim trace | head -1`, drops
the rest of the output and leaves the exit code as it is.  A suite command
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


def _seed(parser, seed):
    """A suite command's seed: --seed, else EFFSIM_SEED, else 42."""
    if seed is not None:
        return seed
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


def _queens(args, seed):
    solutions = run_pipeline(args.pipeline, args.n)
    return ({"n": args.n, "solutions": solutions, "count": len(solutions)},
            [str(sol) for sol in solutions]
            + ["%d solutions" % len(solutions)], 0)


def _suite(check):
    """The run function of a suite command; check(args, seed) is its report."""
    def run(args, seed):
        report = check(args, seed)
        lines = ["suite %s: %d trials, %d failures"
                 % (report["suite"], report["trials"], len(report["failures"]))]
        for f in report["failures"][:5]:
            lines += ["  trialSeed=%d  %s" % (f["trialSeed"], f["astText"]),
                      "    lhs=%s" % f["lhs"], "    rhs=%s" % f["rhs"]]
        if report.get("counterexample"):
            lines += ["  put-or violated under local semantics (as expected):",
                      "    %s" % report["counterexample"]["astText"]]
        return report, lines, 1 if report["failures"] else 0
    return run


def _suite_args(ids, trials):
    return [("--suite", dict(choices=ids, required=True)),
            ("--trials", dict(type=_positive("trials"), default=trials)),
            ("--seed", dict(type=int, default=None))]


def _bench(args, seed):
    rows, answers = [], []
    for name in PIPELINES:
        t0 = time.perf_counter()
        answers.append(run_pipeline(name, args.n))
        rows.append({"pipeline": name,
                     "seconds": round(time.perf_counter() - t0, 4),
                     "count": len(answers[-1])})
    agree = all(a == answers[0] for a in answers)
    return ({"n": args.n, "agreement": agree, "timings": rows},
            ["n=%d  agreement=%s" % (args.n, agree)]
            + ["  %-8s %8.4fs  %d solutions"
               % (row["pipeline"], row["seconds"], row["count"])
               for row in rows], 0 if agree else 1)


def _trace(args, seed):
    steps = []
    if args.pipeline == "fusedF":
        result = h_nil(simulate_f(queens(args.n), INITIAL, trace=steps))
    else:
        result = h_nil(simulate_tf(queens_m(args.n), INITIAL, QUEENS_UNDO,
                                   trace=steps))
    return ({"n": args.n, "pipeline": args.pipeline, "steps": len(steps),
             "solutions": result, "trace": steps},
            ["\t".join(str(x) for x in s) for s in steps]
            + ["%d steps, %d solutions" % (len(steps), len(result))], 0)


_N = ("--n", dict(type=_positive("n"), required=True))

# name -> (help, arguments as (flag, add_argument options), run), where
# run(args, seed) returns (JSON payload, text lines, exit code); seed is None
# for a command without --seed.
_COMMANDS = {
    "queens": ("solve n-queens with one pipeline",
               [_N, ("--pipeline", dict(choices=sorted(PIPELINES),
                                        default="local"))], _queens),
    "difftest": ("run a theorem suite",
                 _suite_args(THEOREM_IDS, 1000)
                 + [("--depth", dict(type=int, choices=range(0, 11),
                                     default=6))],
                 _suite(lambda a, seed: check_theorem(a.suite, a.trials, seed,
                                                      depth=a.depth))),
    "laws": ("run a law suite", _suite_args(LAW_SUITES, 500),
             _suite(lambda a, seed: check_laws(a.suite, a.trials, seed))),
    "lemmas": ("run a lemma suite", _suite_args(LEMMA_IDS, 300),
               _suite(lambda a, seed: check_lemma(a.suite, a.trials, seed))),
    "bench": ("time every pipeline on n-queens", [_N], _bench),
    "trace": ("emit machine step records",
              [("--pipeline", dict(choices=("fusedF", "fusedTF"),
                                   default="fusedTF")), _N], _trace),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="effsim",
        description="Backtracking-effects engine: pipelines, differential "
                    "test suites, benchmarks, and machine traces.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, arguments, _run) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.add_argument("--output", choices=("text", "json"), default="text")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    seed = _seed(parser, args.seed) if "seed" in args else None
    payload, lines, code = _COMMANDS[args.command][2](args, seed)
    try:
        print(json.dumps(payload, sort_keys=True) if args.output == "json"
              else "\n".join(lines), flush=True)
    except BrokenPipeError:
        # The reader is gone: send what is left, and the flush at exit, to
        # os.devnull (the SIGPIPE note in the docs of the signal module).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
