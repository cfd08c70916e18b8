"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests

The workloads run at small sizes here; the timings are not checked, only
that every metric is emitted with its unit, that failures are counted, and
that the traced run agrees with the untraced one.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import kernel  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import metric_units  # noqa: E402

SMALL = ("workloads.QUEENS_N = 5; workloads.SHORT = 30; workloads.LONG = 60;"
         " workloads.LEFT_SEQ = 20; workloads.THEOREM_TRIALS = 20;"
         " workloads.LAW_TRIALS = 100; workloads.LEMMA_TRIALS = 20;"
         " workloads.ORACLE_PROGRAMS = 20")
PLANTED = "import planted; workloads.WORKLOADS.update(planted.WORKLOADS)"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def worker_cmd(prelude):
    """A worker command that first runs `prelude` with workloads imported."""
    code = ("import sys; sys.path[:0] = [%r, %r]; import worker, workloads; "
            "%s; sys.exit(worker.main(sys.argv[1:]))"
            % (str(BENCH), str(TESTS), prelude))
    return [sys.executable, "-c", code]


def bench(workload, trace=0, prelude=SMALL, seed=workloads.DEFAULT_SEED):
    return run.benchmark(workload, seed, 0, trace, worker_cmd(prelude))


def test_spec_names_every_metric_with_its_unit():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == run.end_to_end_units()
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == dict(metric_units(), **{"trace.overhead_ratio": "ratio"})
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_end_to_end_metrics(workload):
    result, lines = bench(workload)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.WORKLOADS[workload](42))
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == run.end_to_end_units()
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["metrics"]["ok_ratio"]["value"] == 1
    printed = {line.split()[0]: line.split()[2] for line in lines[1:]
               if len(line.split()) == 3}
    assert printed == dict(run.end_to_end_units(), failed_ratio="ratio")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_agrees_and_counts_repeat(workload):
    first, lines = bench(workload, trace=1)
    # correct covers the traced outputs equalling the untraced ones.
    assert first["correct"] and first["failed"] == 0
    assert {k: v["unit"] for k, v in first["metrics"].items()} \
        == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert first["metrics"]["core.fold.calls"]["value"] > 0
    second, _ = bench(workload, trace=1)
    counts = {k for k, v in first["metrics"].items() if v["unit"] != "s"}
    counts.discard("trace.overhead_ratio")
    assert {k: first["metrics"][k] for k in counts} \
        == {k: second["metrics"][k] for k in counts}


def test_traced_layers_see_their_work():
    def layers(workload):
        result = bench(workload, trace=1)[0]
        return {k: v["value"] for k, v in result["metrics"].items()}
    m = layers("queens")
    assert m["core.fold.calls.bind"] > 0 and m["core.node.calls"] > 0
    assert m["handlers.h_state.calls"] > 0
    assert m["translations.put_r.calls"] > 0
    assert m["machines.steps"] == sum(
        m["machines.steps." + op] for op in ("ret", "get", "put", "fail", "or",
                                             "mget", "update", "restore",
                                             "untrail"))
    assert 0 < m["queens.safe.pass_ratio"] < 1
    m = layers("fuzz")
    assert m["difftest.trials"] > 0 and m["difftest.failures"] == 0
    assert m["difftest.oracle_eval.calls"] == 2 * 20


def test_wrong_reference_and_exception_are_failed_items():
    result, lines = bench("faults", prelude=PLANTED)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (4, 2)
    assert result["metrics"]["ok_ratio"]["value"] == 0.5
    text = "\n".join(lines)
    assert "FAILED wrong-reference" in text and "FAILED raises" in text


def test_crash_fails_the_items_it_loses():
    result, lines = bench("crash", prelude=PLANTED)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (3, 2)
    assert "FAILED crash: worker exited with -11" in "\n".join(lines)


def test_traced_output_differing_from_untraced_fails():
    result, lines = bench("trace-sensitive", trace=1, prelude=PLANTED)
    assert not result["correct"] and result["failed"] == 1
    assert "traced output differs" in "\n".join(lines)


def test_without_effsim_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(SPEC["command"] + ["--workload", "queens", "--seed",
                                             "1", "--seconds", "1",
                                             "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_short_items_run_spread_over_the_pass():
    items = [workloads.Item(label, (), None, None) for label in "abcdefg"]
    reps = {"b": worker.ROUNDS, "f": worker.ROUNDS, "d": 2}
    order = [item.label for item in worker.schedule(items, reps)]
    assert order.count("b") == order.count("f") == worker.ROUNDS
    assert order.count("d") == 2
    rest = [label for label in order if label not in "bdf"]
    assert rest == list("aceg")
    assert order[-2:] == ["b", "f"] and order.index("b") < order.index("c")
    # d runs in the first round and in the middle one.
    last_d = len(order) - order[::-1].index("d") - 1
    assert order.index("d") < order.index("c") < last_d < order.index("e")
    assert [i.label for i in worker.schedule(items, {})] == list("abcdefg")


def test_repetitions_give_short_items_more_runs():
    def runs(*seconds):
        return [{"seconds": s} for s in seconds]
    reps = worker.repetitions({"tiny": runs(0.001), "mid": runs(0.15, 0.15),
                               "long": runs(2.0)})
    assert reps == {"tiny": worker.ROUNDS, "mid": 3, "long": 1}


def test_merge_takes_the_median_and_any_failure():
    def r(seconds, ok=True, digest="x"):
        return {"seconds": seconds, "raw_seconds": 2 * seconds, "ok": ok,
                "digest": digest, "error": None if ok else "bad"}
    merged = worker.merge([r(3), r(1), r(2)])
    assert (merged["seconds"], merged["raw_seconds"]) == (2, 4)
    assert worker.merge([r(1), r(2, ok=False)])["error"] == "bad"
    assert not worker.merge([r(1), r(1, digest="y")])["ok"]


def test_probe_samples_the_kernel_while_an_item_runs():
    with kernel.Probe() as probe:
        end = time.perf_counter() + 10 * kernel.PROBE_S
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 5
    assert sum(probe.samples) <= probe.spent < 10 * kernel.PROBE_S
    # A signal that arrives after the item has ended takes no sample.
    taken = (list(probe.samples), probe.spent)
    probe._sample(signal.SIGALRM, None)
    assert (probe.samples, probe.spent) == taken
    with kernel.Probe(active=False) as idle:
        time.sleep(3 * kernel.PROBE_S)
    assert (idle.samples, idle.spent) == ([], 0.0)


def test_scale_puts_times_at_the_reference_speed():
    ref = kernel.REFERENCE_S
    assert kernel.scale(2.0, ref, ref) == 2.0
    assert kernel.scale(2.0, 2 * ref, 2 * ref) == 1.0
    # The mean of the two samples around the item and the three during it.
    assert kernel.scale(2.0, ref, ref, [4 * ref] * 3) \
        == pytest.approx(2.0 * 5 / 14)


def test_later_passes_repeat_short_items_and_stay_correct():
    result, lines = run.benchmark("chains", 1, 1.0, 0, worker_cmd(SMALL))
    assert result["correct"] and "1 untraced passes" not in lines[0]


def test_queens_reference():
    assert workloads.queens_reference(4) == [[2, 4, 1, 3], [3, 1, 4, 2]]
    assert [len(workloads.queens_reference(n)) for n in range(4, 9)] \
        == [2, 10, 4, 40, 92]


def test_default_seed_reproduces_the_acceptance_seeds(monkeypatch):
    from effsim import difftest as D
    seen = []
    for name in ("check_theorem", "check_laws", "check_lemma",
                 "check_mutation"):
        monkeypatch.setattr(D, name, lambda *a, name=name, **k:
                            seen.append((name, a[2])) or {})
    programs = []
    real = D.gen_program
    monkeypatch.setattr(D, "gen_program", lambda seed, *a:
                        programs.append(seed) or real(seed, *a))
    for item in workloads.build_fuzz(workloads.DEFAULT_SEED):
        item.run()
    seeds = {}
    for name, seed in seen:
        seeds.setdefault(name, []).append(seed)
    assert seeds["check_theorem"] == list(range(41, 51))
    assert set(seeds["check_laws"] + seeds["check_lemma"]
               + seeds["check_mutation"]) == {42}
    assert programs == list(range(1000))


def test_chains_constants_follow_the_seed():
    a = [item.run() for item in workloads.build_chains(1)[:3]]
    b = [item.run() for item in workloads.build_chains(1)[:3]]
    c = [item.run() for item in workloads.build_chains(2)[:3]]
    assert a == b != c
