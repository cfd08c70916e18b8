"""CLI: argument handling, output formats, exit codes."""

import hashlib
import json

import pytest

import effsim.cli
from effsim.cli import main, _build_parser
from effsim.queens import PIPELINES


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_queens_text(capsys):
    code, out = run(capsys, "queens", "--n", "4")
    assert code == 0
    assert out.splitlines() == ["[2, 4, 1, 3]", "[3, 1, 4, 2]", "2 solutions"]


def test_queens_json(capsys):
    code, out = run(capsys, "queens", "--n", "4", "--pipeline", "fusedTF",
                    "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 4, "count": 2,
                       "solutions": [[2, 4, 1, 3], [3, 1, 4, 2]]}


# sha256 of the full `effsim queens --n 6 --output json` text, which every
# pipeline must print byte for byte.
QUEENS_6_DIGEST = \
    "d6bb4e1b289a0d3f58b00f01a51731ef50576a010a231453b6223903b8d3ea92"


@pytest.mark.parametrize("pipeline", list(PIPELINES))
def test_queens_json_pinned(capsys, pipeline):
    code, out = run(capsys, "queens", "--n", "6", "--pipeline", pipeline,
                    "--output", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == QUEENS_6_DIGEST


def test_queens_rejects_bad_n(capsys):
    with pytest.raises(SystemExit) as e:
        main(["queens", "--n", "0"])
    assert e.value.code == 2


def test_queens_rejects_non_integer_n(capsys):
    with pytest.raises(SystemExit) as e:
        main(["queens", "--n", "x"])
    assert e.value.code == 2
    assert "n must be an integer" in capsys.readouterr().err


def test_queens_rejects_bad_pipeline(capsys):
    with pytest.raises(SystemExit) as e:
        main(["queens", "--n", "4", "--pipeline", "bogus"])
    assert e.value.code == 2


def test_difftest_passing_suite(capsys):
    code, out = run(capsys, "difftest", "--suite", "T-localglobal",
                    "--trials", "50", "--seed", "42", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "T-localglobal"
    assert payload["failures"] == []


def test_difftest_unknown_suite(capsys):
    with pytest.raises(SystemExit) as e:
        main(["difftest", "--suite", "T-nope"])
    assert e.value.code == 2


def test_laws_globalstate_reports_counterexample(capsys):
    code, out = run(capsys, "laws", "--suite", "globalstate",
                    "--trials", "60", "--seed", "42", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["counterexample"] is not None


def test_laws_text_mentions_counterexample(capsys):
    code, out = run(capsys, "laws", "--suite", "globalstate",
                    "--trials", "60", "--seed", "42")
    assert code == 0
    assert "put-or violated under local semantics" in out


def test_lemmas_suite(capsys):
    code, out = run(capsys, "lemmas", "--suite", "state-restored",
                    "--trials", "40", "--seed", "42")
    assert code == 0
    assert "0 failures" in out


def test_failing_suite_text(capsys, monkeypatch):
    failure = {"trialSeed": 17, "astText": "ret 1", "lhs": "[1]",
               "rhs": "[2]"}
    monkeypatch.setattr(effsim.cli, "check_theorem", lambda *a, **k: {
        "suite": "T-localglobal", "trials": 3, "seed": 42,
        "failures": [failure]})
    code, out = run(capsys, "difftest", "--suite", "T-localglobal")
    assert code == 1
    assert out.splitlines() == ["suite T-localglobal: 3 trials, 1 failures",
                                "  trialSeed=17  ret 1", "    lhs=[1]",
                                "    rhs=[2]"]


def test_suite_command_defaults():
    parse = _build_parser().parse_args
    d = parse(["difftest", "--suite", "T-localglobal"])
    assert (d.trials, d.depth) == (1000, 6)
    assert parse(["laws", "--suite", "nondet"]).trials == 500
    assert parse(["lemmas", "--suite", "pop-extract"]).trials == 300


def test_depth_is_a_difftest_option_only(capsys):
    with pytest.raises(SystemExit) as e:
        main(["laws", "--suite", "nondet", "--depth", "3"])
    assert e.value.code == 2


def test_lemmas_json(capsys):
    code, out = run(capsys, "lemmas", "--suite", "pop-extract",
                    "--trials", "20", "--seed", "7", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["suite"], payload["trials"]) == ("pop-extract", 20)
    assert payload["failures"] == []


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("EFFSIM_SEED", "123")
    code, out = run(capsys, "difftest", "--suite", "T-localglobal",
                    "--trials", "20", "--output", "json")
    assert code == 0
    assert json.loads(out)["seed"] == 123


def test_seed_env_malformed_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("EFFSIM_SEED", "abc")
    with pytest.raises(SystemExit) as e:
        main(["laws", "--suite", "undo", "--trials", "5"])
    assert e.value.code == 2
    assert "EFFSIM_SEED" in capsys.readouterr().err
    # --seed wins, so the variable is not read.
    code, out = run(capsys, "laws", "--suite", "undo", "--trials", "5",
                    "--seed", "3", "--output", "json")
    assert (code, json.loads(out)["seed"]) == (0, 3)


def test_seed_env_ignored_outside_suite_commands(capsys, monkeypatch):
    monkeypatch.setenv("EFFSIM_SEED", "abc")
    code, out = run(capsys, "queens", "--n", "4")
    assert code == 0 and out.splitlines()[-1] == "2 solutions"


def test_bench_agreement(capsys):
    code, out = run(capsys, "bench", "--n", "5", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["agreement"] is True
    assert len(payload["timings"]) == 10
    assert all(row["count"] == 10 for row in payload["timings"])


def test_bench_text(capsys):
    code, out = run(capsys, "bench", "--n", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n=4  agreement=True"
    assert [line.split()[0] for line in lines[1:]] == list(PIPELINES)
    assert all(line.endswith("s  2 solutions") for line in lines[1:])


def test_bench_disagreement_fails(capsys, monkeypatch):
    monkeypatch.setitem(PIPELINES, "fusedTF", lambda n: [])
    code, out = run(capsys, "bench", "--n", "4", "--output", "json")
    assert code == 1
    assert json.loads(out)["agreement"] is False


def test_trace_text(capsys):
    code, out = run(capsys, "trace", "--n", "4")
    assert code == 0
    *records, last = out.splitlines()
    assert last == "%d steps, 2 solutions" % len(records)
    assert records and all(len(r.split("\t")) == 4 for r in records)


def test_trace_records_machine_steps(capsys):
    code, out = run(capsys, "trace", "--pipeline", "fusedF", "--n", "4",
                    "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["solutions"] == [[2, 4, 1, 3], [3, 1, 4, 2]]
    assert payload["steps"] == len(payload["trace"]) > 0
    ops = {rec[0] for rec in payload["trace"]}
    assert {"or", "put", "get", "ret"} <= ops


def test_trace_fused_tf(capsys):
    code, out = run(capsys, "trace", "--pipeline", "fusedTF", "--n", "4",
                    "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["solutions"] == [[2, 4, 1, 3], [3, 1, 4, 2]]
    ops = {rec[0] for rec in payload["trace"]}
    assert {"or", "update", "untrail", "ret"} <= ops


# sha256 of the full `effsim trace --n 6 --output json` text per machine:
# the step records, their order and every stack depth in them.
TRACE_DIGESTS = {
    "fusedF":
        "aedf1102124b52f804d06cc738c3168ae95d2fb5003453b5f66d12f0bd7c7409",
    "fusedTF":
        "41f6ff04192edd93a96149b731c2f2c19e75b01fab65bbf25cd96e6c95faab6f",
}


@pytest.mark.parametrize("pipeline", sorted(TRACE_DIGESTS))
def test_trace_records_pinned(capsys, pipeline):
    code, out = run(capsys, "trace", "--pipeline", pipeline, "--n", "6",
                    "--output", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        TRACE_DIGESTS[pipeline]
