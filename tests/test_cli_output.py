"""CLI: every command's text output, help and usage errors, pinned byte for
byte, and the `python -m effsim.cli` entry point run as a process."""

import ast
import hashlib
import re
import subprocess
import sys

import pytest

import effsim.cli
from effsim.cli import main
from child import child_env


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the full text output of each command line.
TEXT_DIGESTS = {
    ("queens", "--n", "6"):
        "d5b17894e0976e8061610d031a73cf4a85b7b0e4112357133d47e1188e8f7b49",
    ("trace", "--pipeline", "fusedF", "--n", "5"):
        "fafa18a9d71030caaa5d8bf35dcd375eaf9e5d3f01629dc696883192926a2a45",
    ("trace", "--pipeline", "fusedTF", "--n", "5"):
        "b6b40eebeeabaa74f9d9008f1adc063546e11d0c4e167afb6711627f12832fd8",
    ("laws", "--suite", "globalstate", "--trials", "60", "--seed", "42"):
        "c6c5a3e15fc5e02a167297166929173b9b5e03d697f1ccd45bd91e42a8d107c9",
}


@pytest.mark.parametrize("argv", list(TEXT_DIGESTS), ids=" ".join)
def test_text_output_pinned(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert digest(out) == TEXT_DIGESTS[argv]


def test_failing_suite_prints_five_failures_and_the_counterexample(
        capsys, monkeypatch):
    failures = [{"trialSeed": i, "astText": "ret %d" % i, "lhs": "[%d]" % i,
                 "rhs": "[]"} for i in range(7)]
    monkeypatch.setattr(effsim.cli, "check_laws", lambda *a, **k: {
        "suite": "globalstate", "trials": 9, "seed": 42,
        "failures": failures, "counterexample": {"astText": "put 1; fail"}})
    code, out = run(capsys, "laws", "--suite", "globalstate")
    assert code == 1
    expected = ["suite globalstate: 9 trials, 7 failures"]
    for i in range(5):
        expected += ["  trialSeed=%d  ret %d" % (i, i), "    lhs=[%d]" % i,
                     "    rhs=[]"]
    expected += ["  put-or violated under local semantics (as expected):",
                 "    put 1; fail"]
    assert out.splitlines() == expected


def test_bench_text_pinned(capsys):
    code, out = run(capsys, "bench", "--n", "5")
    assert code == 0
    head, *rows = out.splitlines()
    # The seconds column is the 8 characters after "  <name, 8 wide> ".
    assert all(re.fullmatch(r" *\d+\.\d{4}", row[11:19]) for row in rows)
    masked = [head] + [row[:11] + "<t>" + row[19:] for row in rows]
    assert masked == ["n=5  agreement=True"] + [
        "  %-8s <t>s  10 solutions" % name
        for name in ("naive", "local", "global", "sim", "fusedF", "localM",
                     "globalM", "globalT", "simT", "fusedTF")]
    assert out.endswith("\n")


# sha256 of each `--help` text at 80 columns.
HELP_DIGESTS = {
    (): "d7d01f6bb29300c70873f0e6e23cb9ed48067869ef19a54701cf5230dd9f41e6",
    ("queens",):
        "22d0b65f468b9fd8dc6d2372e77651efb152e3df6fbe7b2188238f8e264a8ef3",
    ("difftest",):
        "0a07a37c9f8423730e7e1ef4b2614093b35c027d2e2740137bf5b61e252c89d3",
    ("laws",):
        "40a8513f7aa53d4141a08f436055708e92a08fefe5b47f992cf7843184928872",
    ("lemmas",):
        "d12a33dd7d1341c6f337860ea88a038d9d3b0daa3fcad575528ef3e9713c10c1",
    ("bench",):
        "78f59a7fa17a27762917339ae6c22607ed054445b16454a1b965b2b009b80610",
    ("trace",):
        "525e05aca44c51b6c01b939fddd0b748dc0ac7b42c01d9e60f1e8235bad9ed24",
}


@pytest.mark.parametrize("command", list(HELP_DIGESTS),
                         ids=lambda c: " ".join(c) or "effsim")
def test_help_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as e:
        main([*command, "--help"])
    assert e.value.code == 0
    assert digest(capsys.readouterr().out) == HELP_DIGESTS[command]


USAGE_ERRORS = {
    ("queens", "--n", "x"):
        "usage: effsim queens [-h] --n N\n"
        "                     [--pipeline {fusedF,fusedTF,global,globalM,"
        "globalT,local,localM,naive,sim,simT}]\n"
        "                     [--output {text,json}]\n"
        "effsim queens: error: argument --n: n must be an integer\n",
    ("laws", "--suite", "nondet", "--trials", "0"):
        "usage: effsim laws [-h] --suite\n"
        "                   {nondet,state,localstate,globalstate,undo,modify}\n"
        "                   [--trials TRIALS] [--seed SEED] "
        "[--output {text,json}]\n"
        "effsim laws: error: argument --trials: trials must be >= 1\n",
}


@pytest.mark.parametrize("argv", list(USAGE_ERRORS), ids=" ".join)
def test_usage_error_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as e:
        main(list(argv))
    assert e.value.code == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", USAGE_ERRORS[argv])


@pytest.mark.parametrize("argv,code", [
    (("queens", "--n", "4"), 0),
    # One trial finds no put-or counterexample, and that is a failure.
    (("laws", "--suite", "globalstate", "--trials", "1", "--seed", "42"), 1),
    (("queens", "--n", "0"), 2),
])
def test_entry_point_exit_code(argv, code):
    proc = subprocess.run([sys.executable, "-m", "effsim.cli", *argv],
                          env=child_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == code, proc.stderr


def test_closed_stdout_prints_no_traceback():
    # effsim trace --n 8 | head -1: the reader takes one line and closes the
    # pipe while most of the 450 kB trace is still unwritten.
    with subprocess.Popen(
            [sys.executable, "-m", "effsim.cli", "trace", "--n", "8"],
            env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        proc.stdout.close()
        err = proc.communicate(timeout=60)[1].decode()
    assert line == b"mget\t0\t0\t0\n"
    assert "Traceback" not in err and proc.returncode == 0, err


def test_cli_has_one_printer():
    # Every command hands its payload and text lines to one printer, so the
    # file holds one json.dumps call and one --output declaration.
    with open(effsim.cli.__file__) as f:
        tree = ast.parse(f.read())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)]
    dumps = [c for c in calls if c.func.attr == "dumps"
             and isinstance(c.func.value, ast.Name)
             and c.func.value.id == "json"]
    outputs = [c for c in calls if c.func.attr == "add_argument" and c.args
               and isinstance(c.args[0], ast.Constant)
               and c.args[0].value == "--output"]
    assert (len(dumps), len(outputs)) == (1, 1)
