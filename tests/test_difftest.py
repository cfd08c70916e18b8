"""Differential-testing module: generator, oracle, theorem/law/lemma checks."""

import pytest

from effsim import core, difftest, handlers
from effsim.core import Leaf, show_tree
from effsim.difftest import (
    eval_expr, show_expr, show_ast, gen_program, lower, oracle_eval,
    SN, NS, MN, SS2, _trial_seed,
    THEOREM_IDS, check_theorem,
    LAW_SUITES, check_laws,
    LEMMA_IDS, check_lemma,
    MUTATIONS, check_mutation,
)
from effsim.handlers import h_nil, h_local, h_global, h_local_m, h_global_m
from paper_forms import swap


def test_eval_expr():
    env = {"x": 4}
    assert eval_expr(("const", 3), env) == 3
    assert eval_expr(("var", "x"), env) == 4
    assert eval_expr(("add", ("var", "x"), ("const", 1)), env) == 5
    assert eval_expr(("sub", ("const", 1), ("var", "x")), env) == -3


@pytest.mark.parametrize("run, text", [
    (lambda: eval_expr(("mul",), {}), "bad expression ('mul',)"),
    (lambda: show_expr(("mul",)), "bad expression ('mul',)"),
    (lambda: show_ast(("loop",)), "bad ast ('loop',)"),
    (lambda: lower(("loop",), SN), "bad ast ('loop',)"),
    (lambda: oracle_eval(("loop",), 0, "local"), "bad ast ('loop',)"),
], ids=["eval_expr", "show_expr", "show_ast", "lower", "oracle_eval"])
def test_malformed_programs_raise(run, text):
    with pytest.raises(ValueError) as info:
        run()
    assert str(info.value) == text


def test_gen_program_deterministic():
    a = gen_program(99, 5, ("state", "nondet"))
    b = gen_program(99, 5, ("state", "nondet"))
    assert show_ast(a) == show_ast(b)
    c = gen_program(100, 5, ("state", "nondet"))
    assert show_ast(a) != show_ast(c)


def test_gen_program_respects_families():
    text = show_ast(gen_program(7, 6, ("nondet",)))
    for kw in ("get", "put", "update"):
        assert kw not in text


def test_lower_layouts_agree():
    # The same AST lowered at two layouts gives the same local answers.
    for seed in range(30):
        ast = gen_program(seed, 5, ("state", "nondet"))
        sn = h_nil(h_local(lower(ast, SN), 0))
        ns = h_nil(h_local(swap(lower(ast, NS)), 0))
        assert sn == ns


def test_oracle_local_litmus():
    # put 1; ((put 2; get x; ret x) | (get y; ret y))
    ast = ("put", ("const", 1),
           ("or", ("put", ("const", 2), ("get", "x", ("ret", ("var", "x")))),
            ("get", "y", ("ret", ("var", "y")))))
    assert oracle_eval(ast, 0, "local") == {"mode": "local", "answers": [2, 1]}
    g = oracle_eval(ast, 0, "global")
    assert g["answers"] == [2, 2] and g["finalState"] == 2


def test_oracle_matches_handlers():
    # The modify input runs the oracle's mget and update branches.
    for families, layout, local, global_ in (
            (("state", "nondet"), SN, h_local, h_global),
            (("modify", "nondet"), MN, h_local_m, h_global_m)):
        for seed in range(200):
            ast = gen_program(seed, 6, families)
            t = lower(ast, layout)
            assert h_nil(local(t, 0)) \
                == oracle_eval(ast, 0, "local")["answers"], (families, seed)
            assert h_nil(global_(t, 0)) \
                == oracle_eval(ast, 0, "global")["answers"], (families, seed)


def test_oracle_unknown_mode():
    import pytest
    with pytest.raises(ValueError):
        oracle_eval(("ret", ("const", 0)), 0, "nope")


# sha256 over show_ast of seeds 0..49 at depth 6 for every family set the
# suites use, open over (), ("x",) and ("x", "y"), plus oracle_eval of the
# closed programs in both modes.  Taken before programs were tagged tuples.
CORPUS_DIGEST = \
    "02dbb829ae64fcf615e4f7057646b7fdc7db5705ecb4a5106c69e04afa6eec04"


def test_program_corpus_pinned():
    import hashlib
    import json
    lines = []
    for families in (("nondet",), ("state",), ("modify",),
                     ("state", "nondet"), ("modify", "nondet"),
                     ("state", "modify", "nondet")):
        for free in ((), ("x",), ("x", "y")):
            for seed in range(50):
                ast = gen_program(seed, 6, families, free)
                lines.append(show_ast(ast))
                if not free:
                    lines.append(json.dumps(
                        [oracle_eval(ast, seed % 7 - 3, mode)
                         for mode in ("local", "global")], sort_keys=True))
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_DIGEST


def test_trial_seed_spread():
    seeds = {_trial_seed(s, i) for s in (41, 42) for i in range(100)}
    assert len(seeds) == 200


def test_theorem_ids():
    assert len(THEOREM_IDS) == 10


def test_check_theorem_report_shape():
    rep = check_theorem("T-localglobal", trials=50, seed=42, depth=5)
    assert rep["suite"] == "T-localglobal"
    assert rep["seed"] == 42
    assert rep["trials"] == 50
    assert rep["failures"] == []


def test_check_theorem_all_smoke():
    for ident in THEOREM_IDS:
        rep = check_theorem(ident, trials=25, seed=7, depth=5)
        assert rep["failures"] == [], ident


def test_check_theorem_unknown():
    import pytest
    with pytest.raises(ValueError):
        check_theorem("T-nope", trials=1, seed=1)


def test_law_suites_smoke():
    assert len(LAW_SUITES) == 6
    for suite in LAW_SUITES:
        rep = check_laws(suite, trials=60, seed=42)
        assert rep["failures"] == [], suite


def test_globalstate_counterexample_found():
    rep = check_laws("globalstate", trials=60, seed=42)
    cex = rep["counterexample"]
    assert cex is not None
    # The put-or law must genuinely separate under global state.
    assert "lhs" in cex and "rhs" in cex and cex["lhs"] != cex["rhs"]


def test_lemma_ids_smoke():
    assert len(LEMMA_IDS) == 8
    for ident in LEMMA_IDS:
        rep = check_lemma(ident, trials=40, seed=42)
        assert rep["failures"] == [], ident


def test_mutations_detected_smoke():
    assert MUTATIONS == ("skip-putR", "untrailed-branch", "minus-as-plus")
    for name in MUTATIONS:
        rep = check_mutation(name, trials=200, seed=42)
        assert rep["detected"], name
        assert rep["firstFailingTrial"] < 200


def test_check_mutation_honours_depth():
    # Depth-0 programs are a bare ret or fail: no put for skip-putR to skip.
    assert check_mutation("skip-putR", 300, 42, depth=0)["detected"] is False


def test_check_mutation_unknown():
    import pytest
    with pytest.raises(ValueError):
        check_mutation("nope", 0, 1)


def test_untrailed_branch_mutant_forwards_like_local2trail():
    # Outside the modify and nondet families the seeded bug changes
    # nothing: an index-2 operation moves to index 3, past the trail.
    from effsim.translations import local2trail
    t = core.put(7, at=2)
    assert show_tree(difftest._local2trail_untrailed_branch(t)) \
        == show_tree(local2trail(t)) == "put@3 7; ret ()"


# sha256 of json.dumps(report, sort_keys=True) at seed 42: theorems 40 trials
# (depth 6), laws and lemmas 40 trials, mutations 200 trials.  A change that
# alters any report, a failure record's text included, changes its digest.
GOLDEN_REPORTS = {
    "theorem:T-localglobal": "dc05af55e1ff9fa6d643342dd8689c7f84194de5825acbf5fa23c6e56687e230",
    "theorem:T-nondetstateS": "2d2989f019b2179e8a3ecf5c76a89bca0712227565c603c03f86ac320befad9a",
    "theorem:T-nondetstate": "572014dd726a4d91b0251c61b061897bd37cb05c388b746d6c8e38f0b207e5a7",
    "theorem:T-statesstate": "7f59be35c5ee6c95e2180ae3165d9d30cfda84402e3a74a69f869a96f9897758",
    "theorem:T-simulate": "fe5f30945f2e74bff9fe2492e52d926861eec319fcd56b8e3b71f2268c662032",
    "theorem:T-fusedF": "ed2c5fd819009c5e640d8c882a8574c26eae05803e7a175745f9360b54922370",
    "theorem:T-modify": "6c25f6f48eeabc7c6d2499235be7094491d9a1267c023ff062dc94b27186eedc",
    "theorem:T-trail": "833055cd4f0ac9359415bba8cd60dcd322142e4ca49079f8cb33bf1c5fb3d75e",
    "theorem:T-simulateT": "220a3b9ff1c49c273abbab2121cc15c32153e13a740c737c1f69fe1ad2b2b3eb",
    "theorem:T-fusedTF": "f2753421d1247ae60526f5cf6726c4916d568971e8a832cc99aac172a11a221d",
    "laws:nondet": "a4d0f1c2a3d654469b7fe59dc1e71f4eef4d76bac3fbf5a39f54cf4e418b6c92",
    "laws:state": "f8735ce3fa656f4476f976530be9787122c450e929d14a931266e5deddb2e9c8",
    "laws:localstate": "9024c88d7838c4d5d80d3dfb834ca8d707e064cb7f7c46eb9b8fe97e8d22a617",
    "laws:globalstate": "20f6e04703c74c01c45db2a11461ac50a4e9c2e4d945d979c216910910cffc9c",
    "laws:undo": "26965aa5fa3e91024f4a995d22d0b2ea9350d86d0a3e339ed6bf45e0eedf5210",
    "laws:modify": "806702614900f236a587ca1d8484b9ad98470bd5739a3ab93a7e61553a52d0f4",
    "lemma:state-restored": "4335e425e06f5ce82fea402d7aceb815117904420c4e8159f8a9a98a66cace69",
    "lemma:modify-restored": "67bff242d26c42c5ffd65d112a878c5862620549cb9526328a406b5233345732",
    "lemma:pop-extract": "d6960b71befde43d0c5576ae1add437c276ca5ccc0d0b07bd07193c11c1db0a8",
    "lemma:stack-eval": "bedbdd61a1fbb453e893ea870d1fb12359ed37246fcd724116480037a9387223",
    "lemma:dist-bind": "5ac0681454315eb5ccc10eb5fc3bec7aaea688e3524ea3ea8de6ef5899578471",
    "lemma:trail-tracks": "c66b7d815efcd957cf7a6dfbd358ab8e1511eea46d2635f2313c4a57583545b8",
    "lemma:untrail-undos": "2a3778599eeca01c2b9d3f09d68b1da1c3cd3d82e6a394fd30799df1a611780e",
    "lemma:state-stack-restored": "8e0e44690ed3046d3b1f5205074f6e3ea72205a1b24782a5d1d4d59e6a5374b8",
    "mutation:skip-putR": "68baafcbc65c4d51c48b112ee110b0e5825358f125a89cc2104f3025dd22945a",
    "mutation:untrailed-branch": "ab30eeff0ad3d8a884dd68ba2734fa7b41d8b1b39f5e2c6f1a9901560961691e",
    "mutation:minus-as-plus": "3da18e98092d69e97078e3dad73d853a163ede1e5b2771ad6aa4d37f05283229",
}


def test_golden_reports():
    import hashlib
    import json

    def digest(report):
        text = json.dumps(report, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    reports = {}
    for ident in THEOREM_IDS:
        reports["theorem:" + ident] = check_theorem(ident, 40, 42)
    for suite in LAW_SUITES:
        reports["laws:" + suite] = check_laws(suite, 40, 42)
    for ident in LEMMA_IDS:
        reports["lemma:" + ident] = check_lemma(ident, 40, 42)
    for name in MUTATIONS:
        reports["mutation:" + name] = check_mutation(name, 200, 42)
    assert {k: digest(r) for k, r in reports.items()} == GOLDEN_REPORTS
    assert {name: reports["mutation:" + name]["firstFailingTrial"]
            for name in MUTATIONS} == {
        "skip-putR": 11, "untrailed-branch": 38, "minus-as-plus": 38}
    assert reports["laws:globalstate"]["counterexample"]["trialSeed"] \
        == 42000147


def test_restored_lemmas_catch_a_missing_restore(monkeypatch):
    # With the restoring translations replaced by the identity, a put or
    # update in a left branch leaks into the final state.
    from effsim import difftest
    monkeypatch.setattr(difftest, "local2global", lambda t: t)
    monkeypatch.setattr(difftest, "local2global_m", lambda t: t)
    counts = {}
    for ident in ("state-restored", "modify-restored"):
        failures = check_lemma(ident, 200, 42)["failures"]
        assert failures, ident
        assert all(f["astText"].startswith("s0=") for f in failures), ident
        counts[ident] = len(failures)
    assert counts == {"state-restored": 116, "modify-restored": 136}


@pytest.mark.parametrize("lemma, name, broken, prefix", [
    ("pop-extract", "pop_s", lambda at=0: Leaf(()), "pop-extract;"),
    ("stack-eval", "append_s", lambda x, p, at=0: p, "evaluation-append"),
    ("dist-bind", "h_state", lambda t, s: handlers.h_state(t, 0),
     "dist-hState1;"),
    ("trail-tracks", "local2trail", difftest._local2trail_untrailed_branch,
     "trail-tracks;"),
    ("untrail-undos", "untrail", lambda k=Leaf(()): k, "untrail-undos;"),
    ("state-stack-restored", "untrail", lambda k=Leaf(()): k,
     "state-stack-restored;"),
], ids=["pop-extract", "stack-eval", "dist-bind", "trail-tracks",
        "untrail-undos", "state-stack-restored"])
def test_lemma_checks_record_failures(monkeypatch, lemma, name, broken,
                                      prefix):
    # Each hand-written lemma check, run against one broken name, records
    # its failures under its own label.
    monkeypatch.setattr(difftest, name, broken)
    failures = check_lemma(lemma, 200, 42)["failures"]
    assert failures, lemma
    assert all(f["astText"].startswith(prefix) for f in failures), lemma


def test_law_suite_records_failures(monkeypatch):
    # With put writing one more than it is given, the state laws that read
    # back a put break, and each failure is recorded under its law's name.
    monkeypatch.setattr(difftest, "put",
                        lambda s, at=0, k=Leaf(()): core.put(s + 1, at, k))
    failures = check_laws("state", 200, 42)["failures"]
    assert len(failures) == 227
    assert all(f["astText"].startswith(("law=put-get;", "law=get-put;"))
               for f in failures)


def test_globalstate_records_a_missing_counterexample(monkeypatch):
    # With hLocal replaced by hGlobal, put-or holds on both sides of the
    # search, so the missing local counterexample is recorded as a failure.
    monkeypatch.setattr(difftest, "h_local", difftest.h_global)
    rep = check_laws("globalstate", 60, 42)
    assert rep["counterexample"] is None
    assert [f["astText"] for f in rep["failures"]] == [
        "put-or-under-local counterexample search"]
