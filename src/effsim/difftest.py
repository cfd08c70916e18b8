"""Differential testing: deterministic program generation, an independent
DFS oracle, and executable encodings of the translation theorems, the
algebraic laws, and the appendix lemmas.

Programs are tagged tuples over integer states and integer results, like
their expressions:

    p ::= ("ret", e) | ("fail",) | ("or", p, p) | ("seq", p, p)
        | ("get", v, p) | ("put", e, p) | ("mget", v, p) | ("update", e, p)
    e ::= ("const", n) | ("var", v) | ("add", e, e) | ("sub", e, e)

with n in [-3, 3] and v a variable name.  gen_program draws each choice
from random.Random(seed).getrandbits alone, by the rule CPython 3.11's
Random.choice and randint follow, so every seed keeps yielding the program
those calls drew (tests/reference_gen.py).  The integer Undo instance is
plus = +, minus = -.  Restore is never generated (the translation theorems'
precondition).  Reports are JSON-ready records:
{suite, seed, trials, failures: [{trialSeed, astText, lhs, rhs}]}.
"""

import random

from .core import (
    Leaf, Or, MUpdate, _Deferred, bind, seq, get, put, fail, or_, mget,
    update, restore, fold,
)
from .handlers import (
    Undo, INT_UNDO, h_nd, h_state, h_modify, h_nil, h_local, h_global,
    run_stack, to_cells, from_cells,
)
from .translations import (
    local2global, nondet2state, run_nd, run_ndf, states2state,
    local2global_m, local2trail, untrail, push_stack, pop_s, push_s,
    append_s, MARKER,
)
from .queens import RUNNERS, q_plus, q_minus


# ---------------------------------------------------------------------------
# Programs and expressions.
# ---------------------------------------------------------------------------

def eval_expr(e, env):
    kind = e[0]
    if kind == "const":
        return e[1]
    if kind == "var":
        return env[e[1]]
    if kind == "add":
        return eval_expr(e[1], env) + eval_expr(e[2], env)
    if kind == "sub":
        return eval_expr(e[1], env) - eval_expr(e[2], env)
    raise ValueError("bad expression %r" % (e,))


def show_expr(e):
    kind = e[0]
    if kind == "const":
        return str(e[1])
    if kind == "var":
        return e[1]
    if kind == "add":
        return "(%s + %s)" % (show_expr(e[1]), show_expr(e[2]))
    if kind == "sub":
        return "(%s - %s)" % (show_expr(e[1]), show_expr(e[2]))
    raise ValueError("bad expression %r" % (e,))


def show_ast(p):
    kind = p[0]
    if kind == "ret":
        return "ret %s" % show_expr(p[1])
    if kind == "fail":
        return "fail"
    if kind == "or":
        return "(%s | %s)" % (show_ast(p[1]), show_ast(p[2]))
    if kind == "seq":
        return "(%s) >> (%s)" % (show_ast(p[1]), show_ast(p[2]))
    if kind in ("get", "mget"):
        return "%s >>= \\%s -> %s" % (kind, p[1], show_ast(p[2]))
    if kind in ("put", "update"):
        return "%s %s; %s" % (kind, show_expr(p[1]), show_ast(p[2]))
    raise ValueError("bad ast %r" % (p,))


# ---------------------------------------------------------------------------
# Generation.
# ---------------------------------------------------------------------------

def _choices(xs):
    """xs as the table of one draw: (k, xs padded with None to 2**k).  A
    draw reads k = len(xs).bit_length() bits and redraws past the end of
    xs, even for one choice, as random.Random.choice does in CPython 3.11."""
    k = len(xs).bit_length()
    return k, tuple(xs) + (None,) * (2 ** k - len(xs))


def _pick(bits, table):
    k, xs = table
    x = xs[bits(k)]
    while x is None:
        x = xs[bits(k)]
    return x


# The kinds an expression draws from, by [no variable in scope][depth left].
_EXPR_KINDS = tuple(tuple(_choices(("const",) + ("var",) * v
                                   + ("add", "sub") * (d > 0))
                          for d in range(3)) for v in (True, False))
_CONSTS = _choices(range(-3, 4))  # random.Random.randint(-3, 3)


def _gen_expr(bits, vars_, depth=2):
    kind = _pick(bits, _EXPR_KINDS[not vars_][depth])
    if kind == "const":
        return ("const", _pick(bits, _CONSTS))
    if kind == "var":
        return ("var", _pick(bits, _choices(vars_)))
    return (kind, _gen_expr(bits, vars_, depth - 1),
            _gen_expr(bits, vars_, depth - 1))


def _gen_ast(bits, depth, kinds, vars_, counter):
    """kinds holds the tables of the atoms drawn at depth 0 and of the
    kinds drawn above it."""
    kind = _pick(bits, kinds[depth > 0])
    if kind == "ret":
        return ("ret", _gen_expr(bits, vars_))
    if kind == "fail":
        return ("fail",)
    depth -= 1
    if kind in ("or", "seq"):
        return (kind, _gen_ast(bits, depth, kinds, vars_, counter),
                _gen_ast(bits, depth, kinds, vars_, counter))
    if kind in ("get", "mget"):
        v = "v%d" % counter[0]
        counter[0] += 1
        return (kind, v, _gen_ast(bits, depth, kinds, vars_ + (v,), counter))
    return (kind, _gen_expr(bits, vars_),  # put, update
            _gen_ast(bits, depth, kinds, vars_, counter))


def gen_program(seed, depth, families, free_vars=()):
    """Deterministically generate a depth-bounded program using only the
    requested families; free_vars names variables assumed bound outside.
    Each draw reads random.Random(seed).getrandbits (_pick)."""
    nd = "nondet" in families
    kinds = (_choices(("ret", "fail") if nd else ("ret",)),
             _choices(("ret", "seq") + ("fail", "or", "or") * nd
                      + ("get", "put", "put") * ("state" in families)
                      + ("mget", "update", "update") * ("modify" in families)))
    return _gen_ast(random.Random(seed).getrandbits, depth, kinds,
                    tuple(free_vars), [0])


# ---------------------------------------------------------------------------
# Lowering to effect trees.
# ---------------------------------------------------------------------------

def lower(ast, layout, env=None):
    """Lower a program to an effect tree.  layout maps family names to
    injection indices; entry "modify_as_state" (an index) lowers mget/update
    to a second plain-state family instead of ModifyF."""
    env = env or {}
    kind = ast[0]
    if kind == "ret":
        return Leaf(eval_expr(ast[1], env))
    if kind == "fail":
        return fail(at=layout["nondet"])
    if kind == "or":
        return or_(lower(ast[1], layout, env), lower(ast[2], layout, env),
                   at=layout["nondet"])
    if kind == "seq":
        return bind(lower(ast[1], layout, env),
                    lambda _x: lower(ast[2], layout, env))
    if kind in ("get", "mget"):
        body = lambda s: lower(ast[2], layout, {**env, ast[1]: s})
        if kind == "mget" and "modify_as_state" not in layout:
            return mget(body, at=layout["modify"])
        return get(body, at=layout["state" if kind == "get"
                                   else "modify_as_state"])
    if kind == "put":
        return put(eval_expr(ast[1], env), layout["state"],
                   lower(ast[2], layout, env))
    if kind == "update":
        r = eval_expr(ast[1], env)
        if "modify_as_state" in layout:
            at = layout["modify_as_state"]
            return get(lambda s: put(s + r, at, lower(ast[2], layout, env)),
                       at=at)
        return update(r, layout["modify"], lower(ast[2], layout, env))
    raise ValueError("bad ast %r" % (ast,))


# ---------------------------------------------------------------------------
# Independent oracle: environment-passing DFS in continuation style.
# ---------------------------------------------------------------------------

def oracle_eval(ast, s0, mode):
    """Evaluate a program directly, without trees or handlers.

    One DFS threads the state through the whole program.  The two modes
    differ only in the state the right arm of an or starts from: the state
    at the or ("local": each branch owns a copy of the state) or the state
    the left arm ended in ("global": one state, never restored).  Returns a
    dict with the mode and the answers, plus finalState under "global".
    """
    if mode not in ("local", "global"):
        raise ValueError("unknown oracle mode %r" % (mode,))

    def ev(p, env, s, k):
        kind = p[0]
        if kind == "ret":
            return k(eval_expr(p[1], env), s)
        if kind == "fail":
            return [], s
        if kind == "or":
            a1, s1 = ev(p[1], env, s, k)
            a2, s2 = ev(p[2], env, s if mode == "local" else s1, k)
            return a1 + a2, s2
        if kind == "seq":
            return ev(p[1], env, s, lambda _a, s2: ev(p[2], env, s2, k))
        if kind in ("get", "mget"):
            return ev(p[2], {**env, p[1]: s}, s, k)
        if kind == "put":
            return ev(p[2], env, eval_expr(p[1], env), k)
        if kind == "update":
            return ev(p[2], env, s + eval_expr(p[1], env), k)
        raise ValueError("bad ast %r" % (p,))

    answers, s_final = ev(ast, {}, s0, lambda a, s: ([a], s))
    if mode == "local":
        return {"mode": "local", "answers": answers}
    return {"mode": "global", "answers": answers, "finalState": s_final}


# ---------------------------------------------------------------------------
# Reports.
# ---------------------------------------------------------------------------

def _trial_seed(seed, i):
    return seed * 1_000_003 + i


def _failure(trial_seed, ast_text, lhs, rhs):
    return {"trialSeed": trial_seed, "astText": ast_text,
            "lhs": repr(lhs), "rhs": repr(rhs)}


def _record(report, trial_seed, ast_text, lhs, rhs):
    report["failures"].append(_failure(trial_seed, ast_text, lhs, rhs))


def _trials(suite, check, trials, seed, first=False):
    """The trial loop of every suite: check(report, ts, rng) records what it
    finds for each trial seed ts.  With first, stop after the first trial
    that records a failure and note its index as firstFailingTrial."""
    report = {"suite": suite, "seed": seed, "trials": trials, "failures": []}
    for i in range(trials):
        ts = _trial_seed(seed, i)
        check(report, ts, random.Random(ts))
        if first and report["failures"]:
            report["firstFailingTrial"] = i
            break
    return report


def _row(table, kind, ident):
    """table[ident], or the suite's unknown-id error."""
    if ident not in table:
        raise ValueError("unknown %s %r" % (kind, ident))
    return table[ident]


def _agree(families, layout, lhs, rhs, depth):
    """A check that lhs(t, s0) == rhs(t, s0) on a random program over the
    families, lowered at the layout to t, from a random initial state s0."""
    def check(report, ts, rng):
        s0 = rng.randint(-3, 3)
        ast = gen_program(ts, depth, families)
        t = lower(ast, layout)  # trees are immutable: both sides share it
        l, r = lhs(t, s0), rhs(t, s0)
        if l != r:
            _record(report, ts, "s0=%d; %s" % (s0, show_ast(ast)), l, r)
    return check


SN = {"state": 0, "nondet": 1}        # [StateF, NondetF]
NS = {"nondet": 0, "state": 1}        # [NondetF, StateF]
MN = {"modify": 0, "nondet": 1}       # [ModifyF, NondetF]
SS2 = {"state": 0, "modify_as_state": 1, "nondet": 2}  # two state families


# ---------------------------------------------------------------------------
# Theorems.
# ---------------------------------------------------------------------------

def _runner(name, undo=INT_UNDO):
    """queens.RUNNERS[name] as a theorem side: a function of (tree, s0)."""
    return lambda t, s0: RUNNERS[name](t, s0, undo)


def alpha(v):
    """((a, x), y) -> (a, (x, y)) — the carrier isomorphism."""
    (a, x), y = v
    return (a, (x, y))


_SN = (("state", "nondet"), SN)   # (families, layout) of a state row
_MN = (("modify", "nondet"), MN)  # ... and of a modify row

# Each translation theorem as (families, layout, lhs, rhs), an _agree check.
THEOREMS = {
    "T-localglobal": _SN + (_runner("local"), _runner("global")),
    "T-nondetstateS": (("nondet",), {"nondet": 0}, _runner("naive"),
                       lambda t, s0: run_nd(t)),
    "T-nondetstate": (("state", "nondet"), NS,
                      lambda t, s0: h_nil(run_stack(
                          t, (("nondet", 0), ("state", 1)), (s0,))),
                      lambda t, s0: h_nil(h_state(run_ndf(t), s0))),
    "T-statesstate": (("state", "modify", "nondet"), SS2,
                      lambda t, s0: [alpha(v) for v in h_nil(run_stack(
                          t, (("state", 0), ("state", 1), ("nondet", 2)),
                          (s0, s0 + 1)))],
                      lambda t, s0: h_nil(run_stack(
                          states2state(t), (("state", 0), ("nondet", 1)),
                          ((s0, s0 + 1),)))),
    "T-simulate": _SN + (_runner("local"), _runner("sim")),
    "T-fusedF": _SN + (_runner("sim"), _runner("fusedF")),
    "T-modify": _MN + (_runner("localM"), _runner("globalM")),
    "T-trail": _MN + (_runner("localM"), _runner("globalT")),
    "T-simulateT": _MN + (_runner("localM"), _runner("simT")),
    "T-fusedTF": _MN + (_runner("simT"), _runner("fusedTF")),
}

THEOREM_IDS = tuple(THEOREMS)


def check_theorem(ident, trials, seed, depth=6):
    """Compare both sides of a translation theorem on random programs."""
    row = _row(THEOREMS, "theorem id", ident)
    return _trials(ident, _agree(*row, depth), trials, seed)


# ---------------------------------------------------------------------------
# Law suites.
# ---------------------------------------------------------------------------

def _ctx(ts, families, layout):
    """A random continuation: an open program over 'x', lowered per answer."""
    k_ast = gen_program(ts ^ 0x5DEECE66D, 3, families, free_vars=("x",))
    return (lambda a: lower(k_ast, layout, {"x": a})), k_ast


def _one_family_ctx(ts, family):
    """The contexts of a law suite over one family at index 0: k and its
    program (_ctx), kc for unit-valued laws, and k2 over 'x' and 'y'."""
    layout = {family: 0}
    k, k_ast = _ctx(ts, (family,), layout)
    kc_ast = gen_program(ts + 8, 3, (family,))
    k2_ast = gen_program(ts + 7, 2, (family,), free_vars=("x", "y"))
    return (k, k_ast, lambda _a: lower(kc_ast, layout),
            lambda a, b: lower(k2_ast, layout, {"x": a, "y": b}))


def _compare(report, ts, cases, detail):
    """Record each law case (name, lhs, rhs) whose two sides differ, as
    "law=<name>; <detail()>"."""
    for name, lhs, rhs in cases:
        if lhs != rhs:
            _record(report, ts, "law=%s; %s" % (name, detail()), lhs, rhs)


def _check_nondet_laws(report, ts, rng):
    n0 = {"nondet": 0}
    m_ast = gen_program(ts, 3, ("nondet",))
    n_ast = gen_program(ts + 1, 3, ("nondet",))
    o_ast = gen_program(ts + 2, 3, ("nondet",))
    k, k_ast = _ctx(ts, ("nondet",), n0)
    # Trees are immutable: every law shares each lowered program.
    m, n, o = (lower(a, n0) for a in (m_ast, n_ast, o_ast))
    run = lambda t: h_nd(bind(t, k))
    _compare(report, ts, [
        ("identity-left", run(or_(fail(at=0), m, at=0)), run(m)),
        ("identity-right", run(or_(m, fail(at=0), at=0)), run(m)),
        ("assoc", run(or_(or_(m, n, at=0), o, at=0)),
         run(or_(m, or_(n, o, at=0), at=0))),
    ], lambda: "m=%s; k=%s" % (show_ast(m_ast), show_ast(k_ast)))


def _check_state_laws(report, ts, rng):
    s, s2 = rng.randint(-3, 3), rng.randint(-3, 3)
    s0 = rng.randint(-3, 3)
    k, k_ast, kc, k2 = _one_family_ctx(ts, "state")
    run = lambda t, kk=k: h_nil(h_state(bind(t, kk), s0))
    _compare(report, ts, [
        ("put-put", run(seq(put(s), put(s2)), kc), run(put(s2), kc)),
        ("put-get", run(seq(put(s), get(Leaf))), run(seq(put(s), Leaf(s)))),
        ("get-put", run(get(lambda v: put(v)), kc), run(Leaf(()), kc)),
        ("get-get", run(get(lambda v: get(lambda w: k2(v, w)))),
         run(get(lambda v: k2(v, v)))),
    ], lambda: "s=%d s'=%d s0=%d; k=%s" % (s, s2, s0, show_ast(k_ast)))


def _state_nondet_ctx(ts, rng):
    """The localstate and globalstate law suites' s, s0, programs m and n
    lowered at SN (shared by every law: trees are immutable), context k, and
    failure detail."""
    s, s0 = rng.randint(-3, 3), rng.randint(-3, 3)
    m_ast = gen_program(ts, 3, ("state", "nondet"))
    n_ast = gen_program(ts + 1, 3, ("state", "nondet"))
    k, k_ast = _ctx(ts, ("state", "nondet"), SN)
    detail = lambda: "s=%d s0=%d; m=%s; n=%s; k=%s" % (
        s, s0, show_ast(m_ast), show_ast(n_ast), show_ast(k_ast))
    return s, s0, lower(m_ast, SN), lower(n_ast, SN), k, detail


def _check_localstate_laws(report, ts, rng):
    s, s0, m, n, k, detail = _state_nondet_ctx(ts, rng)
    k1_ast = gen_program(ts + 5, 3, ("state", "nondet"), free_vars=("x",))
    k2_ast = gen_program(ts + 6, 3, ("state", "nondet"), free_vars=("x",))
    k1 = lambda a: lower(k1_ast, SN, {"x": a})
    k2 = lambda a: lower(k2_ast, SN, {"x": a})
    run = lambda t: h_nil(h_local(bind(t, k), s0))
    _compare(report, ts, [
        ("put-right-identity", run(seq(put(s), fail())), run(fail())),
        ("put-left-dist", run(seq(put(s), or_(m, n))),
         run(or_(seq(put(s), m), seq(put(s), n)))),
        ("get-right-identity", run(seq(get(Leaf), fail())), run(fail())),
        ("get-left-dist", run(get(lambda v: or_(k1(v), k2(v)))),
         run(or_(get(k1), get(k2)))),
    ], detail)


def _check_globalstate_laws(report, ts, rng):
    s, s0, m, n, k, detail = _state_nondet_ctx(ts, rng)
    l = bind(or_(seq(put(s), m), n), k)
    r = bind(seq(put(s), or_(m, n)), k)
    _compare(report, ts, [("put-or", h_nil(h_global(l, s0)),
                           h_nil(h_global(r, s0)))], detail)
    # Counterexample search: the same law must be violable under hLocal.
    if report.get("counterexample") is None:
        lloc, rloc = h_nil(h_local(l, s0)), h_nil(h_local(r, s0))
        if lloc != rloc:
            report["counterexample"] = _failure(
                ts, "law=put-or under local; " + detail(), lloc, rloc)


def _check_undo_laws(report, ts, rng):
    s = rng.randint(-100, 100)
    r = rng.randint(-100, 100)
    _compare(report, ts, [("plus-minus (int)",
                           INT_UNDO.minus(INT_UNDO.plus(s, r), r), s)],
             lambda: "s=%d r=%d" % (s, r))
    c = rng.randint(0, 6)
    sol = [rng.randint(1, 8) for _ in range(c)]
    qs = (c, sol)
    qr = rng.randint(1, 8)
    _compare(report, ts, [("plus-minus (queens)",
                           q_minus(q_plus(qs, qr), qr), qs)],
             lambda: "s=%r r=%d" % (qs, qr))


def _check_modify_laws(report, ts, rng):
    s0 = rng.randint(-3, 3)
    r = rng.randint(-3, 3)
    k, k_ast, kc, k2 = _one_family_ctx(ts, "modify")
    run = lambda t, kk=k: h_nil(h_modify(bind(t, kk), s0))
    _compare(report, ts, [
        ("mget-mget", run(mget(lambda v: mget(lambda w: k2(v, w)))),
         run(mget(lambda v: k2(v, v)))),
        ("update-mget", run(mget(lambda v: seq(update(r), Leaf(v + r)))),
         run(seq(update(r), mget(Leaf)))),
        ("restore-mget", run(mget(lambda v: seq(restore(r), Leaf(v - r)))),
         run(seq(restore(r), mget(Leaf)))),
        ("update-restore", run(seq(update(r), restore(r)), kc),
         run(Leaf(()), kc)),
    ], lambda: "r=%d s0=%d; k=%s" % (r, s0, show_ast(k_ast)))


_LAW_CHECKS = {
    "nondet": _check_nondet_laws,
    "state": _check_state_laws,
    "localstate": _check_localstate_laws,
    "globalstate": _check_globalstate_laws,
    "undo": _check_undo_laws,
    "modify": _check_modify_laws,
}

LAW_SUITES = tuple(_LAW_CHECKS)


def check_laws(suite, trials, seed):
    """Check a law suite in random contexts (>>= k) on random programs."""
    report = _trials(suite, _row(_LAW_CHECKS, "law suite", suite), trials,
                     seed)
    if suite == "globalstate" and report.setdefault("counterexample",
                                                    None) is None:
        report["failures"].append({
            "trialSeed": seed,
            "astText": "put-or-under-local counterexample search",
            "lhs": "no violation found",
            "rhs": "a violation was expected (the law is global-only)",
        })
    return report


# ---------------------------------------------------------------------------
# Lemma suite.
# ---------------------------------------------------------------------------

def _trail_run(t, s, trail):
    """hState1 ((hModify1 . hND+f . swap) t s) trail, keeping all pairs:
    h_global_t's stack without its projection.

    t is over [ModifyF, NondetF, StateF(Trail) | ...]; result is
    ((answers, s_final), trail_final).  Both trails are lists, the top
    first.
    """
    res, tr = h_nil(run_stack(t, (("nondet", 1), ("modify", 0), ("state", 2)),
                              (s, to_cells(trail[::-1]))))
    return res, from_cells(tr)[::-1]


def _machine_state(rng, ts):
    """A random choicepoint state: results plus pending translated branches."""
    xs = [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]
    st = [nondet2state(lower(gen_program(ts + 100 + j, 3, ("nondet",)),
                             {"nondet": 0}))
          for j in range(rng.randint(0, 2))]
    return xs, st


def _drain(p, xs, st):
    """Run machine tree p to completion from the choicepoint state with
    results xs and stack st (lists, the top of st first); the final state
    has an empty stack, so its results fully describe the run."""
    res = h_nil(h_state(p, (to_cells(xs), to_cells(st[::-1]))))
    return from_cells(res[1][0])


def _check_pop_extract(report, ts, rng):
    src = gen_program(ts, 4, ("nondet",))
    p = nondet2state(lower(src, {"nondet": 0}))
    extracted = _drain(p, [], [])  # trees are immutable
    xs, st = _machine_state(rng, ts)
    lhs = _drain(p, xs, st)
    rhs = _drain(pop_s(), xs + extracted, st)
    if lhs != rhs:
        _record(report, ts, "pop-extract; %s" % show_ast(src), lhs, rhs)


def _check_stack_eval(report, ts, rng):
    xs, st = _machine_state(rng, ts)
    x = rng.randint(-3, 3)
    p = nondet2state(lower(gen_program(ts, 3, ("nondet",)), {"nondet": 0}))
    q = nondet2state(lower(gen_program(ts + 1, 3, ("nondet",)),
                           {"nondet": 0}))
    checks = [
        ("evaluation-append", _drain(append_s(x, p), xs, st),
         _drain(p, xs + [x], st)),
        ("evaluation-pop1", _drain(pop_s(), xs, []), xs),
        ("evaluation-pop2", _drain(pop_s(), xs, [q] + st), _drain(q, xs, st)),
        ("evaluation-push", _drain(push_s(q, p), xs, st),
         _drain(p, xs, [q] + st)),
    ]
    for name, lhs, rhs in checks:
        if lhs != rhs:
            _record(report, ts, name, lhs, rhs)


def _check_dist_bind(report, ts, rng):
    s0 = rng.randint(-3, 3)
    # hState1 and hModify1 distribute over bind (residual nondeterminism
    # observed).
    for name, (families, layout), handler, off in (
            ("hState1", _SN, h_state, 0), ("hModify1", _MN, h_modify, 2)):
        p_ast = gen_program(ts + off, 4, families)
        k_ast = gen_program(ts + off + 1, 3, families, free_vars=("x",))
        kf = lambda a: lower(k_ast, layout, {"x": a})
        lhs = h_nd(handler(bind(lower(p_ast, layout), kf), s0))
        rhs = h_nd(bind(handler(lower(p_ast, layout), s0),
                        lambda pair: handler(kf(pair[0]), pair[1])))
        if lhs != rhs:
            _record(report, ts, "dist-%s; p=%s; k=%s"
                    % (name, show_ast(p_ast), show_ast(k_ast)), lhs, rhs)


def _random_trail(rng):
    out = []
    for _ in range(rng.randint(0, 3)):
        out.append(MARKER if rng.random() < 0.4 else rng.randint(-3, 3))
    return out


def _trail_case(ts, rng):
    """A program over [ModifyF, NondetF], an initial state s0, a random
    trail, and the program's local2trail translation (trees are immutable:
    every run shares it)."""
    ast = gen_program(ts, 5, ("modify", "nondet"))
    s0 = rng.randint(-3, 3)
    trail = _random_trail(rng)
    return ast, s0, trail, local2trail(lower(ast, MN))


def _check_trail_tracks(report, ts, rng):
    ast, s0, t2, u = _trail_case(ts, rng)
    (res1, sf1), tf1 = _trail_run(u, s0, [])
    (res2, sf2), tf2 = _trail_run(u, s0, t2)
    ok = (res1 == res2 and sf1 == sf2 and tf1 + t2 == tf2
          and all(e is not MARKER for e in tf1) and sf1 == s0 + sum(tf1))
    if not ok:
        _record(report, ts, "trail-tracks; s0=%d; %s" % (s0, show_ast(ast)),
                ((res1, sf1), tf1), ((res2, sf2), tf2))


def _check_untrail_undos(report, ts, rng):
    s0 = rng.randint(-5, 5)
    ys = [rng.randint(-3, 3) for _ in range(rng.randint(0, 4))]
    xs = _random_trail(rng)
    trail = ys + [MARKER] + xs
    (res, s_final), t_final = _trail_run(untrail(), s0, trail)
    expect_s = s0 - sum(ys)  # fminus: foldl minus
    if not (res == [()] and s_final == expect_s and t_final == xs):
        _record(report, ts, "untrail-undos; s0=%d ys=%r xs=%r"
                % (s0, ys, xs), ((res, s_final), t_final),
                (([()], expect_s), xs))


def _check_state_stack_restored(report, ts, rng):
    ast, s0, t0, u = _trail_case(ts, rng)
    # Marker-push, run, untrail — sequentially threading state and trail.
    (_r1, s1), tr1 = _trail_run(push_stack(MARKER), s0, t0)
    (res, s2), tr2 = _trail_run(u, s1, tr1)
    (_r3, s3), tr3 = _trail_run(untrail(), s2, tr2)
    (res_ref, _sref), _tref = _trail_run(u, s0, [])
    if not (res == res_ref and s3 == s0 and tr3 == t0):
        _record(report, ts, "state-stack-restored; s0=%d t0=%r; %s"
                % (s0, t0, show_ast(ast)), (res, s3, tr3), (res_ref, s0, t0))


# state-restored and modify-restored: a restoring translation run by its
# global handler's stack, without the projection, ends in the initial state.
_LEMMA_CHECKS = {
    "state-restored": _agree(*_SN, lambda t, s0: h_nil(run_stack(
        local2global(t), (("nondet", 1), ("state", 0)), (s0,)))[1],
        lambda t, s0: s0, 5),
    "modify-restored": _agree(*_MN, lambda t, s0: h_nil(run_stack(
        local2global_m(t), (("nondet", 1), ("modify", 0)), (s0,)))[1],
        lambda t, s0: s0, 5),
    "pop-extract": _check_pop_extract,
    "stack-eval": _check_stack_eval,
    "dist-bind": _check_dist_bind,
    "trail-tracks": _check_trail_tracks,
    "untrail-undos": _check_untrail_undos,
    "state-stack-restored": _check_state_stack_restored,
}

LEMMA_IDS = tuple(_LEMMA_CHECKS)


def check_lemma(ident, trials, seed):
    """Check an appendix lemma on random programs / machine states."""
    return _trials(ident, _row(_LEMMA_CHECKS, "lemma id", ident), trials,
                   seed)


# ---------------------------------------------------------------------------
# Mutation sensitivity: three seeded bugs, each detectable by a suite.
# ---------------------------------------------------------------------------

def _local2trail_untrailed_branch(t):
    """BUG: the right branch of Or does not untrail."""
    return fold(Leaf, _untrailed_branch, t)


def _untrailed_branch(idx, op):
    """The bug's one-node algebra.  It translates the arms of an update or
    an Or at once, which is fine on the small programs it runs on."""
    if idx == 0 and isinstance(op, MUpdate):
        return push_stack(op.r, update(op.r, 0,
                                       _local2trail_untrailed_branch(op.k)))
    if idx == 1 and isinstance(op, Or):
        return or_(push_stack(MARKER, _local2trail_untrailed_branch(op.l)),
                   _local2trail_untrailed_branch(op.r), at=1)
    return _Deferred(idx + (idx > 1), op, _local2trail_untrailed_branch)


_BROKEN_UNDO = Undo(INT_UNDO.plus, INT_UNDO.plus)  # BUG: minus defined as plus

# Each seeded bug as a theorem row whose right side is broken: T-localglobal
# without local2global (Put kept instead of its state-restoring expansion),
# and T-trail with the bug in local2trail (the answers of hGlobalT's run from
# an empty trail) or in the Undo instance.
_MUTANTS = {
    "skip-putR": _SN + (_runner("local"),
                        lambda t, s0: h_nil(h_global(t, s0))),
    "untrailed-branch": _MN + (_runner("localM"), lambda t, s0: _trail_run(
        _local2trail_untrailed_branch(t), s0, [])[0][0]),
    "minus-as-plus": _MN + (_runner("localM"),
                            _runner("globalT", _BROKEN_UNDO)),
}

MUTATIONS = tuple(_MUTANTS)


def check_mutation(name, trials, seed, depth=6):
    """Run a suite against a deliberately broken implementation; the check
    passes when at least one trial exposes the bug."""
    row = _row(_MUTANTS, "mutation", name)
    report = _trials("mutation:" + name, _agree(*row, depth), trials, seed,
                     first=True)
    report["detected"] = "firstFailingTrial" in report
    return report
