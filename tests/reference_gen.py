"""The program generator as it was written against random.choice and
random.randint, kept as a test-only reference: difftest.gen_program must
build the same program for every seed (tests/test_gen_reference.py)."""

import random


def _gen_expr(rng, vars_, depth=2):
    choices = ["const"] + (["var"] if vars_ else []) \
        + (["add", "sub"] if depth > 0 else [])
    kind = rng.choice(choices)
    if kind == "const":
        return ("const", rng.randint(-3, 3))
    if kind == "var":
        return ("var", rng.choice(vars_))
    return (kind, _gen_expr(rng, vars_, depth - 1),
            _gen_expr(rng, vars_, depth - 1))


def _gen_ast(rng, depth, families, vars_, counter):
    atoms = ["ret"] + (["fail"] if "nondet" in families else [])
    if depth <= 0:
        kind = rng.choice(atoms)
    else:
        kinds = ["ret", "seq"]
        if "nondet" in families:
            kinds += ["fail", "or", "or"]
        if "state" in families:
            kinds += ["get", "put", "put"]
        if "modify" in families:
            kinds += ["mget", "update", "update"]
        kind = rng.choice(kinds)
    sub = lambda vs=vars_: _gen_ast(rng, depth - 1, families, vs, counter)
    if kind == "ret":
        return ("ret", _gen_expr(rng, vars_))
    if kind == "fail":
        return ("fail",)
    if kind in ("or", "seq"):
        return (kind, sub(), sub())
    if kind in ("get", "mget"):
        v = "v%d" % counter[0]
        counter[0] += 1
        return (kind, v, sub(vars_ + [v]))
    return (kind, _gen_expr(rng, vars_), sub())  # put, update


def gen_program(seed, depth, families, free_vars=()):
    """Deterministically generate a depth-bounded program using only the
    requested families; free_vars names variables assumed bound outside."""
    rng = random.Random(seed)
    return _gen_ast(rng, depth, set(families), list(free_vars), [0])
