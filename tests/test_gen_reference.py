"""gen_program against the random.choice/randint generator it replaced.

difftest.gen_program reads random.Random(seed).getrandbits directly; the
suites' reports, trial seeds and failure texts stay the same only while it
builds the same program as reference_gen for every seed.  CORPUS_DIGEST in
test_difftest.py covers depth 6 and seeds 0..49; this grid adds every depth
from 0, the shapes of the seeds the suites use, and so the draws with a
single choice (the atom "ret" of a family set without nondet, the constant
kind of an expression at depth 0 with no variable in scope), which consume
bits too.
"""

import pytest

import reference_gen
from effsim.difftest import gen_program, _trial_seed

FAMILY_SETS = [("nondet",), ("state",), ("modify",), ("state", "nondet"),
               ("modify", "nondet"), ("state", "modify", "nondet")]
FREE_VARS = [(), ("x",), ("x", "y")]


def _seeds():
    """Seeds 0..299, trial seeds of suite seed 42, and those trial seeds
    as _ctx turns them into the seeds of its continuations."""
    for i in range(300):
        ts = _trial_seed(42, i)
        yield from (i, ts, ts ^ 0x5DEECE66D)


@pytest.mark.parametrize("families", FAMILY_SETS,
                         ids=["+".join(f) for f in FAMILY_SETS])
def test_gen_program_matches_reference(families):
    for free in FREE_VARS:
        for depth in range(7):
            for seed in _seeds():
                assert gen_program(seed, depth, families, free) == \
                    reference_gen.gen_program(seed, depth, families, free), \
                    (seed, depth, free)


def test_single_choice_draws_consume_bits():
    # A depth-0 program over ("state",) draws its one atom "ret", then an
    # expression; were the one-choice draw skipped, the programs would
    # differ from the reference for most seeds.
    programs = [gen_program(s, 0, ("state",)) for s in range(50)]
    assert programs == [reference_gen.gen_program(s, 0, ("state",))
                        for s in range(50)]
    assert len(set(programs)) > 1
