"""The resumed block index search (`LacunaryStrategy.index_block`,
`indices_between`) against a Fraction reference.

`reference_blocks` lists block k's indices as
[n for n in range(1, top) if lower <= term(n) < upper], with every term a
Fraction; it exists only here.  Hypothesis draws geometric terms with
integer and rational bases and scales below and above 1, and explicit
lists, then calls the blocks in order, out of order and repeatedly, and
calls `indices_between` from a start drawn up to a block's first index,
with a drawn guess of the block's length.  A 400-round game of the
bundled lacunary spec then counts the term comparisons each block makes:
a count, not a timing, so host noise does not reach it.
"""

import math
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from schmidtgame import alice
from schmidtgame.alice import (ConstTargets, GeometricTerms, LacunarySpec,
                               LacunaryStrategy, ListTerms)
from schmidtgame.cli import bundled_spec_path, main
from schmidtgame.fractal import DecayParams
from schmidtgame.game import Ball, GameParams

LOOSE = DecayParams(C=F(1, 4), gamma=F(1), rho0=F(1))
QUARTER = GameParams(F(1, 4), F(1, 4))
BLOCKS = 6


@st.composite
def term_rules(draw):
    kind = draw(st.sampled_from(["integer", "rational", "list"]))
    if kind == "list":
        t, values = F(draw(st.integers(41, 400)), 40), []
        for _ in range(draw(st.integers(1, 40))):
            t *= F(draw(st.integers(20, 90)), 10)
            values.append(t)
        return ListTerms(tuple(values), F(2))
    q = 1 if kind == "integer" else draw(st.integers(2, 9))
    p = draw(st.integers(q + 1, 9 * q))
    scale = F(draw(st.integers(1, 10 ** 4)), draw(st.integers(1, 10 ** 4)))
    return GeometricTerms(F(p, q), scale)


def reference_blocks(strategy, blocks):
    """Block k's indices for k = 1..blocks, from Fraction terms."""
    terms, inv = strategy.spec.terms, 1 / strategy.ab
    bounds = [inv ** (strategy.r * k) for k in range(blocks + 1)]
    top, last = 1, terms.horizon or 10 ** 6
    while top <= last and terms.term(top) < bounds[-1]:
        top += 1
    return [[n for n in range(1, top) if lower <= terms.term(n) < upper]
            for lower, upper in zip(bounds, bounds[1:])]


def planned(terms):
    spec = LacunarySpec(terms, ConstTargets(F(0)))
    return LacunaryStrategy(spec, decay=LOOSE).plan(QUARTER, Ball(F(0), F(1)))


@settings(max_examples=60, deadline=None)
@given(term_rules(), st.permutations(range(1, BLOCKS + 1)), st.data())
def test_blocks_match_reference_in_any_order(terms, order, data):
    want = reference_blocks(planned(terms), BLOCKS)
    in_order = planned(terms)
    assert [in_order.index_block(k) for k in range(1, BLOCKS + 1)] == want
    shuffled = planned(terms)
    for k in list(order) + list(order[:2]):
        assert shuffled.index_block(k) == want[k - 1]
    # any start up to the block's first index, and any guess of its
    # length, gives the same block
    k = data.draw(st.integers(1, BLOCKS))
    lower = (1 / in_order.ab) ** (in_order.r * (k - 1))
    first = terms.indices_between(lower, lower).start
    start = data.draw(st.integers(1, first))
    length = data.draw(st.integers(0, 2 * len(want[k - 1]) + 3))
    got = terms.indices_between(lower, lower / in_order.ab ** in_order.r,
                                start, length)
    assert list(got) == want[k - 1]


def test_gallop_from_any_guess():
    # every answer, on either side of start + guess or at start itself
    for start in (1, 5):
        for answer in range(start, start + 40):
            for guess in range(45):
                assert alice._first_index(lambda n: n >= answer, start,
                                          guess) == answer


def test_block_search_resumes(monkeypatch, tmp_path):
    # each block of a 400-round game starts from the end of the last one:
    # one probe confirms the start.  Block 1 gallops up from there, about
    # 2*log2(m) + 2 probes for m terms; every later block first probes as
    # many terms on as the last block held, and lengths of geometric blocks
    # differ by at most one, so at most four probes find the end
    blocks, probes = [], None
    real_first, real_block = alice._first_index, LacunaryStrategy.index_block

    def first_index(holds, start=1, guess=0):
        def counted(n):
            nonlocal probes
            if probes is not None:
                probes += 1
            return holds(n)
        return real_first(counted, start, guess)

    def index_block(self, k):
        nonlocal probes
        probes = 0
        got = real_block(self, k)
        blocks.append((k, len(got), probes))
        probes = None
        return got

    monkeypatch.setattr(alice, "_first_index", first_index)
    monkeypatch.setattr(LacunaryStrategy, "index_block", index_block)
    assert main(["play", "--spec", bundled_spec_path("cantor_lacunary.json"),
                 "--rounds", "400", "--out", str(tmp_path)]) == 0
    assert [k for k, _, _ in blocks] == list(range(1, len(blocks) + 1))
    assert len(blocks) > 40
    for k, m, count in blocks:
        assert count <= (5 if k > 1 else 2 * math.log2(max(m, 1)) + 3), \
            (k, m, count)
