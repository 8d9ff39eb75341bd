"""The integer continued-fraction expansion (`numerics.simplest_between`)
against a Fraction reference.

`reference_simplest` expands both ends' continued fractions with a Fraction
subtraction and division at every step and evaluates the term list from the
back; `reference_fractions` walks Farey neighbours outward from it.  Both
are the straightforward reading of the Stern-Brocot descent and exist only
here.  Hypothesis draws windows with small-denominator, negative and
straddling ends, degenerate windows, ends placed exactly on a simple
fraction, and the badly-approximable game's shape: ends with 2,000-4,000-bit
denominators around points with long continued fractions, widths near the
inverse square root of the denominator and Farey orders past 2^500.
Chains of windows check the resume across nested windows: nested ones,
ones sharing an end, ones that do not nest, negative and straddling ones,
each against the reference, and the stored prefix against the one the
reference's own expansion reaches.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidtgame import numerics
from schmidtgame.numerics import (farey_left, farey_right,
                                  fractions_in_interval, simplest_between)


def reference_terms(lo, hi):
    """The simplest fraction's continued-fraction terms, for 0 < lo < hi."""
    terms = []
    while True:
        n = math.ceil(lo)
        if n <= hi:
            terms.append(n)
            return terms
        a = math.floor(lo)
        terms.append(a)
        lo, hi = 1 / (hi - a), 1 / (lo - a)


def reference_simplest(lo, hi):
    lo, hi = F(lo), F(hi)
    if lo == hi:
        return lo
    if hi < 0:
        return -reference_simplest(-hi, -lo)
    if lo <= 0:
        return F(0)
    return continued_fraction(reference_terms(lo, hi))


def reference_prefix(lo, hi):
    """Convergents k-1 and k-2 (p, q, p1, q1) before the last term."""
    p, q, p1, q1 = 1, 0, 0, 1
    for a in reference_terms(lo, hi)[:-1]:
        p, q, p1, q1 = a * p + p1, a * q + q1, p, q
    return p, q, p1, q1


def reference_fractions(lo, hi, qmax):
    if qmax < 1 or lo > hi:
        return []
    mid = reference_simplest(lo, hi)
    if mid.denominator > qmax:
        return []
    out = [mid]
    for step, inside in ((farey_right, lambda f: f <= hi),
                         (farey_left, lambda f: f >= lo)):
        f = step(mid, qmax)
        while inside(f):
            out.append(f)
            f = step(f, qmax)
    return sorted(out)


def brute_fractions(lo, hi, qmax):
    return sorted({F(p, q) for q in range(1, qmax + 1)
                   for p in range(math.ceil(lo * q), math.floor(hi * q) + 1)})


small = st.builds(F, st.integers(-60, 60), st.integers(1, 12))


@st.composite
def small_windows(draw):
    lo = draw(small)
    hi = lo + draw(st.builds(F, st.integers(0, 40), st.integers(1, 40)))
    if draw(st.booleans()):
        lo, hi = -hi, -lo
    return lo, hi


def continued_fraction(terms):
    val = F(terms[-1])
    for a in reversed(terms[:-1]):
        val = a + 1 / val
    return val


@st.composite
def game_windows(draw):
    """Ends with 2,000-4,000-bit denominators, the BA windows' shape."""
    bits = draw(st.integers(2000, 4000))
    den = draw(st.integers(2 ** (bits - 1), 2 ** bits)) | 1
    kind = draw(st.sampled_from(["deep", "random", "on_simple"]))
    if kind == "deep":  # a point whose expansion runs through every level
        terms = draw(st.lists(st.integers(1, 50), min_size=40, max_size=400))
        x = draw(st.integers(-3, 3)) + continued_fraction(terms)
    elif kind == "random":
        x = F(draw(st.integers(-2 * den, 2 * den)), den)
    else:
        x = draw(small)
    half = F(draw(st.integers(1, 2 ** 64)), 2 ** (bits // 2 + 64))
    lo = F(math.floor((x - half) * den), den)
    hi = F(math.ceil((x + half) * den), den)
    side = draw(st.sampled_from(["both", "lo", "hi"]))
    if kind == "on_simple" and side != "both":  # an end exactly on x
        lo, hi = (x, hi) if side == "lo" else (lo, x)
    return lo, hi


SETTINGS = settings(max_examples=150, deadline=None)


@SETTINGS
@given(small_windows(), st.integers(1, 13))
def test_small_windows(window, qmax):
    lo, hi = window
    assert simplest_between(lo, hi) == reference_simplest(lo, hi)
    got = fractions_in_interval(lo, hi, qmax)
    assert got == reference_fractions(lo, hi, qmax)
    assert got == brute_fractions(lo, hi, qmax)


@SETTINGS
@given(game_windows(), st.data())
def test_game_windows(window, data):
    lo, hi = window
    mid = simplest_between(lo, hi)
    assert mid == reference_simplest(lo, hi)
    # a Farey order up to sqrt(1/width) keeps the answer a few fractions
    order = math.isqrt(math.floor(1 / (hi - lo)))
    qmax = data.draw(st.sampled_from([mid.denominator, mid.denominator - 1])
                     | st.integers(1, order))
    assert fractions_in_interval(lo, hi, qmax) == \
        reference_fractions(lo, hi, qmax)


@st.composite
def window_chains(draw):
    """A game window, then steps that nest in the last window (the
    planner's case), share one of its ends, overlap it without nesting,
    jump elsewhere, mirror it to negative, or straddle 0."""
    chain = [draw(game_windows())]
    for _ in range(draw(st.integers(1, 8))):
        lo, hi = chain[-1]
        w, s = hi - lo, draw(st.integers(1, 64))
        i = draw(st.integers(0, 2 ** s))
        j = draw(st.integers(0, 2 ** s - i))
        a, b = lo + w * F(i, 2 ** s), lo + w * F(i + j, 2 ** s)
        kind = draw(st.sampled_from(
            ["nested", "nested", "nested", "same_lo", "same_hi", "same",
             "below", "above", "fresh", "mirror", "straddle"]))
        chain.append({"nested": (a, b), "same_lo": (lo, b),
                      "same_hi": (a, hi), "same": (lo, hi),
                      "below": (lo - w * F(i + 1, 2 ** s), b),
                      "above": (a, hi + w * F(j + 1, 2 ** s)),
                      "fresh": draw(game_windows()), "mirror": (-hi, -lo),
                      "straddle": (-abs(a), abs(b))}[kind])
    return chain


@settings(max_examples=60, deadline=None)
@given(window_chains())
def test_resume_across_windows(chain):
    for lo, hi in chain:
        before = numerics._split
        assert simplest_between(lo, hi) == reference_simplest(lo, hi)
        last_ln, last_hn, last_d, *prefix = numerics._split
        last_lo, last_hi = F(last_ln, last_d), F(last_hn, last_d)
        # the memo holds the last positive window, mirrored from a negative
        # one, and the prefix a root expansion of that window reaches
        if lo == hi or lo <= 0 <= hi:
            assert numerics._split == before
        else:
            assert (last_lo, last_hi) == ((lo, hi) if lo > 0 else (-hi, -lo))
            assert tuple(prefix) == reference_prefix(last_lo, last_hi)


def test_degenerate_and_empty():
    x = F(-7, 3)
    assert simplest_between(x, x) == x
    assert fractions_in_interval(x, x, 3) == [x]
    assert fractions_in_interval(x, x, 2) == []
    assert fractions_in_interval(F(1), F(0), 5) == []
    with pytest.raises(ValueError):
        simplest_between(F(1), F(0))
