"""Clearing windows as balls, against the interval path they replaced.

A block's danger sources take the window as a center and a reach.
`BiLipschitzMap.preimage_ball` hands them the preimage's midpoint and
half-width, and `_block_points(k, ball, center, reach)` runs the orbit
filter or the Farey search on them with no window end built.
`reference_points` is the interval path: the two ends center -+ reach,
their sorted inverses, then `fractions_in_interval` on that interval or
`orbit_near` on its midpoint, and each kept term's exact window.  It
exists only here.

Every map of `test_shortcut_reference.MAPS` is drawn: the identity,
shifts, a mirror, maps of several pieces and a decreasing one, with balls
that straddle a breakpoint.  Centers carry denominators past 1,000 bits,
and reaches sit on the game's radius ladder: the block radius widened by
its margin, and the preview's narrower windows.  BA windows also contain
0 or lie below it.

The cost guard counts `Fraction` comparisons, sums, products and
quotients with an operand over 1,000 bits while `_block_points` runs, in
a 100-round play of the bundled triple spec.
"""

import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from schmidtgame.alice import (BAStrategy, ConstTargets, GeometricTerms,
                               LacunarySpec, LacunaryStrategy, ListTerms,
                               PeriodicTargets, ba_band_top, orbit_near)
from schmidtgame.cli import bundled_spec_path, main
from schmidtgame.errors import InvariantViolation
from schmidtgame.fractal import DecayParams, cantor_support
from schmidtgame.game import Ball, GameParams
from schmidtgame.numerics import fractions_in_interval

from test_shortcut_reference import MAPS, plain_inverse

LOOSE = DecayParams(C=F(1, 4), gamma=F(1), rho0=F(1))
QUARTER = GameParams(F(1, 4), F(1, 4))
SPECS = [LacunarySpec(GeometricTerms(F(2)), ConstTargets(F(1, 3))),
         LacunarySpec(GeometricTerms(F(5, 2), F(1, 7)),
                      PeriodicTargets((F(0), F(1, 2)))),
         LacunarySpec(ListTerms(tuple(F(3) ** n for n in range(1, 200)), F(3)),
                      ConstTargets(F(0)))]
# a 1,110-bit denominator for the offsets that place a center
WIDE = 3 ** 700


def plain_ball(m, center, reach):
    """The midpoint and half-width of the sorted plain inverses of the
    window's ends."""
    lo, hi = sorted(plain_inverse(m, center + s * reach) for s in (-1, 1))
    return (lo + hi) / 2, (hi - lo) / 2


def reference_points(strategy, k, ball, center, reach):
    """Block k's danger points within reach of center, on the interval:
    the window's ends, their sorted preimages u <= v, then the Farey
    search on [u, v] or the orbit filter on its midpoint."""
    phi = strategy.phi
    u, v = sorted(phi.inverse(center + s * reach) for s in (-1, 1))
    if isinstance(strategy, BAStrategy):
        below = ba_band_top(strategy.ab, k - 1)
        return [phi.apply(f) for f in fractions_in_interval(
            u, v, ba_band_top(strategy.ab, k)) if f.denominator > below]
    if not 2 * ball.radius < strategy.ab ** (strategy.r * k) / phi.lipschitz:
        raise InvariantViolation("block %d ball exceeds translate spacing" % k)
    spec, entries = strategy.spec, []
    for n in orbit_near(spec.terms, spec.targets, (u + v) / 2, (v - u) / 2,
                        strategy.index_block(k)):
        t, y = spec.terms.term(n), spec.targets.target(n)
        for m in range(math.ceil(t * u - y), math.floor(t * v - y) + 1):
            entries.append((n, m, phi.apply((y + m) / t)))
    if len({n for n, _, _ in entries}) < len(entries):
        raise InvariantViolation("two translates of one term in one window")
    return sorted({z for _, _, z in entries})


def outcome(fn, *args):
    """The result, or the type of the error raised."""
    try:
        return fn(*args)
    except InvariantViolation as exc:
        return type(exc)


def ladder(strategy, k):
    """Reaches for block k: its radius widened by the margin, the radius
    itself, and the preview's narrower windows (alpha*beta)^k * 2^j."""
    radius = strategy.rho_start * strategy.ab ** (strategy.r * (k - 1))
    w = strategy.ab ** k
    return radius, [radius * (1 + strategy.spread), radius] + \
        [min(w * 2 ** j, radius) for j in (0, 3, 9)]


def near_center(rng, phi, x, reach):
    """phi(x) moved by a drawn part of reach, over a 1,110-bit denominator;
    moved by exactly reach, so that a window end sits on phi(x); or a
    700-letter Cantor point, far from x."""
    draw = rng.random()
    if draw < 0.15:
        return cantor_support().point([rng.randrange(2) for _ in range(700)])
    if draw < 0.35:
        return phi.apply(x) + rng.choice((-1, 1)) * reach
    return phi.apply(x) + reach * F(rng.randrange(-2 * WIDE, 2 * WIDE), WIDE)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_preimage_ball_matches_the_plain_formula(name):
    m = MAPS[name]
    rng = random.Random(name)
    points = [F(0), F(1, 3), F(-1)] + [m.apply(b) for b in m.breakpoints]
    for x in points:
        for e in (0, 1, 5, 40, 700):
            # balls about a breakpoint's image reach past it on both sides
            # or, off center, on one side only
            reach = F(1, 3 ** e)
            for center in (x, x + reach / 3, x - reach * F(WIDE - 1, WIDE),
                           x + reach * F(rng.randrange(WIDE), WIDE)):
                assert m.preimage_ball(center, reach) == \
                    plain_ball(m, center, reach)
    for _ in range(20):
        center = cantor_support().point([rng.randrange(2) for _ in range(700)])
        assert center.denominator.bit_length() > 1000
        reach = F(rng.randrange(1, 2 ** 40), 3 ** rng.randrange(1, 800))
        assert m.preimage_ball(center, reach) == plain_ball(m, center, reach)
    assert m.preimage_ball(F(2, 7), F(0)) == (m.inverse(F(2, 7)), 0)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_ba_block_points_match_reference(name):
    phi = MAPS[name]
    st = BAStrategy(phi, LOOSE).plan(QUARTER, Ball(F(0), F(1)))
    rng = random.Random(name)
    found = wide = 0
    for k in range(1, 9):
        radius, reaches = ladder(st, k)
        top, below = ba_band_top(st.ab, k), ba_band_top(st.ab, k - 1)
        for reach in reaches:
            q = rng.randint(below + 1, top)
            # a band fraction, its negative, and 0: windows below 0 and
            # windows that hold it
            for x in (F(rng.randrange(q), q), F(-rng.randrange(1, 3 * q), q),
                      F(0)):
                center = near_center(rng, phi, x, reach)
                ball = Ball(center, radius)
                got = st._block_points(k, ball, center, reach)
                assert got == reference_points(st, k, ball, center, reach)
                found += bool(got)
                wide += center.denominator.bit_length() > 1000
    assert found >= 20 and wide >= 50


@pytest.mark.parametrize("name", sorted(MAPS))
@pytest.mark.parametrize("spec", SPECS, ids=["base2", "base5_2", "list3"])
def test_lacunary_block_points_match_reference(name, spec):
    phi = MAPS[name]
    st = LacunaryStrategy(spec, phi, LOOSE).plan(QUARTER, Ball(F(0), F(1)))
    rng = random.Random(name)
    found = 0
    for k in range(1, 4):
        radius, reaches = ladder(st, k)
        ns = st.index_block(k)
        for reach in reaches:
            for _ in range(3):
                # the translate (y_n + m)/t_n of a term of the block
                n = rng.choice(ns)
                t, y = spec.terms.term(n), spec.targets.target(n)
                x = (y + rng.randrange(math.floor(t))) / t
                center = near_center(rng, phi, x, reach)
                ball = Ball(center, radius)
                got = outcome(st._block_points, k, ball, center, reach)
                assert got == outcome(reference_points, st, k, ball, center,
                                      reach)
                found += isinstance(got, list) and bool(got)
    assert found >= 5


OPS = {"__lt__": "<", "__le__": "<=", "__gt__": ">", "__ge__": ">=",
       "__eq__": "==", "__add__": "+", "__radd__": "+", "__sub__": "-",
       "__rsub__": "-", "__mul__": "*", "__rmul__": "*", "__truediv__": "/",
       "__rtruediv__": "/"}


def _big(x):
    """An int or Fraction operand of over 1,000 bits."""
    if isinstance(x, F):
        x = max(abs(x.numerator), x.denominator)
    return isinstance(x, int) and abs(x).bit_length() > 1000


def test_block_windows_do_no_big_fraction_arithmetic(tmp_path, monkeypatch):
    # the interval path made 166 such operations in BA's windows (ends
    # ordered, checked for order, sign and nesting; a product per inverse)
    # and 24 in the orbit windows
    counts = {LacunaryStrategy: Counter(), BAStrategy: Counter()}
    blocks = Counter()
    active = []
    for name, sym in OPS.items():
        def counted(a, b, real=getattr(F, name), sym=sym):
            if active and (_big(a) or _big(b)):
                counts[active[-1]][sym] += 1
            return real(a, b)
        monkeypatch.setattr(F, name, counted)
    for cls in counts:
        def block_points(self, *args, real=cls._block_points, cls=cls):
            active.append(cls)
            blocks[cls] += 1
            try:
                return real(self, *args)
            finally:
                active.pop()
        monkeypatch.setattr(cls, "_block_points", block_points)
    assert main(["play", "--spec", bundled_spec_path("cantor_triple.json"),
                 "--rounds", "100", "--out", str(tmp_path)]) == 0
    assert blocks[BAStrategy] > 0 and blocks[LacunaryStrategy] > 0
    assert counts[BAStrategy] == Counter()
    # the spacing premise, 2*radius < (alpha*beta)^(rk)/L: one product and
    # one comparison
    lacunary = counts[LacunaryStrategy]
    assert set(lacunary) <= {"*", "<"}
    assert max(lacunary.values(), default=0) <= blocks[LacunaryStrategy]
