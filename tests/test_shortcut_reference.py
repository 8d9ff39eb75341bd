"""Three shortcuts against the forms they replaced.

* `random_move` decides keep-center on the radius alone: Bob keeps the
  center when the shortest depth-64 cylinder, diameter * min|r|**64, is
  longer than the legal range, 2(1 - beta) * radius.  `reference_random_move`
  is the full path it replaced: the range from two sums of center and
  radius, `depth_below`, then the same test at that depth.  Radii sit at
  the exact threshold and 2**-40 of it either side, on the middle-thirds
  set, on ratios 1/4 and 1/3, and on negative ratios over a hull of
  diameter 3; the threshold centers are midpoints of a shortest depth-64
  cylinder, where a range exactly as long as the threshold holds one.
* `ba_band_top` works on the integers of alpha*beta; `reference_band_top`
  takes the root of the `Fraction` power.
* `BiLipschitzMap.apply` and `inverse` return the argument on a piece that
  is the identity; `plain_apply` and `plain_inverse` integrate the slopes
  from the anchor, with no shortcut.  `preimage_ball` returns an identity
  map's ball as it is; the reference sorts the plain inverses of its ends.

The references exist only here.
"""

import math
import random
from fractions import Fraction as F

import pytest

from schmidtgame import bob
from schmidtgame.alice import IDENTITY, BiLipschitzMap, ba_band_top
from schmidtgame.fractal import IFS, FractalSupport, SimilarityMap, cantor_support
from schmidtgame.game import Ball, GameParams


def reference_random_move(support, alice_ball, params, seed):
    slack = (1 - params.beta) * alice_ball.radius
    lo, hi = alice_ball.center - slack, alice_ball.center + slack
    slack = hi - lo
    depth = support.depth_below(slack / 4, cap=64)
    shortest = min(abs(m.r) for m in support.ifs.maps) ** depth
    if support.diameter * shortest > slack:
        return alice_ball.center, alice_ball.word
    cands = [c for c in support.cylinders_meeting(lo, hi, depth)
             if lo <= c.lo and c.hi <= hi]
    if not cands:
        return alice_ball.center, alice_ball.word
    rng = random.Random(str(seed))
    cyl = cands[rng.randrange(len(cands))]
    return support.point(cyl.word), cyl.word


def uneven():
    """Ratios 1/4 and 1/3: the shortest depth-64 cylinder is 4**-64 long,
    the longest 3**-64."""
    return FractalSupport(IFS([SimilarityMap(F(1, 4), F(0)),
                               SimilarityMap(F(1, 3), F(2, 3))],
                              [F(1, 2), F(1, 2)]), (F(0), F(1)))


def flipped():
    """Ratios -1/3 and -1/4 on the hull [0, 3]."""
    return FractalSupport(IFS([SimilarityMap(F(-1, 3), F(1)),
                               SimilarityMap(F(-1, 4), F(3))],
                              [F(1, 2), F(1, 2)]), (F(0), F(3)))


SUPPORTS = {"cantor": cantor_support, "uneven": uneven, "flipped": flipped}
BETAS = [F(1, 3), F(3, 5), F(1, 4)]


def threshold(support, beta):
    """The radius whose legal range is exactly the shortest depth-64
    cylinder long."""
    floor = support.diameter * min(abs(m.r) for m in support.ifs.maps) ** 64
    return floor / (2 * (1 - beta))


def shortest_midpoint(support):
    """The midpoint of a shortest depth-64 cylinder: the cylinder of the
    shortest map's letter, 64 times, which holds that map's fixed point."""
    ratios = [abs(m.r) for m in support.ifs.maps]
    fixed = support.ifs.maps[ratios.index(min(ratios))].fixed_point
    length = support.diameter * min(ratios) ** 64
    cyl = next(c for c in support.cylinders_meeting(fixed, fixed, 64)
               if c.hi - c.lo == length)
    return (cyl.lo + cyl.hi) / 2


def centers(support):
    rng = random.Random(11)
    words = [(), (0, 1) * 40] + [
        tuple(rng.randrange(2) for _ in range(rng.randrange(1, 70)))
        for _ in range(4)]
    return [support.point(w) for w in words] + [shortest_midpoint(support)]


@pytest.mark.parametrize("name", sorted(SUPPORTS))
@pytest.mark.parametrize("beta", BETAS, ids=str)
def test_random_move_matches_the_full_path(name, beta):
    support = SUPPORTS[name]()
    params = GameParams(F(1, 3), beta)
    edge = threshold(support, beta)
    radii = [edge, edge * (1 - F(1, 2 ** 40)), edge * (1 + F(1, 2 ** 40)),
             edge / 7, edge * 9, support.diameter * F(1, 3) ** 5]
    moved = 0
    for center in centers(support):
        for radius in radii:
            ball = Ball(center, radius)
            for seed in range(3):
                want = reference_random_move(support, ball, params, seed)
                got = bob.random_move(support, ball, params, seed)
                assert got == want, (center, radius, seed)
                moved += got[0] != center
    assert moved    # the walk ran and moved somewhere


@pytest.mark.parametrize("name", sorted(SUPPORTS))
def test_the_threshold_itself_walks(name):
    # a range exactly one shortest depth-64 cylinder long, centered on
    # one, holds it: Bob moves there; 2**-40 narrower, he keeps the center
    support, beta = SUPPORTS[name](), F(1, 3)
    params = GameParams(F(1, 3), beta)
    center, edge = shortest_midpoint(support), threshold(support, beta)
    assert bob.random_move(support, Ball(center, edge), params, 0)[0] != center
    narrow = Ball(center, edge * (1 - F(1, 2 ** 40)))
    assert bob.random_move(support, narrow, params, 0) == (center, None)


@pytest.mark.parametrize("name", sorted(SUPPORTS))
def test_radius_alone_decides_keep_center(name, monkeypatch):
    # below the threshold neither the legal range nor the depth search runs
    def called(*args, **kwargs):
        raise AssertionError("center-sized work")

    support, beta = SUPPORTS[name](), F(1, 4)
    params = GameParams(F(1, 3), beta)
    monkeypatch.setattr(bob, "_legal_range", called)
    monkeypatch.setattr(support, "depth_below", called)
    edge = threshold(support, beta)
    for center in centers(support):
        for radius in (edge * (1 - F(1, 2 ** 40)), edge / 3 ** 200):
            ball = Ball(center, radius, ())
            assert bob.random_move(support, ball, params, 1) == (center, ())
    with pytest.raises(AssertionError, match="center-sized work"):
        bob.random_move(support, Ball(F(0), edge), params, 1)


def reference_band_top(ab, k):
    bound = (1 / ab) ** k
    q = math.isqrt(bound.numerator * bound.denominator) // bound.denominator
    return q - (q * q == bound)


# 1/4 and 1/36 are squares: every even k is a tie, q * q == bound
@pytest.mark.parametrize("ab", [F(1, 4), F(1, 36), F(3, 8192), F(2, 9),
                                F(5, 7)], ids=str)
def test_band_top_matches_the_fraction_form(ab):
    assert [ba_band_top(ab, k) for k in range(900)] == \
        [reference_band_top(ab, k) for k in range(900)]


def refs(m):
    """The piece edges of `m`, left to right; None for an open end."""
    return [None] + list(m.breakpoints) + [None]


def plain_apply(m, x):
    """m(x): the anchor's image plus the integral of the slopes from the
    anchor to x, piece by piece."""
    xa, ya = m.anchor
    lo, hi = sorted((xa, x))
    edges = refs(m)
    total = F(0)
    for s, left, right in zip(m.slopes, edges, edges[1:]):
        a = lo if left is None else max(lo, left)
        b = hi if right is None else min(hi, right)
        if a < b:
            total += s * (b - a)
    return ya + (total if x >= xa else -total)


def plain_inverse(m, y):
    """The x with m(x) == y: each piece solved from a point of its own,
    the answer the one that lands inside its piece."""
    edges = refs(m)
    for s, left, right in zip(m.slopes, edges, edges[1:]):
        p = left if left is not None else right
        p = m.anchor[0] if p is None else p
        x = p + (y - plain_apply(m, p)) / s
        if (left is None or left <= x) and (right is None or x <= right):
            return x
    raise AssertionError("no piece holds %s" % y)


MAPS = {
    "identity": IDENTITY,
    "identity off 0": BiLipschitzMap((), (F(1),), (F(1, 3), F(1, 3))),
    "shift": BiLipschitzMap((), (F(1),), (F(0), F(1, 2))),
    "mirror": BiLipschitzMap((), (F(-1),), (F(0), F(0))),
    "pieces": BiLipschitzMap((F(0), F(1, 2), F(1)),
                             (F(2), F(1), F(3), F(1, 2)), (F(0), F(0))),
    "pieces off": BiLipschitzMap((F(0), F(1, 2)), (F(2), F(1), F(1, 3)),
                                 (F(0), F(1, 5))),
    "decreasing": BiLipschitzMap((F(1, 3), F(2, 3)), (F(-2), F(-1), F(-3)),
                                 (F(1, 3), F(0))),
}


@pytest.mark.parametrize("name", sorted(MAPS))
def test_maps_match_the_plain_formula(name):
    m = MAPS[name]
    rng = random.Random(3)
    xs = [F(0), F(1, 2), F(1), F(-1), F(1, 3), F(2, 3)] + list(m.breakpoints)
    xs += [F(rng.randrange(-3 ** 400, 3 ** 400), 3 ** 400) for _ in range(20)]
    xs += [F(rng.randrange(-50, 50), rng.randrange(1, 30)) for _ in range(20)]
    for x in xs:
        assert m.apply(x) == plain_apply(m, x), x
        assert m.inverse(x) == plain_inverse(m, x), x
        assert m.inverse(m.apply(x)) == x
    for a, b in zip(xs, xs[1:]):
        lo, hi = sorted((plain_inverse(m, a), plain_inverse(m, b)))
        assert m.preimage_ball((a + b) / 2, abs(b - a) / 2) == \
            ((lo + hi) / 2, (hi - lo) / 2)
