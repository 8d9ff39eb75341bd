"""Every least-k search of the package against the loop it replaced.

Each threshold of the schedule is x * (alpha*beta)^k, or a support's
diameter * contraction^k, for the least k that crosses a bound, and the
package finds k with `numerics._first_index` over that closed form.  The
references here step the sequence one factor at a time and stop at the
first crossing, as the package once did; they exist only here.  Exact
ties (a bound that is a power of the factor) and caps below, at and above
the answer are drawn on purpose: they are where `<` and `<=`, or a cap
tested with `==`, part ways.

The interleave schedule check is a closed form too; `scan_owners` is the
turn-by-turn scan over one period that it replaced.
"""

import json
import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidtgame.alice import (GeometricTerms, InterleaveStrategy,
                               ba_constants, lacunary_constants)
from schmidtgame.cli import bundled_spec_path, main
from schmidtgame.errors import SpecError
from schmidtgame.fractal import (AUDIT_MAX_SCALES, IFS, AuditGrid,
                                 FractalSupport, SimilarityMap,
                                 decay_from_federer_efd, max_alpha)
from schmidtgame.game import HoldCenter

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def supports(draw):
    """Two maps r*x and r*x + (1 - r) on [0, 1], scaled onto a drawn hull,
    for a contraction r <= 1/2 (the open set condition)."""
    q = draw(st.integers(2, 12))
    r = F(draw(st.integers(1, q // 2)), q)
    lo = F(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
    width = F(draw(st.integers(1, 9)), draw(st.integers(1, 4)))
    maps = [SimilarityMap(r, lo * (1 - r)),
            SimilarityMap(r, lo * (1 - r) + (1 - r) * width)]
    return FractalSupport(IFS(maps, [F(1, 2), F(1, 2)]), (lo, lo + width))


# ---------------------------------------------------------------------------
# FractalSupport.depth_below (tests/test_kernel_reference.py draws random
# supports, bounds and caps against the same loop)


@pytest.mark.parametrize("strict", [False, True])
def test_depth_below_at_exact_ties(strict):
    # a bound of exactly diameter * c**d is reached at d, and passed at d + 1
    K = FractalSupport(IFS([SimilarityMap(F(2, 5), F(0)),
                            SimilarityMap(F(2, 5), F(3, 5))],
                           [F(1, 2), F(1, 2)]), (F(0), F(1)))
    for d in range(0, 80):
        bound = F(2, 5) ** d
        want = d + 1 if strict else d
        assert K.depth_below(bound, strict) == want
        # caps below, at and above the answer
        for cap in (want - 1, want, want + 1, want + 64):
            assert K.depth_below(bound, strict, cap) == min(want, max(cap, 0))


def test_capped_depth_past_a_gallop_step():
    # the gallop from 0 probes 0, 1, 3, 7, ..., 127 and jumps over 64: the
    # cap must hold at every probe past it, not only at the cap itself
    K = FractalSupport(IFS([SimilarityMap(F(1, 3), F(0)),
                            SimilarityMap(F(1, 3), F(2, 3))],
                           [F(1, 2), F(1, 2)]), (F(0), F(1)))
    assert K.depth_below(F(1, 3 ** 100), cap=64) == 64
    assert K.depth_below(F(1, 3 ** 100), strict=True, cap=64) == 64
    assert K.depth_below(F(1, 3 ** 100)) == 100


# ---------------------------------------------------------------------------
# AuditGrid.default's radii


def radii_loop(K, rho0, rho_count):
    rhos, rho = [], K.diameter
    while len(rhos) < rho_count:
        rho *= K.contraction
        if rho <= rho0:
            rhos.append(rho)
    return rhos


@SETTINGS
@given(supports(), st.integers(-3, 40), st.integers(0, 12), st.data())
def test_audit_radii_match_loop(K, j, rho_count, data):
    rho0 = K.diameter * K.contraction ** j * data.draw(
        st.sampled_from([1, F(1001, 1000), F(999, 1000), 5]))
    grid = AuditGrid.default(K, rho0, x_depth=1, rho_count=rho_count)
    assert grid.rhos == radii_loop(K, rho0, rho_count)


def test_audit_rho0_past_the_scale_cap_is_refused():
    K = FractalSupport(IFS([SimilarityMap(F(1, 2), F(0)),
                            SimilarityMap(F(1, 2), F(1, 2))],
                           [F(1, 2), F(1, 2)]), (F(0), F(1)))
    last = F(1, 2) ** AUDIT_MAX_SCALES
    assert AuditGrid.default(K, last, x_depth=1, rho_count=2).rhos == \
        radii_loop(K, last, 2)
    with pytest.raises(SpecError, match="contractions below"):
        AuditGrid.default(K, last / 2, x_depth=1, rho_count=2)


# ---------------------------------------------------------------------------
# the warm-ups of the schedule constants


def lacunary_loop(M, L, alpha, beta, rho_prime, rho0, r):
    ab = alpha * beta
    bound = (1 / ab) ** (r - 1) / L
    k0, rho = 1, rho_prime
    while not (rho < rho0 and 2 * rho * (1 + ab ** (r + 1)) < bound):
        k0 += 1
        rho *= ab
    return k0, rho


def ba_loop(L, alpha, beta, rho_prime, rho0):
    ab = alpha * beta
    bound = ab ** 2 / (2 * L * (1 + alpha))
    k0, rho = 2, ab * rho_prime
    while not (rho < bound and rho < rho0):
        k0 += 1
        rho *= ab
    return k0, rho


fractions = st.builds(F, st.integers(1, 60), st.integers(1, 60))
ratios = st.builds(F, st.integers(1, 9), st.integers(10, 40))


@SETTINGS
@given(st.builds(F, st.integers(3, 40), st.integers(1, 2)), fractions,
       ratios, ratios, fractions, fractions)
def test_constants_match_loops(M, L, alpha, beta, rho_prime, rho0):
    L = max(L, 1 / L)
    _, r, k0, rho, _, start = lacunary_constants(M, L, alpha, beta,
                                                 rho_prime, rho0)
    assert (k0, rho) == lacunary_loop(M, L, alpha, beta, rho_prime, rho0, r)
    assert start == k0 + 2 * r - 1
    k0, rho, _, start = ba_constants(L, alpha, beta, rho_prime, rho0)
    assert (k0, rho) == ba_loop(L, alpha, beta, rho_prime, rho0)
    assert start == k0 - 1


@SETTINGS
@given(ratios, ratios, st.integers(0, 30))
def test_warm_ups_at_exact_ties(alpha, beta, j):
    # rho0 exactly on the warm-up's sequence: the radius must drop below it
    ab = alpha * beta
    rho_prime = F(1)
    rho0 = rho_prime * ab ** j
    L = F(1, 10 ** 6)  # a bound far above every radius: rho0 decides
    assert ba_constants(L, alpha, beta, rho_prime, rho0)[:2] == \
        ba_loop(L, alpha, beta, rho_prime, rho0)
    _, r, k0, rho, _, _ = lacunary_constants(F(3), L, alpha, beta,
                                             rho_prime, rho0)
    assert (k0, rho) == lacunary_loop(F(3), L, alpha, beta, rho_prime, rho0, r)
    assert rho < rho0 <= rho / ab


# ---------------------------------------------------------------------------
# GeometricTerms' tail shift


@SETTINGS
@given(st.integers(2, 9), st.integers(1, 4), st.integers(0, 40),
       st.sampled_from([1, F(1001, 1000), F(999, 1000), 7]))
def test_tail_shift_matches_loop(p, q, j, factor):
    base = F(p * q + 1, q)  # > 1
    scale = base ** -j * factor
    s = 1
    while scale * base ** s <= 1:
        s += 1
    assert GeometricTerms(base, scale).shift == s - 1


# ---------------------------------------------------------------------------
# construct's round count


@pytest.mark.parametrize("digits", [1, 3])
def test_construct_rounds_match_loop(tmp_path, digits):
    doc = json.loads(open(bundled_spec_path("cantor_triple.json")).read())
    decay = decay_from_federer_efd(tuple(map(F, doc["measure"]["federer"])),
                                   tuple(map(F, doc["measure"]["efd"])),
                                   F(doc["measure"]["rho0"]))
    ab = max_alpha(decay) * F(doc["game"]["beta"])
    need, radius = 0, F(1)  # no opening: the cantor set's diameter
    while radius > F(1, 3) ** digits / 4:
        need += 1
        radius *= ab
    assert main(["construct", "--spec", bundled_spec_path("cantor_triple.json"),
                 "--out", str(tmp_path), "--rounds", "1",
                 "--digits", str(digits)]) == 0
    assert json.loads((tmp_path / "construct.json").read_text())["rounds"] \
        == max(1, need)


# ---------------------------------------------------------------------------
# InterleaveStrategy's schedule check


def scan_owners(schedule):
    """True when every turn has exactly one owner, by the scan over
    max start + lcm(steps) turns."""
    horizon = max(s for s, _ in schedule) + math.lcm(*(d for _, d in schedule))
    return all(sum(turn >= s and (turn - s) % d == 0 for s, d in schedule) == 1
               for turn in range(1, horizon + 1))


def accepts(schedule):
    try:
        InterleaveStrategy([HoldCenter()] * len(schedule), schedule)
    except SpecError as exc:
        assert "owners" in str(exc)
        return False
    return True


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)),
                min_size=1, max_size=5))
def test_schedule_check_matches_scan(schedule):
    assert accepts(schedule) == scan_owners(schedule)


@st.composite
def exact_covers(draw):
    """A split of (1, 1) into residue classes, each part (s, d) split into
    m parts (s + i*d, m*d); then maybe one start moved by a step, which
    leaves a gap or an overlap."""
    cover = [(1, 1)]
    for _ in range(draw(st.integers(0, 6))):
        s, d = cover.pop(draw(st.integers(0, len(cover) - 1)))
        m = draw(st.integers(2, 3))
        cover += [(s + i * d, m * d) for i in range(m)]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(cover) - 1))
        s, d = cover[i]
        cover[i] = (max(1, s + draw(st.sampled_from([d, -d, 1]))), d)
    return draw(st.permutations(cover))


@settings(max_examples=200, deadline=None)
@given(exact_covers())
def test_schedule_check_on_covers(schedule):
    assert accepts(schedule) == scan_owners(schedule)


def test_long_dovetails_construct_at_once():
    # the scan would take 2**39 turns; the closed form checks 780 pairs
    for parts in (23, 40):
        schedule = [(2 ** (j - 1), 2 ** j) for j in range(1, parts)] + \
            [(2 ** (parts - 1), 2 ** (parts - 1))]
        began = time.perf_counter()
        InterleaveStrategy([HoldCenter()] * parts, schedule)
        assert time.perf_counter() - began < 1
        with pytest.raises(SpecError, match="owners"):
            InterleaveStrategy([HoldCenter()] * parts,
                               schedule[:-1] + [(2 ** (parts - 1) + 1,
                                                 2 ** (parts - 1))])
