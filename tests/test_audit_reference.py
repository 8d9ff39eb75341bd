"""The four grid audits against a per-row Fraction reference.

`reference_*` decide each row the straightforward way: mass bounds as
Fractions from `interval_mass` and `ball_mass`, and every comparison with
a power through `scaled_pow_cmp`, redone on every row.  The checks decide
the same rows on integer mass counts, each grid power reduced once per
call.  Hypothesis draws grids on the Cantor set, on [0, 1] with Lebesgue
measure and on a 3-map system with unequal ratios and weights, and
constants on both sides of each pass/fail boundary; every check must
return the same outcome: the same rows, the same verdicts, and the same
row where it stops.
"""

import json
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from schmidtgame import numerics
from schmidtgame.cli import build_measure, build_support, bundled_spec_path
from schmidtgame.fractal import (IFS, AuditGrid, AuditOutcome, AuditRow,
                                 DecayParams, FractalMeasure, FractalSupport,
                                 SimilarityMap, Verdict, binary_support,
                                 cantor_support, check_absolute_decay,
                                 check_efd, check_federer, check_power_law)
from schmidtgame.numerics import LogRatio, scaled_pow_cmp


def three_map_support():
    """Ratios 1/3, 1/4, 1/5 and weights 1/2, 1/3, 1/6 on [0, 1]."""
    ifs = IFS([SimilarityMap(F(1, 3), 0), SimilarityMap(F(1, 4), F(1, 2)),
               SimilarityMap(F(1, 5), F(4, 5))], [F(1, 2), F(1, 3), F(1, 6)])
    return FractalSupport(ifs, (F(0), F(1)))


# each support with exponents that collapse on its grid (a rational, or a
# LogRatio whose base is its contraction's inverse) and one that does not
# collapse on the grid (base 5), so the log_sign path runs too
SUPPORTS = {
    "cantor": (cantor_support(), [LogRatio(2, 3), F(1, 2), LogRatio(2, 5)]),
    "lebesgue": (binary_support(), [F(1), F(2, 3), LogRatio(2, 5)]),
    "three_maps": (three_map_support(),
                   [LogRatio(2, 3), F(1, 2), F(3, 4), LogRatio(2, 5)]),
}
MEASURES = {name: FractalMeasure(K) for name, (K, _) in SUPPORTS.items()}


def reference_audit(check, params, points, depths, decide):
    outcome = AuditOutcome(check=check, params=params,
                           verdict=Verdict.INCONCLUSIVE)
    for point in points:
        verdict = Verdict.INCONCLUSIVE
        for depth in depths:
            decided = decide(depth, **point)
            if decided is not None:
                verdict = decided
                break
        outcome.rows.append(AuditRow(point, verdict))
        outcome.verdict = verdict
        if verdict is not Verdict.PASS:
            break
    return outcome


def reference_decay(measure, params, grid):
    C, gamma = params.C, params.gamma
    points = [dict(p, y=p["x"] + off * p["rho"], eps=eps)
              for p in grid.points(measure.support) if p["rho"] <= params.rho0
              for eps in grid.eps for off in grid.offsets]

    def decide(depth, x, rho, y, eps):
        blo, bhi = measure.ball_mass(x, rho, depth)
        ilo = max(x - rho, y - eps * rho)
        ihi = min(x + rho, y + eps * rho)
        if ilo > ihi:
            clo, chi = F(0), F(0)
        else:
            clo, chi = measure.interval_mass(ilo, ihi, depth)
        if blo > 0 and scaled_pow_cmp(chi, C * blo, eps, gamma) < 0:
            return Verdict.PASS
        if scaled_pow_cmp(clo, C * bhi, eps, gamma) >= 0:
            return Verdict.FAIL
        return None

    return reference_audit("absolute_decay",
                           {"C": C, "gamma": gamma, "rho0": params.rho0},
                           points, grid.depths, decide)


def reference_federer(measure, eps0, delta, grid):
    def decide(depth, x, rho):
        slo, shi = measure.ball_mass(x, eps0 * rho, depth)
        blo, bhi = measure.ball_mass(x, rho, depth)
        if slo >= delta * bhi:
            return Verdict.PASS
        if shi < delta * blo:
            return Verdict.FAIL
        return None

    return reference_audit("federer", {"eps0": eps0, "delta": delta},
                           grid.points(measure.support), grid.depths, decide)


def reference_efd(measure, eps0, delta, grid):
    def decide(depth, x, rho):
        slo, shi = measure.ball_mass(x, eps0 * rho, depth)
        blo, bhi = measure.ball_mass(x, rho, depth)
        if shi <= delta * blo:
            return Verdict.PASS
        if slo > delta * bhi:
            return Verdict.FAIL
        return None

    return reference_audit("efd", {"eps0": eps0, "delta": delta},
                           grid.points(measure.support), grid.depths, decide)


def reference_power_law(measure, k1, k2, gamma, grid):
    def decide(depth, x, rho):
        blo, bhi = measure.ball_mass(x, rho, depth)
        low_ok = scaled_pow_cmp(blo, k1, rho, gamma) >= 0
        high_ok = scaled_pow_cmp(bhi, k2, rho, gamma) <= 0
        if low_ok and high_ok:
            return Verdict.PASS
        low_bad = scaled_pow_cmp(bhi, k1, rho, gamma) < 0
        high_bad = scaled_pow_cmp(blo, k2, rho, gamma) > 0
        if low_bad or high_bad:
            return Verdict.FAIL
        return None

    return reference_audit("power_law", {"k1": k1, "k2": k2, "gamma": gamma},
                           grid.points(measure.support), grid.depths, decide)


def run_both(kind, measure, grid, constants):
    """(check's outcome, reference's outcome) for one check kind."""
    check, reference = {
        "decay": (check_absolute_decay, reference_decay),
        "federer": (check_federer, reference_federer),
        "efd": (check_efd, reference_efd),
        "power_law": (check_power_law, reference_power_law),
    }[kind]
    return (check(measure, *constants, grid),
            reference(measure, *constants, grid))


# the ratio constants straddle each bundled pass/fail boundary: decay C
# around 8 (Cantor) and 2 (Lebesgue), doubling deltas around 1/2, power-law
# k1 around 1/4 and 1, k2 around 2 and 4
ratios = st.fractions(min_value=F(1, 16), max_value=F(15, 16),
                      max_denominator=16)
decay_C = st.fractions(min_value=F(1, 8), max_value=16, max_denominator=8)
power_k = st.fractions(min_value=F(1, 16), max_value=8, max_denominator=16)


@st.composite
def grids(draw):
    name = draw(st.sampled_from(sorted(SUPPORTS)))
    K, exponents = SUPPORTS[name]
    rho0 = draw(st.sampled_from([F(1, 2), F(1, 3), F(1, 9)]))
    depths = tuple(sorted(draw(st.sets(st.integers(1, 6), min_size=1,
                                       max_size=2))))
    grid = AuditGrid.default(K, rho0, x_depth=draw(st.integers(1, 2)),
                             rho_count=draw(st.integers(1, 3)),
                             depths=depths)
    return name, grid, draw(st.sampled_from(exponents))


@st.composite
def constants(draw, kind, gamma):
    if kind in ("federer", "efd"):
        return draw(ratios), draw(ratios)
    if kind == "decay":
        return (DecayParams(draw(decay_C), gamma,
                            draw(st.sampled_from([F(1, 3), F(1, 2), 1]))),)
    return draw(power_k), draw(power_k), gamma


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["decay", "federer", "efd", "power_law"]), grids(),
       st.data())
def test_checks_match_the_reference(kind, drawn, data):
    name, grid, gamma = drawn
    got, want = run_both(kind, MEASURES[name], grid,
                         data.draw(constants(kind, gamma)))
    event("%s ends %s" % (kind, got.verdict.value))
    assert got == want


# fixed cases that end on each verdict, so every branch of every row rule
# is compared: (check, support, constants, depths, the outcome's verdict)
CASES = [
    ("decay", "cantor", (DecayParams(8, LogRatio(2, 3), F(1, 3)),),
     (6, 9), Verdict.PASS),
    ("decay", "cantor", (DecayParams(F(1, 10), LogRatio(2, 3), F(1, 3)),),
     (6,), Verdict.FAIL),
    ("decay", "cantor", (DecayParams(8, LogRatio(2, 3), F(1, 3)),),
     (1,), Verdict.INCONCLUSIVE),
    ("decay", "cantor", (DecayParams(8, LogRatio(2, 5), F(1, 3)),),
     (6, 9), Verdict.PASS),
    ("decay", "cantor", (DecayParams(F(1, 10), LogRatio(2, 5), F(1, 3)),),
     (6,), Verdict.FAIL),
    ("decay", "three_maps", (DecayParams(8, F(1, 2), F(1, 3)),),
     (4, 6), Verdict.PASS),
    ("decay", "lebesgue", (DecayParams(2, F(1), 1),), (6, 9), Verdict.PASS),
    ("federer", "cantor", (F(1, 3), F(1, 2)), (6,), Verdict.PASS),
    ("federer", "cantor", (F(1, 3), F(3, 4)), (6,), Verdict.FAIL),
    ("federer", "cantor", (F(1, 3), F(1, 2)), (1,), Verdict.INCONCLUSIVE),
    ("efd", "lebesgue", (F(1, 2), F(3, 4)), (6,), Verdict.PASS),
    ("efd", "lebesgue", (F(1, 2), F(1, 4)), (6,), Verdict.FAIL),
    ("efd", "three_maps", (F(1, 3), F(1, 2)), (1,), Verdict.INCONCLUSIVE),
    ("power_law", "cantor", (F(1, 4), 4, LogRatio(2, 3)), (6,), Verdict.PASS),
    ("power_law", "cantor", (F(1, 4), 4, F(2)), (6,), Verdict.FAIL),
    ("power_law", "cantor", (F(1, 4), 4, LogRatio(2, 5)), (6,), Verdict.PASS),
    ("power_law", "cantor", (1, 4, LogRatio(2, 5)), (6,), Verdict.FAIL),
    ("power_law", "lebesgue", (1, 2, F(1)), (1,), Verdict.INCONCLUSIVE),
    ("power_law", "three_maps", (F(1, 2), 1, F(3, 4)), (6,), Verdict.FAIL),
]


@pytest.mark.parametrize("kind, name, constants, depths, verdict", CASES)
def test_fixed_cases_match_the_reference(kind, name, constants, depths,
                                         verdict):
    grid = AuditGrid.default(SUPPORTS[name][0], F(1, 3), x_depth=2,
                             rho_count=3, depths=depths)
    got, want = run_both(kind, MEASURES[name], grid, constants)
    assert got == want
    assert got.verdict is verdict


def test_each_grid_power_is_reduced_once(monkeypatch):
    """On `cantor_audit.json`'s grid the decay check collapses eps**gamma
    once per eps and the power law rho**gamma once per rho.  A collapse
    per comparison made 187 and 54 calls; a count, unlike a time, is the
    same on every host."""
    doc = json.loads(open(bundled_spec_path("cantor_audit.json")).read())
    support = build_support(doc["support"])
    measure = FractalMeasure(support)
    measured, _, _ = build_measure(doc["measure"])
    audit = doc["audit"]
    grid = AuditGrid.default(support, F(audit["rho0"]),
                             x_depth=audit["x_depth"],
                             rho_count=audit["rho_count"],
                             depths=tuple(audit["depths"]))
    calls = []
    collapse = numerics.rational_power_of

    def spy(x, base):
        calls.append(x)
        return collapse(x, base)

    monkeypatch.setattr(numerics, "rational_power_of", spy)
    assert check_absolute_decay(measure, measured["decay"], grid).passed
    assert len(grid.eps) == 3
    assert Counter(calls) == Counter(grid.eps)
    calls.clear()
    assert check_power_law(measure, *measured["power_law"], grid).passed
    assert len(grid.rhos) == 5
    assert Counter(calls) == Counter(grid.rhos)
