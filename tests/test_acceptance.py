"""End-to-end acceptance gate.

Every criterion prints exactly one PASS/FAIL line (run with -s to see
them live) and asserts it, with zero numeric tolerance: all comparisons
are exact rational arithmetic.
"""

import json
import math
import random
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest

from schmidtgame.alice import (BAStrategy, ConstTargets, GeometricTerms,
                               LacunarySpec, LacunaryStrategy,
                               affine_to_sequence, avoidance_step)
from schmidtgame.bob import GreedyBob, RandomBob
from schmidtgame.certify import (ba_certificate, dimension_report,
                                 orbit_certificate, verify)
from schmidtgame.cli import bundled_spec_path, main
from schmidtgame.fractal import (AuditGrid, DecayParams, FractalMeasure,
                                 MeasureAuditReport, audit_measure,
                                 binary_support, cantor_support,
                                 decay_from_federer_efd,
                                 lower_pointwise_dimension, max_alpha)
from schmidtgame.game import (Ball, GameParams, outcome_interval, run_game,
                              validate_transcript)
from schmidtgame.numerics import circle_dist, exponent_bounds, make_exponent


@pytest.fixture(scope="module")
def K():
    return cantor_support()


@pytest.fixture(scope="module")
def decay():
    return decay_from_federer_efd((F(1, 3), F(1, 2)), (F(1, 3), F(1, 2)), F(1))


def report(number, name, passed, elapsed, budget=None):
    verdict = "PASS" if passed else "FAIL"
    print("ACCEPTANCE %d %-24s %s (%.2fs)" % (number, name, verdict, elapsed))
    assert passed, "criterion %d (%s) failed" % (number, name)
    if budget is not None:
        assert elapsed <= budget, "criterion %d exceeded %ds" % (number, budget)


def test_1_lacunary_end_to_end(K, decay):
    t0 = time.monotonic()
    alpha = max_alpha(decay)
    params = GameParams(alpha, F(1, 4))
    spec = LacunarySpec(GeometricTerms(F(2)), ConstTargets(F(0)))
    alice = LacunaryStrategy(spec, decay=decay)
    bob = GreedyBob(alice=alice)
    transcript = run_game(K, params, alice, bob, rounds=50)
    validate_transcript(transcript, K)
    cert = orbit_certificate(alice, outcome_interval(transcript))
    result = verify(cert)
    ok = (result.passed and cert.c == alice.c
          and alice.blocks_cleared >= 1 and result.checked >= 1)
    report(1, "lacunary vs greedy", ok, time.monotonic() - t0, budget=60)


def test_2_ba_end_to_end(K, decay):
    t0 = time.monotonic()
    alpha = max_alpha(decay)
    params = GameParams(alpha, F(1, 4))
    alice = BAStrategy(decay=decay)
    transcript = run_game(K, params, alice, RandomBob(29), rounds=40)
    validate_transcript(transcript, K)
    # c = R^2 alpha rho / L with R^2 = 1/(alpha beta), exactly
    formula_c = (1 / alice.ab) * alice.alpha * alice.rho / alice.phi.lipschitz
    cert = ba_certificate(alice, outcome_interval(transcript))
    result = verify(cert)
    bound = (1 / alice.ab) ** alice.blocks_cleared
    q_cap = min(math.isqrt(bound.numerator // bound.denominator), 10 ** 6)
    ok = (result.passed and cert.c == formula_c == alice.c
          and alice.blocks_cleared >= 30 and q_cap == 10 ** 6)
    report(2, "badly approximable", ok, time.monotonic() - t0, budget=60)


def test_3_interleaved_triple(tmp_path):
    t0 = time.monotonic()
    code = main(["construct", "--spec", bundled_spec_path("cantor_triple.json"),
                 "--out", str(tmp_path), "--digits", "20"])
    doc = json.loads((tmp_path / "construct.json").read_text())
    certs = doc["certificates"]
    kinds = {c["certificate"]["kind"] for c in certs}
    ok = (code == 0 and len(certs) == 3
          and all(c["verification"]["passed"] for c in certs)
          and kinds == {"orbit_separation", "bad_approx"}
          and doc["base"] == 3 and len(doc["digits"]) == 20
          and set(doc["digits"]) <= {0, 2})
    report(3, "triple interleave", ok, time.monotonic() - t0, budget=300)


def test_4_avoidance_property_suite(K, decay):
    t0 = time.monotonic()
    rng = random.Random(20260814)
    alpha_top = max_alpha(decay)
    failures = 0
    for trial in range(1000):
        depth = rng.randint(0, 8)
        word = tuple(rng.choice((0, 1)) for _ in range(depth))
        center = K.point(word)
        rho = K.diameter * K.contraction ** depth
        rho = rho * F(rng.randint(1, 8), 8)
        alpha = alpha_top if trial % 2 == 0 else \
            alpha_top * F(rng.randint(1, 7), 8)
        npts = rng.randint(1, 25)
        points = []
        for _ in range(npts):
            mode = rng.random()
            if mode < 0.5:
                points.append(center + rho * F(rng.randint(-64, 64), 64))
            elif mode < 0.8:
                points.append(center + 2 * alpha * rho
                              * F(rng.randint(-8, 8), 8))
            else:
                points.append(center + rng.choice((-1, 1)) * 2 * alpha * rho)
        ball = Ball(center, rho, word)
        try:
            (x, w), _ = avoidance_step(K, ball, alpha, points)
        except Exception:
            failures += 1
            continue
        # the engine plays the ball (x, alpha * rho)
        contained = abs(x - center) <= rho - alpha * rho
        cleared = sum(1 for y in points if abs(y - x) > 2 * alpha * rho)
        if not (contained and K.verify_point(x, w) and 2 * cleared >= npts):
            failures += 1
    report(4, "avoidance suite 10^3", failures == 0, time.monotonic() - t0)


def test_5_measure_audits(K, decay):
    t0 = time.monotonic()
    lebesgue = FractalMeasure(binary_support())
    grid_l = AuditGrid.default(lebesgue.support, F(1))
    rep_l = audit_measure(lebesgue, grid_l,
                          decay=DecayParams(F(2), F(1), F(1)))
    cantor = FractalMeasure(cantor_support())
    grid_c = AuditGrid.default(K, decay.rho0, depths=(6, 9, 12))
    rep_c = audit_measure(cantor, grid_c, decay=decay)
    # the doubling pairs' decay constants, exactly
    gamma23 = make_exponent(2, 3)
    conversions = (decay.C == F(8) and decay.gamma == gamma23
                   and decay.rho0 == F(1, 3))
    ok = rep_l.all_passed and rep_c.all_passed and conversions
    report(5, "measure audits", ok, time.monotonic() - t0, budget=120)


def test_6_dimension_reporting(K, decay):
    t0 = time.monotonic()
    mu = FractalMeasure(cantor_support())
    ests = lower_pointwise_dimension(mu, F(0),
                                     [F(1, 3) ** k for k in range(1, 13)])
    rep = dimension_report(MeasureAuditReport(decay=decay), estimates=ests)
    gamma23 = make_exponent(2, 3)
    exact_each = all(e.value == gamma23 for e in ests)
    lo, hi = exponent_bounds(rep.analytic_bound)
    near, tol = F(6309, 10000), F(5, 10000)
    ok = (rep.analytic_bound == gamma23
          and near - tol < lo <= hi < near + tol
          and exact_each and rep.margin == 0 and rep.consistent)
    report(6, "dimension report", ok, time.monotonic() - t0)


def test_7_adversarial_robustness(K, decay):
    t0 = time.monotonic()
    alpha_top = max_alpha(decay)
    spec = LacunarySpec(GeometricTerms(F(2)), ConstTargets(F(0)))
    games = 0
    referee_violations = 0
    cert_failures = 0
    flipped = 0
    for seed in range(25):
        for strat_name in ("lacunary", "ba"):
            for bob_name in ("greedy", "random"):
                alpha = alpha_top if games % 2 == 0 else alpha_top / 2
                params = GameParams(alpha, F(1, 4))
                if strat_name == "lacunary":
                    alice = LacunaryStrategy(spec, decay=decay)
                else:
                    alice = BAStrategy(decay=decay)
                bob = GreedyBob(alice=alice) if bob_name == "greedy" \
                    else RandomBob(seed)
                try:
                    t = run_game(K, params, alice, bob, rounds=30)
                    validate_transcript(t, K)
                except Exception:
                    referee_violations += 1
                    games += 1
                    continue
                interval = outcome_interval(t)
                if strat_name == "lacunary":
                    cert = orbit_certificate(alice, interval)
                else:
                    cert = ba_certificate(alice, interval)
                if not verify(cert).passed:
                    cert_failures += 1
                if not verify(replace(cert, c=cert.c / 2)).passed:
                    flipped += 1
                games += 1
    ok = (games == 100 and referee_violations == 0 and cert_failures == 0
          and flipped >= 95)
    report(7, "adversarial 100 games", ok, time.monotonic() - t0)


def test_8_affine_reduction():
    t0 = time.monotonic()
    b, c, y = F(2), F(1, 2), F(0)
    spec = affine_to_sequence(b, c, y, 20)
    targets_const = all(spec.targets.target(n) == F(1, 2)
                        for n in range(1, 21))
    rng = random.Random(8)
    pointwise = True
    for _ in range(10):
        x = F(rng.randint(0, 10 ** 6), 10 ** 6 + 1)
        fx = x
        for n in range(1, 21):
            fx = (b * fx + c) % 1
            lhs = circle_dist(fx, y)
            rhs = circle_dist(b ** n * x, spec.targets.target(n))
            if lhs != rhs:
                pointwise = False
    ok = targets_const and pointwise
    report(8, "affine reduction", ok, time.monotonic() - t0)
