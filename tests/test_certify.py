import copy
import json
import math
from dataclasses import replace
from fractions import Fraction as F

import pytest

import schmidtgame
from schmidtgame.alice import (IDENTITY, BAStrategy, BiLipschitzMap,
                               ConstTargets, ba_constants,
                               GeometricTerms, LacunarySpec, LacunaryStrategy,
                               ListTargets)
from schmidtgame.bob import KeepCenterBob, RandomBob
from schmidtgame.certify import (Certificate, _schedule_inputs, certificates,
                                 dimension_report, exponent_from_json,
                                 exponent_to_json, verify)
from schmidtgame.errors import HorizonMismatch, SpecError
from schmidtgame.fractal import (DimensionEstimate, FractalMeasure,
                                 cantor_support,
                                 decay_from_federer_efd,
                                 lower_pointwise_dimension, max_alpha)
from schmidtgame.game import Ball, GameParams, outcome_interval, run_game
from schmidtgame.numerics import LogRatio, exponent_cmp, make_exponent



@pytest.fixture(scope="module")
def K():
    return cantor_support()


@pytest.fixture(scope="module")
def cantor_decay():
    return decay_from_federer_efd((F(1, 3), F(1, 2)), (F(1, 3), F(1, 2)), F(1))


@pytest.fixture(scope="module")
def lacunary_run(K, cantor_decay):
    params = GameParams(max_alpha(cantor_decay), F(1, 4))
    spec = LacunarySpec(GeometricTerms(F(2)), ConstTargets(F(0)))
    alice = LacunaryStrategy(spec, decay=cantor_decay)
    t = run_game(K, params, alice, RandomBob(7), rounds=50)
    return alice, t


@pytest.fixture(scope="module")
def ba_run(K, cantor_decay):
    params = GameParams(max_alpha(cantor_decay), F(1, 4))
    alice = BAStrategy(decay=cantor_decay)
    t = run_game(K, params, alice, RandomBob(11), rounds=40)
    return alice, t


def claim(strategy, interval):
    """The one certificate a finished single-schedule strategy makes."""
    (_, cert), = certificates(strategy, interval)
    return cert


def bare(kind, x, c, horizon, horizon_kind, **snap):
    return Certificate(kind, (F(x), F(x)), F(c), horizon, horizon_kind, snap)


def scaled(key, factor):
    def edit(snap):
        snap[key] = str(F(snap[key]) * factor)
    edit.__name__ = "%s*%s" % (key, factor)
    return edit


def steeper_phi(snap):
    snap["phi"] = BiLipschitzMap((), (F(2),), (F(0), F(0))).to_json()


def looser_lacunarity(snap):
    snap["spec"]["lacunarity"] = "3/2"


# every schedule input in a snapshot feeds c, except rho0, which does not
# bind on these runs; only orbit snapshots carry a sequence spec
SCHEDULE_EDITS = [scaled(key, factor)
                  for key in ("alpha", "beta", "rho_prime")
                  for factor in (F(1, 2), F(2))] + [steeper_phi]
SNAPSHOT_EDITS = [(kind, edit) for kind in ("orbit", "ba")
                  for edit in SCHEDULE_EDITS] + [("orbit", looser_lacunarity)]


class TestCertificateObject:
    def test_json_round_trip(self, lacunary_run):
        alice, t = lacunary_run
        cert = claim(alice, outcome_interval(t))
        blob = json.dumps(cert.to_json(), sort_keys=True)
        back = Certificate.from_json(json.loads(blob))
        assert back == cert
        assert json.dumps(back.to_json(), sort_keys=True) == blob

    def test_validation(self):
        with pytest.raises(SpecError):
            Certificate("orbit", (F(0), F(1)), F(1, 2), 1)
        with pytest.raises(SpecError):
            Certificate("orbit_separation", (F(1), F(0)), F(1, 2), 1)
        with pytest.raises(SpecError):
            Certificate("orbit_separation", (F(0), F(1)), F(0), 1)
        with pytest.raises(SpecError):
            Certificate("orbit_separation", (F(0), F(1)), F(1, 2), -1)
        with pytest.raises(SpecError):
            Certificate("bad_approx", (F(0), F(1)), F(1, 2), 1, "terms")

    def test_one_public_verifier(self):
        # verify dispatches on the certificate's kind; no per-kind name
        assert "verify" in schmidtgame.__all__
        assert not {"verify_ba", "verify_orbit_separation"} & \
            set(schmidtgame.__all__)


class TestOrbitFrozen:
    """Degenerate one-point intervals with hand-computable orbits."""

    SPEC = {"terms": {"kind": "geometric", "base": "2", "scale": "1"},
            "targets": {"kind": "const", "value": "0"}, "lacunarity": "2"}

    def test_third_survives_doubling(self):
        # 2^n/3 mod 1 alternates 2/3, 1/3: distance to 0 is exactly 1/3
        cert = bare("orbit_separation", F(1, 3), F(1, 3), 24, "terms",
                    spec=self.SPEC)
        got = verify(cert)
        assert got.passed and got.checked == 24

    def test_half_dies_immediately(self):
        cert = bare("orbit_separation", F(1, 2), F(1, 100), 5, "terms",
                    spec=self.SPEC)
        got = verify(cert)
        assert not got.passed
        assert got.witness["n"] == 1
        assert got.witness["distance"] == "0"
        assert got.witness["point"] == "1/2"

    def test_zero_horizon_is_vacuous(self):
        cert = bare("orbit_separation", F(1, 2), F(1, 100), 0, "terms",
                    spec=self.SPEC)
        got = verify(cert)
        assert got.passed and got.checked == 0

    def test_targets_shorter_than_horizon(self):
        spec = LacunarySpec(GeometricTerms(F(2)),
                            ListTargets((F(0), F(0), F(0))))
        cert = bare("orbit_separation", F(1, 3), F(1, 3), 5, "terms",
                    spec=spec.to_json())
        with pytest.raises(HorizonMismatch):
            verify(cert)

    def test_phi_conjugation(self):
        # phi(x) = x/2: the interval {1/6} pulls back to {1/3}
        phi = BiLipschitzMap((), (F(1, 2),), (F(0), F(0)))
        cert = bare("orbit_separation", F(1, 6), F(1, 3), 10, "terms",
                    spec=self.SPEC, phi=phi.to_json())
        assert verify(cert).passed


class TestBAFrozen:
    def test_13_over_21(self):
        cert = bare("bad_approx", F(13, 21), F(1, 100), 20, "denominators")
        got = verify(cert)
        assert got.passed
        assert got.checked > 0

    def test_rational_point_fails(self):
        cert = bare("bad_approx", F(1, 2), F(1, 5), 10, "denominators")
        got = verify(cert)
        assert not got.passed
        assert got.witness["fraction"] == "1/2"
        assert got.witness["distance"] == "0"

    def test_zero_horizon_is_vacuous(self):
        cert = bare("bad_approx", F(1, 2), F(1, 5), 0, "denominators")
        got = verify(cert)
        assert got.passed and got.checked == 0

    def test_window_too_large_to_enumerate_fails_closed(self):
        # Q = MAX_Q over a window 1/50 wide bounds about 10^10 fractions
        cert = bare("bad_approx", F(13, 21), F(1, 100), 10 ** 9,
                    "denominators")
        with pytest.raises(SpecError, match="more than the verifiable"):
            verify(cert)


def ba_schedule_cert(x, horizon):
    """A schedule certificate at alpha*beta = 1/36 for the one point x."""
    snap = {"alpha": "1/4", "beta": "1/9", "rho_prime": "1", "rho0": "1",
            "turns": 40, "phi": IDENTITY.to_json()}
    c = ba_constants(F(1), F(1, 4), F(1, 9), F(1), F(1))[2]
    return Certificate("bad_approx", (x, x), c, horizon, "blocks", snap)


class TestBASchedulePerimeter:
    """h blocks clear every q with q^2 < 36^h: q = 6^h is not cleared yet,
    so a certificate sitting on p/6^h holds, and one on p/(6^h - 1) fails."""

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_square_root_denominator_not_checked(self, h):
        got = verify(ba_schedule_cert(F(1, 6 ** h), h))
        assert got.passed
        assert got.reason == ("no rational with denominator <= %d comes "
                              "within c/q^2" % (6 ** h - 1))

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_denominator_below_is_checked(self, h):
        got = verify(ba_schedule_cert(F(1, 6 ** h - 1), h))
        assert not got.passed
        assert got.witness["fraction"] == "1/%d" % (6 ** h - 1)

    def test_no_block_checks_nothing(self):
        got = verify(ba_schedule_cert(F(0), 0))
        assert got.passed and got.checked == 0


class TestEndToEnd:
    def test_lacunary_certificate_verifies(self, lacunary_run):
        alice, t = lacunary_run
        cert = claim(alice, outcome_interval(t))
        assert cert.horizon == 5
        got = verify(cert)
        assert got.passed
        assert got.checked == 399  # terms below (8192/3)^35
        back = Certificate.from_json(cert.to_json())
        assert verify(back).passed

    def test_ba_certificate_verifies(self, ba_run):
        alice, t = ba_run
        cert = claim(alice, outcome_interval(t))
        assert cert.horizon == 38
        assert verify(cert).passed

    def test_dispatcher(self, lacunary_run):
        alice, t = lacunary_run
        cert = claim(alice, outcome_interval(t))
        assert verify(cert).passed


class CheckedEachTurn:
    """Alice's strategy, her certificate put to the verifier after each
    move: the blocks she has cleared pass, one block more is a horizon
    mismatch.  This ties the schedule's start and r to the verifier's."""

    def __init__(self, strategy):
        self.strategy = strategy

    def move(self, support, params, ball):
        out = self.strategy.move(support, params, ball)
        # the ball the engine builds from the answer
        played = Ball(out[0], params.alpha * ball.radius, out[1])
        cert = claim(self.strategy, played.interval)
        assert verify(cert).passed
        with pytest.raises(HorizonMismatch):
            verify(replace(cert, horizon=cert.horizon + 1))
        return out


@pytest.mark.parametrize("make", [
    lambda decay: LacunaryStrategy(
        LacunarySpec(GeometricTerms(F(2)), ConstTargets(F(0))), decay=decay),
    lambda decay: BAStrategy(decay=decay)],
    ids=["lacunary", "ba"])
def test_schedule_and_verifier_agree_on_every_turn(K, cantor_decay, make):
    params = GameParams(max_alpha(cantor_decay), F(1, 4))
    opening = Ball(K.canonical_point, K.diameter, word=())
    alice = make(cantor_decay).plan(params, opening)
    rounds = alice.start + 3 * alice.r + 2
    run_game(K, params, CheckedEachTurn(alice), KeepCenterBob(), rounds,
             opening)
    assert alice.turn == rounds and alice.blocks_cleared >= 3


class TestMutation:
    """Any tampering with c must fail closed through the re-derivation."""

    def test_halved_c_fails(self, lacunary_run):
        alice, t = lacunary_run
        cert = claim(alice, outcome_interval(t))
        bad = replace(cert, c=cert.c / 2)
        got = verify(bad)
        assert not got.passed
        assert got.witness["field"] == "c"

    def test_doubled_c_fails(self, lacunary_run):
        alice, t = lacunary_run
        cert = claim(alice, outcome_interval(t))
        got = verify(replace(cert, c=cert.c * 2))
        assert not got.passed

    def test_ba_halved_c_fails(self, ba_run):
        alice, t = ba_run
        cert = claim(alice, outcome_interval(t))
        got = verify(replace(cert, c=cert.c / 2))
        assert not got.passed
        assert got.witness["field"] == "c"

    def test_snapshot_alpha_tamper_fails(self, lacunary_run):
        alice, t = lacunary_run
        cert = claim(alice, outcome_interval(t))
        snap = dict(cert.snapshot)
        snap["alpha"] = str(alice.alpha / 2)
        assert not verify(replace(cert, snapshot=snap)).passed

    @pytest.mark.parametrize("kind, edit", SNAPSHOT_EDITS,
                             ids=lambda v: getattr(v, "__name__", v))
    def test_snapshot_edit_fails_closed(self, kind, edit, lacunary_run,
                                        ba_run):
        if kind == "orbit":
            alice, t = lacunary_run
            cert = claim(alice, outcome_interval(t))
        else:
            alice, t = ba_run
            cert = claim(alice, outcome_interval(t))
        snap = copy.deepcopy(cert.snapshot)
        edit(snap)
        got = verify(replace(cert, snapshot=snap))
        assert not got.passed
        assert got.witness["field"] == "c"

    @pytest.mark.parametrize("key", ["rho0", "rho_prime"])
    @pytest.mark.parametrize("value", ["0", "-1/3"])
    def test_nonpositive_radius_is_bad_input(self, key, value, lacunary_run):
        alice, t = lacunary_run
        snap = copy.deepcopy(
            claim(alice, outcome_interval(t)).snapshot)
        snap[key] = value
        with pytest.raises(SpecError):
            _schedule_inputs(snap)

    def test_inflated_horizon_raises(self, lacunary_run, ba_run):
        alice, t = lacunary_run
        cert = claim(alice, outcome_interval(t))
        with pytest.raises(HorizonMismatch):
            verify(replace(cert, horizon=cert.horizon + 1))
        ba, bt = ba_run
        bcert = claim(ba, outcome_interval(bt))
        with pytest.raises(HorizonMismatch):
            verify(replace(bcert, horizon=bcert.horizon + 1))


def sqrt_cf_convergents(d, depth):
    """Convergents of sqrt(d) by the classical periodic recurrence."""
    a0 = math.isqrt(d)
    assert a0 * a0 != d
    m, den, a = 0, 1, a0
    p0, q0, p1, q1 = 1, 0, a0, 1
    out = [F(p1, q1)]
    for _ in range(depth - 1):
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        out.append(F(p1, q1))
    return out


def own_convergents(x):
    """Convergents of a rational x from its Euclidean expansion."""
    p0, q0, p1, q1 = 1, 0, math.floor(x), 1
    out = [F(p1, q1)]
    x = x - math.floor(x)
    while x:
        x = 1 / x
        a = math.floor(x)
        x = x - a
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        out.append(F(p1, q1))
    return out


class TestContinuedFractionOracle:
    """Best-approximation quality of quadratic-irrational convergents.

    For each x (a deep convergent of sqrt(d)) the brute-force minimum of
    q^2 |x - p/q| over q <= Q must be attained at a convergent of x, and
    verify must agree with the brute force on both sides of it.
    """

    Q = 40

    def cases(self):
        squares = {n * n for n in range(1, 12)}
        ds = [d for d in range(2, 40) if d not in squares][:20]
        assert len(ds) == 20
        return [(d, sqrt_cf_convergents(d, 12)[-1]) for d in ds]

    def brute_min(self, x):
        best = None
        for q in range(1, self.Q + 1):
            p = round(x * q)
            err = q * q * abs(x - F(p, q))
            if best is None or err < best:
                best = err
        return best

    def test_oracle_and_verifier_agree(self):
        for d, x in self.cases():
            assert x.denominator > self.Q
            m = self.brute_min(x)
            assert m > 0
            conv = [f for f in own_convergents(x) if f.denominator <= self.Q]
            conv_min = min(q.denominator ** 2 * abs(x - q) for q in conv)
            assert conv_min == m, d
            ok = verify(bare("bad_approx", x, m / 2, self.Q, "denominators"))
            assert ok.passed, d
            hit = verify(bare("bad_approx", x, m, self.Q, "denominators"))
            assert not hit.passed, d
            f = F(hit.witness["fraction"])
            assert f.denominator ** 2 * abs(x - f) == m


def estimate(value):
    """A pointwise estimate at rho = 1/3 whose mass bounds met."""
    return DimensionEstimate(F(1, 3), value)


class TestDimensionReport:
    def test_frozen_margin(self):
        rep = dimension_report(F(1, 2), [estimate(F(12, 25)),
                                         estimate(F(1, 2))])
        assert rep["margin"] == "1/50"
        assert rep["consistent"] is False
        assert rep["used"] == 2
        assert rep["estimates"][0] == {"rho": "1/3", "value": "12/25"}

    def test_inconclusive_estimate_is_skipped(self):
        straddle = DimensionEstimate(F(1, 3), None)
        rep = dimension_report(F(1, 2), [straddle, estimate(F(1, 2))])
        assert rep["used"] == 1 and rep["consistent"] is True
        assert rep["estimates"][0] == {"rho": "1/3", "value": None}

    def test_log_ratio_margin_is_an_enclosure(self):
        gamma = make_exponent(2, 3)
        rep = dimension_report(gamma, [estimate(F(1, 2))])
        assert rep["consistent"] is False
        lo, hi = rep["margin"]
        lo, hi = F(lo), F(hi)
        assert 0 < hi - lo <= F(1, 2 ** 30)
        # lo <= log 2/log 3 - 1/2 <= hi, decided exactly
        assert exponent_cmp(gamma, lo + F(1, 2)) == 1
        assert exponent_cmp(gamma, hi + F(1, 2)) == -1

    def test_cantor_exact_consistency(self, K, cantor_decay):
        mu = FractalMeasure(cantor_support())
        ests = lower_pointwise_dimension(mu, F(0),
                                         [F(1, 3) ** k for k in range(1, 13)])
        rep = dimension_report(cantor_decay.gamma, ests)
        assert exponent_from_json(rep["analytic_bound"]) == make_exponent(2, 3)
        assert rep["used"] == 12
        assert rep["margin"] == "0" and rep["consistent"] is True

    def test_no_estimates(self):
        rep = dimension_report(F(1, 2))
        assert rep["margin"] is None and rep["used"] == 0

    def test_exponent_json(self):
        e = make_exponent(2, 3)
        assert isinstance(e, LogRatio)
        assert exponent_from_json(exponent_to_json(e)) == e
        assert exponent_from_json(exponent_to_json(F(3, 7))) == F(3, 7)
