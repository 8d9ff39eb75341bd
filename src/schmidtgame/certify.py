"""Exact outcome certificates and their strategy-blind verifiers.

A certificate freezes the claim a finished run makes about its outcome
interval, together with a snapshot of the inputs that determined the
schedule constants.  Verification re-derives every constant from the
snapshot alone and then checks the claim by exhaustive rational
arithmetic, so a hand-edited certificate fails closed even when the
edited claim happens to be true.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .alice import (BAStrategy, BiLipschitzMap, LacunarySpec,
                    LacunaryStrategy, ba_band_top, ba_constants,
                    lacunary_constants, orbit_near)
from .errors import HorizonMismatch, SpecError
from .fractal import DimensionEstimate, MeasureAuditReport
from .numerics import (Exponent, LogRatio, Ordering, circle_dist,
                       exponent_bounds, exponent_cmp, fractions_in_interval,
                       json_int, json_rationals, make_exponent, parse_rational)

ORBIT_SEPARATION = "orbit_separation"
BAD_APPROX = "bad_approx"

DEFAULT_MAX_Q = 10 ** 6


# ---------------------------------------------------------------------------
# exponent serialization, shared with the CLI


def exponent_to_json(e: Exponent):
    """A rational exponent as "p/q", a log ratio as {"log": [top, base]}."""
    if isinstance(e, LogRatio):
        return {"log": [str(e.top), str(e.base)]}
    return str(Fraction(e))


def exponent_from_json(data) -> Exponent:
    if isinstance(data, dict):
        return make_exponent(*json_rationals(data["log"], "log", 2))
    return parse_rational(data)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class Certificate:
    """A separation claim over an interval.

    kind "orbit_separation": every x in the interval keeps circle distance
    at least c between t_n * phi^{-1}(x) and the target y_n for every term
    the horizon covers.  kind "bad_approx": phi^{-1}(x) stays farther than
    c/q^2 from every reduced p/q with q <= Q for the horizon's Q.

    The horizon counts finished schedule blocks when the snapshot carries
    schedule inputs ("blocks"), otherwise raw terms or denominators.
    """

    kind: str
    interval: Tuple[Fraction, Fraction]
    c: Fraction
    horizon: int
    horizon_kind: str = "blocks"
    snapshot: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in (ORBIT_SEPARATION, BAD_APPROX):
            raise SpecError("unknown certificate kind %r" % (self.kind,))
        lo, hi = self.interval
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise SpecError("certificate interval is reversed")
        object.__setattr__(self, "interval", (lo, hi))
        object.__setattr__(self, "c", Fraction(self.c))
        if self.c <= 0:
            raise SpecError("separation constant must be positive")
        if json_int(self.horizon, "horizon") < 0:
            raise SpecError("horizon must be a non-negative integer")
        allowed = ("blocks", "terms") if self.kind == ORBIT_SEPARATION \
            else ("blocks", "denominators")
        if self.horizon_kind not in allowed:
            raise SpecError("horizon kind %r does not fit %s"
                            % (self.horizon_kind, self.kind))

    def to_json(self) -> dict:
        return {"kind": self.kind,
                "interval": [str(self.interval[0]), str(self.interval[1])],
                "c": str(self.c),
                "horizon": self.horizon,
                "horizon_kind": self.horizon_kind,
                "snapshot": self.snapshot}

    @classmethod
    def from_json(cls, data: dict) -> "Certificate":
        return cls(data["kind"], json_rationals(data["interval"], "interval", 2),
                   parse_rational(data["c"]), data["horizon"],
                   data.get("horizon_kind", "blocks"),
                   dict(data.get("snapshot") or {}))


def _schedule_snapshot(strategy) -> dict:
    return {"alpha": str(strategy.alpha), "beta": str(strategy.beta),
            "rho_prime": str(strategy.rho_prime),
            "rho0": str(strategy.decay.rho0), "turns": strategy.turn,
            "phi": strategy.phi.to_json()}


def orbit_certificate(strategy: LacunaryStrategy,
                      interval: Tuple[Fraction, Fraction]) -> Certificate:
    """Claim of a planned lacunary strategy: the blocks cleared so far, at
    constant c."""
    snap = _schedule_snapshot(strategy)
    snap["spec"] = strategy.spec.to_json()
    return Certificate(ORBIT_SEPARATION, interval, strategy.c,
                       strategy.blocks_cleared, "blocks", snap)


def ba_certificate(strategy: BAStrategy,
                   interval: Tuple[Fraction, Fraction]) -> Certificate:
    """Claim of a planned badly-approximable strategy: the blocks cleared
    so far, at constant c."""
    return Certificate(BAD_APPROX, interval, strategy.c,
                       strategy.blocks_cleared, "blocks",
                       _schedule_snapshot(strategy))


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class VerificationResult:
    passed: bool
    checked: int
    reason: str
    witness: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.passed

    def to_json(self) -> dict:
        return {"passed": self.passed, "checked": self.checked,
                "reason": self.reason, "witness": self.witness}


def _schedule_inputs(snap: dict):
    """(phi, alpha, beta, rho_prime, rho0) as recorded in a snapshot.

    The verifier re-derives the schedule constants from these alone, so a
    certificate whose stored constant was corrupted fails closed.
    """
    phi = BiLipschitzMap.from_json(snap["phi"])
    alpha, beta, rho_prime, rho0 = (parse_rational(snap[key]) for key in
                                    ("alpha", "beta", "rho_prime", "rho0"))
    if not 0 < alpha * beta < 1:
        raise SpecError("snapshot ratios leave (0, 1)")
    # the warm-up shrinks rho_prime until it drops below rho0
    if rho_prime <= 0 or rho0 <= 0:
        raise SpecError("snapshot radii rho_prime and rho0 must be positive")
    return phi, alpha, beta, rho_prime, rho0


def _constant_mismatch(expected: Fraction, got: Fraction) -> VerificationResult:
    return VerificationResult(
        False, 0,
        "constant mismatch: the snapshot schedule gives c = %s" % expected,
        witness={"field": "c", "expected": str(expected), "got": str(got)})


def _check_blocks(cert: Certificate, start: int, r: int) -> None:
    """Raise HorizonMismatch unless the snapshot's turns finish the claimed
    blocks: block k opens at turn start + r(k-1) and takes r turns."""
    if cert.horizon_kind != "blocks":
        raise SpecError("schedule snapshots certify whole blocks")
    turns = json_int(cert.snapshot["turns"], "snapshot turns")
    done = max(0, (turns - start + 1) // r)
    if cert.horizon > done:
        raise HorizonMismatch(
            "certificate claims %d blocks but %d turns finish at most %d"
            % (cert.horizon, turns, done))


def _orbit_witness(phi: BiLipschitzMap, u: Fraction, v: Fraction,
                   t: Fraction, y: Fraction, n: int) -> dict:
    """The interval point whose n-th orbit term lands nearest the target."""
    m_lo = math.ceil(t * u - y)
    m_hi = math.floor(t * v - y)
    if m_lo <= m_hi:
        xin, dist = (y + m_lo) / t, Fraction(0)
    else:
        du, dv = circle_dist(t * u, y), circle_dist(t * v, y)
        xin, dist = (u, du) if du <= dv else (v, dv)
    return {"n": n, "term": str(t), "target": str(y),
            "point": str(phi.apply(xin)), "distance": str(dist)}


def verify_orbit_separation(cert: Certificate) -> VerificationResult:
    """Exhaustively re-check an orbit-separation claim.

    Every term the horizon covers is checked with exact circle arithmetic
    over the whole interval at once.  Raises HorizonMismatch when the
    claimed blocks need more turns than the snapshot records.
    """
    if cert.kind != ORBIT_SEPARATION:
        raise SpecError("not an orbit-separation certificate")
    lo, hi = cert.interval
    snap = cert.snapshot
    spec = LacunarySpec.from_json(snap["spec"])
    if "alpha" in snap:
        phi, alpha, beta, rho_prime, rho0 = _schedule_inputs(snap)
        _, r, _, _, c, start = lacunary_constants(
            spec.lacunarity, phi.lipschitz, alpha, beta, rho_prime, rho0)
        if c != cert.c:
            return _constant_mismatch(c, cert.c)
        _check_blocks(cert, start, r)
        indices = spec.terms.indices_between(
            0, (1 / (alpha * beta)) ** (r * cert.horizon))
    else:
        phi = BiLipschitzMap.from_json(snap.get("phi"))
        if cert.horizon_kind != "terms":
            raise SpecError("bare orbit certificates cover explicit terms")
        last = spec.terms.horizon
        indices = range(1, cert.horizon + 1 if last is None
                        else min(cert.horizon, last) + 1)
    u, v = phi.preimage_interval(lo, hi)
    # a skipped term's window stays farther than c from Z, so it passes;
    # checked counts every covered term up to the first that fails
    for n in orbit_near(spec.terms, spec.targets, u, v, indices, cert.c):
        t, y = spec.terms.term(n), spec.targets.target(n)
        a, b = t * u - y, t * v - y
        if math.ceil(a) <= b or \
                min(a - math.floor(a), math.ceil(b) - b) < cert.c:
            return VerificationResult(
                False, indices.index(n) + 1, "separation fails at term %d" % n,
                witness=_orbit_witness(phi, u, v, t, y, n))
    return VerificationResult(
        True, len(indices),
        "all %d covered terms stay %s-separated" % (len(indices), cert.c))


def verify_ba(cert: Certificate, max_q: int = DEFAULT_MAX_Q) -> VerificationResult:
    """Exhaustively re-check a badly-approximable claim up to denominator Q.

    Q is the largest q below R^h for h finished blocks, capped at max_q.
    The walk enumerates every reduced fraction within c of the preimage
    interval; a violation is any p/q at q^2-weighted distance <= c from
    the hull.
    """
    if cert.kind != BAD_APPROX:
        raise SpecError("not a badly-approximable certificate")
    if max_q < 1:
        raise SpecError("max_q must be at least 1, not %d" % max_q)
    lo, hi = cert.interval
    snap = cert.snapshot
    if "alpha" in snap:
        phi, alpha, beta, rho_prime, rho0 = _schedule_inputs(snap)
        _, _, c, start = ba_constants(phi.lipschitz, alpha, beta, rho_prime,
                                      rho0)
        if c != cert.c:
            return _constant_mismatch(c, cert.c)
        _check_blocks(cert, start, 1)
        # h blocks clear every q with q^2 < (alpha*beta)^-h, and no more
        q_cap = min(ba_band_top(alpha * beta, cert.horizon), max_q)
    else:
        phi = BiLipschitzMap.from_json(snap.get("phi"))
        if cert.horizon_kind != "denominators":
            raise SpecError("bare certificates bound the denominator directly")
        q_cap = min(cert.horizon, max_q)
    u, v = phi.preimage_interval(lo, hi)
    checked = 0
    for f in fractions_in_interval(u - cert.c, v + cert.c, q_cap):
        d = max(Fraction(0), u - f, f - v)
        checked += 1
        if d * f.denominator ** 2 <= cert.c:
            return VerificationResult(
                False, checked,
                "rational %s sits within c/q^2 of the interval" % f,
                witness={"fraction": str(f), "distance": str(d),
                         "allowance": str(cert.c / f.denominator ** 2),
                         "point": str(phi.apply(min(max(f, u), v)))})
    return VerificationResult(
        True, checked,
        "no rational with denominator <= %d comes within c/q^2" % q_cap)


def verify(cert: Certificate, max_q: int = DEFAULT_MAX_Q) -> VerificationResult:
    if cert.kind == ORBIT_SEPARATION:
        return verify_orbit_separation(cert)
    return verify_ba(cert, max_q)


# ---------------------------------------------------------------------------
# dimension reporting


@dataclass(frozen=True)
class DimensionReport:
    """Analytic lower bound for the support dimension next to empirical
    pointwise estimates; margin is how far the worst estimate falls short:
    a Fraction when both sides are rational or the estimate reaches the
    bound, else an outward-rounded enclosure (lo, hi)."""

    analytic_bound: Exponent
    estimates: Tuple
    margin: object
    used: int

    @property
    def consistent(self) -> bool:
        return self.margin == 0

    def to_json(self) -> dict:
        ests = [{"rho": str(e.rho), "value": None if e.value is None
                 else exponent_to_json(e.value)} for e in self.estimates]
        margin = self.margin
        if isinstance(margin, Fraction):
            margin = str(margin)
        elif margin is not None:
            margin = [str(m) for m in margin]
        return {"analytic_bound": exponent_to_json(self.analytic_bound),
                "estimates": ests, "margin": margin, "used": self.used,
                "consistent": self.consistent}


def dimension_report(audit: MeasureAuditReport,
                     estimates: Sequence[DimensionEstimate] = ()
                     ) -> DimensionReport:
    """Combine the analytic bound dim >= gamma with sampled estimates.

    The bound comes from the audit's power-law exponent when it has one,
    else from its absolute-decay constants.  Inconclusive estimates
    (interval mass bounds that straddle a gap boundary) are skipped.
    """
    if audit.power_law is not None:
        bound = audit.power_law[2]
    elif audit.decay is not None:
        bound = audit.decay.gamma
    else:
        raise SpecError("no decay or power-law constants to bound dimension")
    vals = [e.value for e in estimates if e.value is not None]
    if not vals:
        return DimensionReport(bound, tuple(estimates), None, 0)
    worst = vals[0]
    for v in vals[1:]:
        if exponent_cmp(v, worst) is Ordering.LESS:
            worst = v
    if exponent_cmp(worst, bound) is not Ordering.LESS:
        margin = Fraction(0)
    elif isinstance(worst, Fraction) and isinstance(bound, Fraction):
        margin = bound - worst
    else:
        (blo, bhi), (wlo, whi) = exponent_bounds(bound), exponent_bounds(worst)
        margin = (blo - whi, bhi - wlo)
    return DimensionReport(bound, tuple(estimates), margin, len(vals))
