"""Exact outcome certificates and their strategy-blind verifiers.

A certificate freezes the claim a finished run makes about its outcome
interval, together with a snapshot of the inputs that determined the
schedule constants.  Verification re-derives every constant from the
snapshot alone and then checks the claim by exhaustive rational
arithmetic, so a hand-edited certificate fails closed even when the
edited claim happens to be true.
"""

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .alice import (BiLipschitzMap, ClearingStrategy, InterleaveStrategy,
                    LacunarySpec, LacunaryStrategy, ba_band_top, ba_constants,
                    lacunary_constants, orbit_near)
from .errors import HorizonMismatch, SpecError
from .fractal import DimensionEstimate
from .numerics import (Exponent, LogRatio, circle_dist, exponent_bounds,
                       exponent_cmp, fractions_in_interval, json_int,
                       json_rationals, make_exponent, parse_rational)

ORBIT_SEPARATION = "orbit_separation"
BAD_APPROX = "bad_approx"

# the largest denominator a BA certificate's check reaches
MAX_Q = 10 ** 6
# the most reduced fractions a BA check may enumerate: its one window
# [u - c, v + c] is sorted in memory before the first fraction is checked
MAX_FRACTIONS = 2 * 10 ** 6
# the largest "blocks" or "terms" horizon a certificate may claim; the
# verifiers build bounds such as (1/(alpha*beta))^(r*h) before any check
MAX_HORIZON = 10 ** 4
# the most covered orbit terms one check takes to exact arithmetic
MAX_EXACT = 5 * 10 ** 4


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
    schedule inputs ("blocks"), otherwise orbit terms ("terms") or BA
    denominators ("denominators"); blocks and terms stop at MAX_HORIZON.
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
        counts = "blocks" if "alpha" in self.snapshot else \
            "terms" if self.kind == ORBIT_SEPARATION else "denominators"
        if self.horizon_kind != counts:
            raise SpecError("horizon kind %r does not fit this %s snapshot, "
                            "which counts %s"
                            % (self.horizon_kind, self.kind, counts))
        if counts != "denominators" and self.horizon > MAX_HORIZON:
            raise SpecError("horizon %d %s exceeds the verifiable %d"
                            % (self.horizon, counts, MAX_HORIZON))

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


def certificates(strategy, interval: Tuple[Fraction, Fraction],
                 name: str = "") -> List[Tuple[str, Certificate]]:
    """The (name, certificate) claims a finished strategy makes about its
    outcome interval: the blocks a planned clearing schedule has cleared,
    at its constant c, named "orbit" or "bad_approx", or "part1",
    "part1.2", ... inside an interleave.  A strategy that planned no
    schedule claims nothing."""
    if isinstance(strategy, InterleaveStrategy):
        return [entry for i, part in enumerate(strategy.strategies, start=1)
                for entry in certificates(part, interval, "%s.%d" % (name, i)
                                          if name else "part%d" % i)]
    if not (isinstance(strategy, ClearingStrategy) and strategy.planned):
        return []
    snap = {"alpha": str(strategy.alpha), "beta": str(strategy.beta),
            "rho_prime": str(strategy.rho_prime),
            "rho0": str(strategy.decay.rho0), "turns": strategy.turn,
            "phi": strategy.phi.to_json()}
    if isinstance(strategy, LacunaryStrategy):
        snap["spec"] = strategy.spec.to_json()
        kind, name = ORBIT_SEPARATION, name or "orbit"
    else:
        kind, name = BAD_APPROX, name or "bad_approx"
    return [(name, Certificate(kind, interval, strategy.c,
                               strategy.blocks_cleared, "blocks", snap))]


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
    for key, ratio in (("alpha", alpha), ("beta", beta)):
        if not 0 < ratio < 1:
            raise SpecError("snapshot %s must lie in (0, 1)" % key)
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


def _verify_orbit(cert: Certificate) -> VerificationResult:
    """Every term the horizon covers, checked with exact circle arithmetic
    over the whole interval at once."""
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
        last = spec.terms.horizon
        indices = range(1, cert.horizon + 1 if last is None
                        else min(cert.horizon, last) + 1)
    u, v = phi.preimage_interval(lo, hi)
    # a skipped term's window stays farther than c from Z, so it passes;
    # checked counts every covered term up to the first that fails
    near = orbit_near(spec.terms, spec.targets, u, v, indices, cert.c)
    for exact, n in enumerate(near, start=1):
        if exact > MAX_EXACT:
            raise SpecError("more than %d covered terms need an exact check"
                            % MAX_EXACT)
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


def _verify_ba(cert: Certificate) -> VerificationResult:
    """Every reduced fraction within c of the preimage interval, up to
    denominator Q: the largest q below R^h for h finished blocks, at most
    MAX_Q.  A violation is any p/q at q^2-weighted distance <= c from the
    hull."""
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
        q_cap = min(ba_band_top(alpha * beta, cert.horizon), MAX_Q)
    else:
        phi = BiLipschitzMap.from_json(snap.get("phi"))
        q_cap = min(cert.horizon, MAX_Q)
    u, v = phi.preimage_interval(lo, hi)
    # the window holds at most floor(w*q) + 1 fractions of each q <= q_cap
    w = v - u + 2 * cert.c
    bound = w * q_cap * (q_cap + 1) / 2 + q_cap
    if bound > MAX_FRACTIONS:
        raise SpecError("BA window of width %s up to denominator %d holds up "
                        "to %d fractions, more than the verifiable %d"
                        % (w, q_cap, math.floor(bound), MAX_FRACTIONS))
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


def verify(cert: Certificate) -> VerificationResult:
    """Exhaustively re-check a certificate's claim from its snapshot alone.

    Raises HorizonMismatch when the claimed blocks need more turns than
    the snapshot records, and SpecError when a BA window holds more than
    MAX_FRACTIONS fractions to check or more than MAX_EXACT orbit terms
    need an exact check.
    """
    if cert.kind == ORBIT_SEPARATION:
        return _verify_orbit(cert)
    return _verify_ba(cert)


# ---------------------------------------------------------------------------
# dimension reporting


def dimension_report(bound: Exponent,
                     estimates: Sequence[DimensionEstimate] = ()) -> dict:
    """The dimension.json document: the analytic lower bound dim >= bound
    beside sampled pointwise estimates.

    The bound is a measure's power-law exponent or decay gamma.
    Inconclusive estimates (interval mass bounds that straddle a gap
    boundary) are skipped; "used" counts the rest.  "margin" is how far
    the worst of them falls short of the bound: "0" when it reaches the
    bound, a rational when both sides are rational, else an
    outward-rounded enclosure [lo, hi]; None with no estimate used.
    """
    vals = [e.value for e in estimates if e.value is not None]
    worst = min(vals, key=functools.cmp_to_key(exponent_cmp), default=None)
    if worst is None:
        margin = None
    elif exponent_cmp(worst, bound) >= 0:
        margin = "0"
    elif isinstance(worst, Fraction) and isinstance(bound, Fraction):
        margin = str(bound - worst)
    else:
        (blo, bhi), (wlo, whi) = exponent_bounds(bound), exponent_bounds(worst)
        margin = [str(blo - whi), str(bhi - wlo)]
    return {"analytic_bound": exponent_to_json(bound),
            "estimates": [{"rho": str(e.rho), "value": None if e.value is None
                           else exponent_to_json(e.value)}
                          for e in estimates],
            "margin": margin, "used": len(vals), "consistent": margin == "0"}
