"""Constructive winning strategies for the ball player.

Two flagship strategies, both running on exact rationals:

* lacunary orbit avoidance -- keep ``dist(t_n * phi^-1(x), y_n mod 1) >= c``
  for every term of a lacunary sequence, by clearing the finitely many
  dangerous translates of each geometric block with halving avoidance moves;
* badly approximable numbers -- keep ``|phi^-1(x) - p/q| > c/q^2`` for every
  rational, by clearing the at most one rational with denominator in the
  current geometric range per turn.

Shared machinery: the avoidance lemma (one shrinking move that moves away
from at least half of a finite point list), countable-set exclusion, a
round-robin scheduler that interleaves several strategies on disjoint
arithmetic progressions of turns, and the reduction of affine expanding
circle maps to lacunary target sequences.
"""

import bisect
import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import (HorizonMismatch, InvalidAlpha, InvariantViolation,
                     NoPointFound, ScheduleOverlap, SpecError)
from .fractal import DecayParams, FractalSupport, check_alpha, find_point_in_gap
from .game import Ball, GameParams, Transcript, Variant
from .numerics import floor_sqrt, fractions_in_interval, parse_rational

log = logging.getLogger(__name__)

__all__ = [
    "BiLipschitzMap", "GeometricTerms", "ListTerms", "ConstTargets",
    "PeriodicTargets", "ListTargets", "LacunarySpec", "orbit_residues",
    "LacunaryStrategyState", "BAStrategyState", "ALPHA_DIAGNOSTIC",
    "avoidance_step", "lacunary_constants", "plan_lacunary", "index_block",
    "lacunary_move", "ba_constants", "plan_ba", "ba_move",
    "LacunaryStrategy", "BAStrategy", "ExcludeCountable", "InterleaveStrategy",
    "affine_to_sequence",
]


# ---------------------------------------------------------------------------
# bi-Lipschitz maps


@dataclass(frozen=True)
class BiLipschitzMap:
    """Piecewise-linear strictly monotone map of the real line.

    ``breakpoints`` are the interior piece boundaries (may be empty), and
    ``slopes`` has one entry per piece, left to right (one more than the
    breakpoints).  All slopes must share a sign; continuity pins everything
    once the value at the anchor point is fixed.  ``lipschitz`` is the
    certified two-sided constant: 1/L <= |f(x)-f(y)|/|x-y| <= L.
    """

    breakpoints: Tuple[Fraction, ...]
    slopes: Tuple[Fraction, ...]
    anchor: Tuple[Fraction, Fraction]

    def __post_init__(self):
        if len(self.slopes) != len(self.breakpoints) + 1:
            raise SpecError("need exactly one slope per piece")
        if any(s == 0 for s in self.slopes):
            raise SpecError("slopes must be nonzero")
        sign = 1 if self.slopes[0] > 0 else -1
        if any((s > 0) != (sign > 0) for s in self.slopes):
            raise SpecError("slopes must share a sign (strict monotonicity)")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if not a < b:
                raise SpecError("breakpoints must be strictly increasing")
        if self.breakpoints and self.anchor[0] != self.breakpoints[0]:
            raise SpecError("anchor must sit on the first breakpoint")

    @classmethod
    def identity(cls) -> "BiLipschitzMap":
        return cls((), (Fraction(1),), (Fraction(0), Fraction(0)))

    def _values(self) -> List[Fraction]:
        # images of the breakpoints, by continuity from the anchor
        vals = []
        if self.breakpoints:
            v = self.anchor[1]
            vals.append(v)
            for i in range(1, len(self.breakpoints)):
                v = v + self.slopes[i] * (self.breakpoints[i] - self.breakpoints[i - 1])
                vals.append(v)
        return vals

    def apply(self, x) -> Fraction:
        x = Fraction(x)
        if not self.breakpoints:
            x0, y0 = self.anchor
            return y0 + self.slopes[0] * (x - x0)
        vals = self._values()
        # piece i covers (breakpoints[i-1], breakpoints[i]]
        i = 0
        while i < len(self.breakpoints) and x > self.breakpoints[i]:
            i += 1
        ref = 0 if i == 0 else i - 1
        return vals[ref] + self.slopes[i] * (x - self.breakpoints[ref])

    def inverse(self, y) -> Fraction:
        y = Fraction(y)
        if not self.breakpoints:
            x0, y0 = self.anchor
            return x0 + (y - y0) / self.slopes[0]
        vals = self._values()
        inc = self.slopes[0] > 0
        n = len(vals)
        for i in range(n + 1):
            above = i == 0 or (y >= vals[i - 1] if inc else y <= vals[i - 1])
            below = i == n or (y <= vals[i] if inc else y >= vals[i])
            if above and below:
                ref = 0 if i == 0 else i - 1
                return self.breakpoints[ref] + (y - vals[ref]) / self.slopes[i]
        raise InvariantViolation("monotone map has no piece for value")

    def apply_interval(self, lo, hi) -> Tuple[Fraction, Fraction]:
        a, b = self.apply(lo), self.apply(hi)
        return (a, b) if a <= b else (b, a)

    def preimage_interval(self, lo, hi) -> Tuple[Fraction, Fraction]:
        a, b = self.inverse(lo), self.inverse(hi)
        return (a, b) if a <= b else (b, a)

    @property
    def lipschitz(self) -> Fraction:
        L = Fraction(1)
        for s in self.slopes:
            L = max(L, abs(s), 1 / abs(s))
        return L

    def to_json(self) -> dict:
        return {
            "breakpoints": [str(b) for b in self.breakpoints],
            "slopes": [str(s) for s in self.slopes],
            "anchor": [str(self.anchor[0]), str(self.anchor[1])],
        }

    @classmethod
    def from_json(cls, data: Optional[dict]) -> "BiLipschitzMap":
        """The map `to_json` wrote; None, a map left out, is the identity."""
        if data is None:
            return cls.identity()
        return cls(tuple(parse_rational(b) for b in data["breakpoints"]),
                   tuple(parse_rational(s) for s in data["slopes"]),
                   (parse_rational(data["anchor"][0]),
                    parse_rational(data["anchor"][1])))


# ---------------------------------------------------------------------------
# lacunary sequence specifications


def _first_index(holds) -> int:
    """The least n >= 1 where ``holds(n)``, for a predicate that stays true
    once true: double an upper end, then bisect below it."""
    top = 1
    while not holds(top):
        top *= 2
    return bisect.bisect_left(range(1, top + 1), True, key=holds) + 1


@dataclass(frozen=True)
class GeometricTerms:
    """Terms t_n = scale * base^n, re-indexed so that t_1 > 1."""

    base: Fraction
    scale: Fraction = Fraction(1)
    shift: int = field(init=False, default=0)

    def __post_init__(self):
        if self.base <= 1:
            raise SpecError("geometric base must exceed 1")
        # tail shift: smallest s >= 1 with scale*base^s > 1
        if self.scale <= 0:
            raise SpecError("scale must be positive")
        s = _first_index(lambda s: self.scale * self.base ** s > 1)
        object.__setattr__(self, "shift", s - 1)

    @property
    def lacunarity(self) -> Fraction:
        return self.base

    def term(self, n: int) -> Fraction:
        if n < 1:
            raise HorizonMismatch("term index must be >= 1")
        return self.scale * self.base ** (n + self.shift)

    def indices_between(self, lower, upper) -> List[int]:
        """Every n with lower <= t_n < upper, in increasing order."""
        return list(range(_first_index(lambda n: self.term(n) >= lower),
                          _first_index(lambda n: self.term(n) >= upper)))

    @property
    def horizon(self) -> Optional[int]:
        return None

    def to_json(self) -> dict:
        return {"kind": "geometric", "base": str(self.base), "scale": str(self.scale)}


@dataclass(frozen=True)
class ListTerms:
    """Explicit increasing rational terms; entries <= 1 are dropped."""

    values: Tuple[Fraction, ...]
    lacunarity: Fraction = Fraction(2)

    def __post_init__(self):
        vals = tuple(Fraction(v) for v in self.values if Fraction(v) > 1)
        if not vals:
            raise SpecError("term list is empty after dropping entries <= 1")
        for a, b in zip(vals, vals[1:]):
            if b / a < self.lacunarity:
                raise SpecError("terms violate the declared lacunarity ratio")
        object.__setattr__(self, "values", vals)

    def term(self, n: int) -> Fraction:
        if not 1 <= n <= len(self.values):
            raise HorizonMismatch("term index beyond the explicit list")
        return self.values[n - 1]

    def indices_between(self, lower, upper) -> List[int]:
        """Every n with lower <= t_n < upper, in increasing order."""
        return list(range(bisect.bisect_left(self.values, lower) + 1,
                          bisect.bisect_left(self.values, upper) + 1))

    @property
    def horizon(self) -> Optional[int]:
        return len(self.values)

    def to_json(self) -> dict:
        return {"kind": "list", "values": [str(v) for v in self.values],
                "lacunarity": str(self.lacunarity)}


def _mod1(x) -> Fraction:
    x = Fraction(x)
    return x - math.floor(x)


@dataclass(frozen=True)
class ConstTargets:
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", _mod1(self.value))

    def target(self, n: int) -> Fraction:
        return self.value

    def to_json(self) -> dict:
        return {"kind": "const", "value": str(self.value)}


@dataclass(frozen=True)
class PeriodicTargets:
    values: Tuple[Fraction, ...]

    def __post_init__(self):
        if not self.values:
            raise SpecError("periodic target rule needs at least one value")
        object.__setattr__(self, "values", tuple(_mod1(v) for v in self.values))

    def target(self, n: int) -> Fraction:
        return self.values[(n - 1) % len(self.values)]

    def to_json(self) -> dict:
        return {"kind": "periodic", "values": [str(v) for v in self.values]}


@dataclass(frozen=True)
class ListTargets:
    values: Tuple[Fraction, ...]

    def __post_init__(self):
        if not self.values:
            raise SpecError("target list must not be empty")
        object.__setattr__(self, "values", tuple(_mod1(v) for v in self.values))

    def target(self, n: int) -> Fraction:
        if not 1 <= n <= len(self.values):
            raise HorizonMismatch("target index beyond the explicit list")
        return self.values[n - 1]

    def to_json(self) -> dict:
        return {"kind": "list", "values": [str(v) for v in self.values]}


TermRule = Union[GeometricTerms, ListTerms]
TargetRule = Union[ConstTargets, PeriodicTargets, ListTargets]


def orbit_residues(terms: TermRule, targets: TargetRule, u: Fraction,
                   v: Fraction, indices: Iterable[int]
                   ) -> Iterator[Tuple[int, int, int, int]]:
    """(n, S, W, E) for each n in ``indices``, all integers, with
    S/E = frac(t_n*u - y_n) and W/E = t_n*(v - u).

    Put u = a/q and v = b/q.  For an integer base B the orbit steps as
    x -> Bx mod 1: X = scale_num * B^(n+shift) * a stays reduced mod
    D = scale_den * q, so operands are bounded by q, not by t_n.  Other
    rules read t_n's numerator and denominator directly.  No term takes
    a Fraction or a gcd; E may differ between terms.
    """
    q = u.denominator * v.denominator // gcd(u.denominator, v.denominator)
    a = u.numerator * (q // u.denominator)
    b = v.numerator * (q // v.denominator)
    geometric = isinstance(terms, GeometricTerms)
    if geometric:
        sn, sd = terms.scale.numerator, terms.scale.denominator
        bn, bd = terms.base.numerator, terms.base.denominator
    stepped, prev = geometric and bd == 1, None
    for n in indices:
        if stepped and n - 1 == prev:
            X, width = X * bn % D, width * bn
        elif stepped:
            k = n + terms.shift
            D = sd * q
            X = sn * a * pow(bn, k, D) % D
            width = sn * (b - a) * bn ** k
        else:
            if geometric:
                k = n + terms.shift
                tn, td = sn * bn ** k, sd * bd ** k
            else:
                t = terms.term(n)
                tn, td = t.numerator, t.denominator
            D = td * q
            X, width = tn * a % D, tn * (b - a)
        prev = n
        # 0 <= X < D and 0 <= y < 1 put S within one E of [0, E)
        y = targets.target(n)
        E = D * y.denominator
        S = X * y.denominator - y.numerator * D
        yield n, S + E if S < 0 else S, width * y.denominator, E


@dataclass(frozen=True)
class LacunarySpec:
    """A lacunary sequence t_n with circle targets y_n.

    ``lacunarity`` is the certified rational constant M > 1 with
    t_{n+1}/t_n >= M for all n the rules generate.
    """

    terms: TermRule
    targets: TargetRule
    lacunarity: Optional[Fraction] = None

    def __post_init__(self):
        M = self.lacunarity
        if M is None:
            M = self.terms.lacunarity
        M = Fraction(M)
        if M <= 1:
            raise SpecError("lacunarity constant must exceed 1")
        if isinstance(self.terms, GeometricTerms) and M > self.terms.base:
            raise SpecError("lacunarity constant exceeds the geometric ratio")
        if isinstance(self.terms, ListTerms) and M > self.terms.lacunarity:
            raise SpecError("lacunarity constant exceeds the list's ratio bound")
        object.__setattr__(self, "lacunarity", M)

    @property
    def M(self) -> Fraction:
        return self.lacunarity

    def to_json(self) -> dict:
        return {"terms": self.terms.to_json(), "targets": self.targets.to_json(),
                "lacunarity": str(self.lacunarity)}

    @classmethod
    def from_json(cls, data: dict) -> "LacunarySpec":
        t = data["terms"]
        if t["kind"] == "geometric":
            terms = GeometricTerms(parse_rational(t["base"]),
                                   parse_rational(t.get("scale", "1")))
        elif t["kind"] == "list":
            terms = ListTerms(tuple(parse_rational(v) for v in t["values"]),
                              parse_rational(t.get("lacunarity", "2")))
        else:
            raise SpecError("unknown term rule %r" % t.get("kind"))
        g = data["targets"]
        if g["kind"] == "const":
            targets: TargetRule = ConstTargets(parse_rational(g["value"]))
        elif g["kind"] == "periodic":
            targets = PeriodicTargets(tuple(parse_rational(v) for v in g["values"]))
        elif g["kind"] == "list":
            targets = ListTargets(tuple(parse_rational(v) for v in g["values"]))
        else:
            raise SpecError("unknown target rule %r" % g.get("kind"))
        M = parse_rational(data["lacunarity"]) if "lacunarity" in data else None
        return cls(terms, targets, M)


# ---------------------------------------------------------------------------
# schedule constants, shared by the planners and the certificate verifier

ALPHA_DIAGNOSTIC = "alpha exceeds 1/4(1/(3C))^(1/gamma) for this measure"

# the block capacity search gives up beyond this N (M too close to 1)
MAX_BLOCK_CAPACITY = 10 ** 6


def _check_plan_inputs(params: GameParams, decay: DecayParams) -> None:
    if params.variant is not Variant.CLASSICAL:
        raise SpecError("the clearing schedule needs exact classical radii")
    if not check_alpha(params.alpha, decay):
        raise InvalidAlpha(ALPHA_DIAGNOSTIC)


def _block_capacity(inv: Fraction, M: Fraction) -> int:
    """Least N >= 1 with inv^r <= M^N for r = bit_length(N).

    Inside one bit-length band r is fixed and M^N grows with N, so the
    condition is monotone there: find the first band whose top satisfies
    it, then binary-search that band with exact powers.
    """
    r = 1
    while inv ** r > M ** min(2 ** r - 1, MAX_BLOCK_CAPACITY):
        if 2 ** r > MAX_BLOCK_CAPACITY:
            raise SpecError("no block capacity below 10^6; M too close to 1")
        r += 1
    lo, hi = 2 ** (r - 1), min(2 ** r - 1, MAX_BLOCK_CAPACITY)
    while lo < hi:
        mid = (lo + hi) // 2
        if inv ** r <= M ** mid:
            hi = mid
        else:
            lo = mid + 1
    return lo


def lacunary_constants(M: Fraction, L: Fraction, alpha: Fraction,
                       beta: Fraction, rho_prime: Fraction, rho0: Fraction
                       ) -> Tuple[int, int, int, Fraction, Fraction]:
    """(N, r, k0, rho, c) of the lacunary clearing schedule.

    N is the minimal block capacity with (alpha*beta)^-r <= M^N for its own
    r = floor(log2 N) + 1; k0 is the number of warm-up turns needed to
    shrink the opening radius rho_prime below the plan bound, reaching rho;
    c is the separation the finished blocks certify.
    """
    ab = alpha * beta
    inv = 1 / ab
    N = _block_capacity(inv, M)
    r = N.bit_length()
    bound = inv ** (r - 1) / L
    k0 = 1
    rho = rho_prime
    # hardened smallness: window inflation must preserve translate spacing
    while not (rho < rho0 and 2 * rho * (1 + ab ** (r + 1)) < bound):
        k0 += 1
        rho *= ab
    c = (rho / L) * ab ** (3 * r)
    return N, r, k0, rho, c


def ba_constants(L: Fraction, alpha: Fraction, beta: Fraction,
                 rho_prime: Fraction, rho0: Fraction
                 ) -> Tuple[int, Fraction, Fraction]:
    """(k0, rho, c) of the badly-approximable clearing schedule.

    The warm-up bound rho < (alpha*beta)^2 / (2L(1+alpha)) keeps at most
    one rational of each denominator block inside a clearing window even
    after margin inflation; it implies the basic rho < alpha*beta/(2L).
    The certified constant is c = rho/(beta*L).
    """
    ab = alpha * beta
    bound = ab ** 2 / (2 * L * (1 + alpha))
    k0 = 2
    rho = ab * rho_prime
    while not (rho < bound and rho < rho0):
        k0 += 1
        rho *= ab
    return k0, rho, rho / (beta * L)


# ---------------------------------------------------------------------------
# the avoidance lemma


def avoidance_step(support: FractalSupport, ball: Ball, alpha: Fraction,
                   points: Sequence[Fraction]) -> Ball:
    """One shrinking move that avoids at least half of ``points``.

    Returns a ball of radius alpha*rho contained in ``ball`` whose distance
    to at least ceil(len(points)/2) of the points exceeds alpha*rho.  If at
    most half the points sit within 2*alpha*rho of the center, keeping the
    center already clears the far ones; otherwise any support point farther
    than 4*alpha*rho from the center and from both endpoints clears the
    crowd.  Raises NoPointFound when no such support point exists, which
    signals that alpha is too large for this support's decay constants.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise InvalidAlpha("avoidance ratio must lie in (0, 1)")
    x1, rho = ball.center, ball.radius
    reach = 2 * alpha * rho
    near = [y for y in points if abs(Fraction(y) - x1) <= reach]
    if 2 * len(near) <= len(points):
        new = Ball(x1, alpha * rho, ball.word)
    else:
        margin = 2 * reach
        anchors = (x1 - rho, x1, x1 + rho)
        got = find_point_in_gap(support, (x1 - rho, x1 + rho),
                                [(a - margin, a + margin) for a in anchors],
                                word=ball.word)
        if got is None:
            raise NoPointFound(
                "no support point clears the crowded ball; "
                "alpha is too large for this support")
        x2, word = got
        new = Ball(x2, alpha * rho, word)
    # exact postconditions: containment and clearing at least half
    if abs(new.center - x1) > rho - new.radius:
        raise InvariantViolation("avoidance move left the ball")
    cleared = [y for y in points if abs(Fraction(y) - new.center) > reach]
    if 2 * len(cleared) < len(points):
        raise InvariantViolation("avoidance move cleared fewer than half")
    if any(abs(Fraction(y) - new.center) == reach for y in points):
        log.info("avoidance distance met with equality at radius %s", rho)
    return new


# ---------------------------------------------------------------------------
# lacunary orbit avoidance


@dataclass
class LacunaryStrategyState:
    """Plan constants plus the mutable clearing bookkeeping.

    rho is the ball radius at the strategy's first post-warm-up turn;
    all schedule radii are exact powers of alpha*beta times rho.
    """

    alpha: Fraction
    beta: Fraction
    L: Fraction
    rho_prime: Fraction
    rho0: Fraction
    N: int
    r: int
    k0: int
    rho: Fraction
    c: Fraction
    turn: int = 0
    blocks_cleared: int = 0
    danger: List[Fraction] = field(default_factory=list)
    block_points: List[Fraction] = field(default_factory=list)

    @property
    def ab(self) -> Fraction:
        return self.alpha * self.beta


def plan_lacunary(spec: LacunarySpec, phi: BiLipschitzMap, params: GameParams,
                  decay: DecayParams, opening: Ball) -> LacunaryStrategyState:
    """Derive the clearing schedule constants for a lacunary spec.

    See lacunary_constants.  Raises InvalidAlpha when alpha fails the decay
    admissibility bound (4*alpha)^gamma <= 1/(3C).
    """
    _check_plan_inputs(params, decay)
    L = phi.lipschitz
    rho_prime = Fraction(opening.radius)
    N, r, k0, rho, c = lacunary_constants(spec.M, L, params.alpha, params.beta,
                                          rho_prime, decay.rho0)
    return LacunaryStrategyState(
        alpha=params.alpha, beta=params.beta, L=L,
        rho_prime=rho_prime, rho0=decay.rho0,
        N=N, r=r, k0=k0, rho=rho, c=c)


def index_block(state: LacunaryStrategyState, spec: LacunarySpec,
                k: int) -> List[int]:
    """All n with (alpha*beta)^{-r(k-1)} <= t_n < (alpha*beta)^{-rk}."""
    if k < 1:
        raise SpecError("block index must be >= 1")
    inv = 1 / state.ab
    return spec.terms.indices_between(inv ** (state.r * (k - 1)),
                                      inv ** (state.r * k))


def _danger_entries(state, spec, phi, k, lo, hi):
    """(n, m, z) with z = phi((y_n + m)/t_n) in [lo, hi], n in block k."""
    u, v = phi.preimage_interval(lo, hi)
    entries = []
    for n, S, W, E in orbit_residues(spec.terms, spec.targets, u, v,
                                     index_block(state, spec, k)):
        # the integers in [t_n*u - y_n, t_n*v - y_n], counted off S and W
        count = (S + W) // E + (S == 0)
        if not count:
            continue
        t = spec.terms.term(n)
        y = spec.targets.target(n)
        m_lo = math.ceil(t * u - y)
        for m in range(m_lo, m_lo + count):
            entries.append((n, m, phi.apply((y + m) / t)))
    return entries


def _hold(ball: Ball, ratio: Fraction) -> Ball:
    return Ball(ball.center, ratio * ball.radius, ball.word)


def _enter_block(state, spec, phi, k, bob_ball):
    ab = state.ab
    expected = ab ** (state.r * (k + 1) - 1) * state.rho
    if bob_ball.radius != expected:
        raise InvariantViolation(
            "ball radius off schedule at block %d: %s != %s"
            % (k, bob_ball.radius, expected))
    # premise: the ball is smaller than the translate spacing of block k
    if not 2 * bob_ball.radius < ab ** (state.r * k) / state.L:
        raise InvariantViolation("block %d ball exceeds translate spacing" % k)
    # inflate by the final separation so near-outside translates count too
    slack = ab ** (state.r * (k + 2)) * state.rho
    entries = _danger_entries(
        state, spec, phi, k,
        bob_ball.center - bob_ball.radius - slack,
        bob_ball.center + bob_ball.radius + slack)
    seen = {}
    for n, m, z in entries:
        if n in seen and seen[n] != m:
            raise InvariantViolation(
                "two translates of term %d in one clearing window" % n)
        seen[n] = m
    zs = sorted({z for _, _, z in entries})
    if len(zs) > state.N:
        raise InvariantViolation("danger list exceeds the block capacity N")
    state.danger = zs
    state.block_points = list(zs)


def _finish_block(state, k, ball):
    if state.danger:
        raise InvariantViolation(
            "danger points survived block %d clearing" % k)
    threshold = state.ab ** (state.r * (k + 2)) * state.rho
    for z in state.block_points:
        if abs(z - ball.center) - ball.radius < threshold:
            raise InvariantViolation(
                "cleared translate %s closer than the block separation" % z)
    state.blocks_cleared = k


def lacunary_move(state: LacunaryStrategyState, support: FractalSupport,
                  spec: LacunarySpec, phi: BiLipschitzMap,
                  params: GameParams, bob_ball: Ball) -> Ball:
    """Alice's next ball under the lacunary clearing schedule.

    Warm-up turns hold the center.  Block k is cleared over the r turns
    starting when the ball radius reaches (alpha*beta)^{r(k+1)-1} * rho;
    each turn runs one avoidance step on the surviving danger list, which
    at least halves it, so r turns empty a list of size <= N < 2^r.
    """
    state.turn += 1
    e = state.turn
    if e == state.k0 and bob_ball.radius != state.rho:
        raise InvariantViolation("warm-up did not land on the planned rho")
    j = e - state.k0 + 1
    if j < 2 * state.r:
        return _hold(bob_ball, params.alpha)
    k = j // state.r - 1
    step = j - state.r * (k + 1) + 1
    if step == 1:
        _enter_block(state, spec, phi, k, bob_ball)
    before = list(state.danger)
    ball = avoidance_step(support, bob_ball, state.alpha, before)
    reach = 2 * state.alpha * bob_ball.radius
    survivors = [y for y in before if abs(y - ball.center) <= reach]
    if 2 * len(survivors) > len(before):
        raise InvariantViolation("clearing step failed to halve the danger list")
    state.danger = survivors
    if step == state.r:
        _finish_block(state, k, ball)
    return ball


# ---------------------------------------------------------------------------
# badly approximable numbers


@dataclass
class BAStrategyState:
    """Constants for the rational-clearing schedule.

    Denominator ranges are compared through q^2 against powers of
    alpha*beta, so the growth rate R = (alpha*beta)^{-1/2} never needs surd
    arithmetic.
    """

    alpha: Fraction
    beta: Fraction
    rho_prime: Fraction
    rho0: Fraction
    k0: int
    rho: Fraction
    c: Fraction
    turn: int = 0
    blocks_done: int = 0

    @property
    def ab(self) -> Fraction:
        return self.alpha * self.beta


def plan_ba(phi: BiLipschitzMap, params: GameParams, decay: DecayParams,
            opening: Ball) -> BAStrategyState:
    """Derive the badly-approximable clearing constants; see ba_constants."""
    _check_plan_inputs(params, decay)
    L = phi.lipschitz
    rho_prime = Fraction(opening.radius)
    k0, rho, c = ba_constants(L, params.alpha, params.beta, rho_prime,
                              decay.rho0)
    state = BAStrategyState(alpha=params.alpha, beta=params.beta,
                            rho_prime=rho_prime,
                            rho0=decay.rho0, k0=k0, rho=rho, c=c)
    assert state.rho < min(state.ab / (2 * L), decay.rho0)
    return state


def _block_candidates(state: BAStrategyState, phi: BiLipschitzMap, k: int,
                      lo: Fraction, hi: Fraction) -> List[Fraction]:
    """Reduced p/q with R^{k-1} <= q < R^k and phi(p/q) in [lo, hi]."""
    inv = 1 / state.ab
    u, v = phi.preimage_interval(lo, hi)
    qmax = floor_sqrt(inv ** k)
    out = []
    for f in fractions_in_interval(u, v, qmax):
        q2 = Fraction(f.denominator ** 2)
        if q2 >= inv ** (k - 1) and q2 < inv ** k:
            out.append(f)
    return out


def ba_move(state: BAStrategyState, support: FractalSupport,
            phi: BiLipschitzMap, params: GameParams, bob_ball: Ball) -> Ball:
    """Alice's next ball under the rational-clearing schedule.

    At the turn where the ball radius is (alpha*beta)^{k-2} * rho the
    margin-inflated window holds at most one reduced p/q with denominator
    in [R^{k-1}, R^k); one avoidance step pushes the ball farther than
    alpha times the radius from its phi-image, which translates into
    |phi^-1(x) - p/q| > c/q^2 on the whole final ball.
    """
    state.turn += 1
    e = state.turn
    if e < state.k0 - 1:
        return _hold(bob_ball, params.alpha)
    k = e - state.k0 + 2
    expected = state.ab ** (k - 2) * state.rho
    if bob_ball.radius != expected:
        raise InvariantViolation(
            "ball radius off schedule at denominator block %d" % k)
    margin = state.alpha * bob_ball.radius
    cands = _block_candidates(state, phi, k,
                              bob_ball.center - bob_ball.radius - margin,
                              bob_ball.center + bob_ball.radius + margin)
    if len(cands) > 1:
        raise InvariantViolation(
            "two rationals of block %d in one clearing window" % k)
    targets = [phi.apply(f) for f in cands]
    ball = avoidance_step(support, bob_ball, state.alpha, targets)
    for z in targets:
        if abs(z - ball.center) - ball.radius < margin:
            raise InvariantViolation("rational translate not cleared")
    state.blocks_done = k
    return ball


# ---------------------------------------------------------------------------
# strategy adapters


class LacunaryStrategy:
    """Game-facing wrapper: plans lazily from the first ball it sees."""

    def __init__(self, spec: LacunarySpec, phi: Optional[BiLipschitzMap] = None,
                 decay: Optional[DecayParams] = None):
        if decay is None:
            raise SpecError("lacunary planning needs the measure's decay data")
        self.spec = spec
        self.phi = phi if phi is not None else BiLipschitzMap.identity()
        self.decay = decay
        self.state: Optional[LacunaryStrategyState] = None

    def move(self, support, params, transcript) -> Ball:
        opening = transcript.last_ball
        if self.state is None:
            self.state = plan_lacunary(self.spec, self.phi, params,
                                       self.decay, opening)
        return lacunary_move(self.state, support, self.spec, self.phi,
                             params, opening)

    def danger_preview(self, support, params, transcript) -> List[Fraction]:
        return [] if self.state is None else list(self.state.danger)


class BAStrategy:
    """Game-facing wrapper for the badly-approximable schedule."""

    def __init__(self, phi: Optional[BiLipschitzMap] = None,
                 decay: Optional[DecayParams] = None):
        if decay is None:
            raise SpecError("planning needs the measure's decay data")
        self.phi = phi if phi is not None else BiLipschitzMap.identity()
        self.decay = decay
        self.state: Optional[BAStrategyState] = None

    def move(self, support, params, transcript) -> Ball:
        opening = transcript.last_ball
        if self.state is None:
            self.state = plan_ba(self.phi, params, self.decay, opening)
        return ba_move(self.state, support, self.phi, params, opening)

    def danger_preview(self, support, params, transcript) -> List[Fraction]:
        if self.state is None:
            return []
        ball = transcript.last_ball
        k = min(self.state.blocks_done + 1, 12)
        cands = _block_candidates(self.state, self.phi, k,
                                  ball.center - ball.radius,
                                  ball.center + ball.radius)
        return [self.phi.apply(f) for f in cands[:16]]


class ExcludeCountable:
    """Avoid an explicit finite point list, one avoidance step per turn.

    Waits until the ball radius drops to rho0 (when given), then clears one
    listed point per turn at distance > alpha*rho, then holds the center.
    """

    def __init__(self, points: Sequence[Fraction],
                 rho0: Optional[Fraction] = None):
        self.points = [Fraction(p) for p in points]
        self.rho0 = Fraction(rho0) if rho0 is not None else None
        self.done = 0

    def move(self, support, params, transcript) -> Ball:
        prev = transcript.last_ball
        if self.rho0 is not None and prev.radius > self.rho0:
            return _hold(prev, params.alpha)
        if self.done < len(self.points):
            z = self.points[self.done]
            self.done += 1
            ball = avoidance_step(support, prev, params.alpha, [z])
            if abs(z - ball.center) <= 2 * params.alpha * prev.radius:
                raise InvariantViolation("listed point not excluded")
            return ball
        return _hold(prev, params.alpha)

    def danger_preview(self, support, params, transcript) -> List[Fraction]:
        return self.points[self.done:self.done + 16]


class InterleaveStrategy:
    """Round-robin scheduler over disjoint arithmetic turn progressions.

    ``schedule`` lists one (start, step) progression per sub-strategy over
    Alice's 1-based turn indices.  Each sub-strategy sees a synthetic
    transcript of just its own turns, whose radii follow the classical rule
    with the effective parameters (alpha, beta*(alpha*beta)^{step-1}); its
    plans and certificates are stated in those parameters.
    """

    def __init__(self, strategies: Sequence, schedule: Sequence[Tuple[int, int]]):
        if len(strategies) != len(schedule):
            raise ScheduleOverlap("need exactly one progression per strategy")
        for start, step in schedule:
            if start < 1 or step < 1:
                raise ScheduleOverlap("progressions need start, step >= 1")
        # the owners of a turn repeat with period lcm(steps) once every
        # progression has started, so this horizon sees every overlap and gap
        horizon = max(s for s, _ in schedule) + math.lcm(*(d for _, d in schedule))
        for turn in range(1, horizon + 1):
            owners = sum(turn >= s and (turn - s) % d == 0 for s, d in schedule)
            if owners != 1:
                raise ScheduleOverlap("turn %d has %d owners, not 1" % (turn, owners))
        self.strategies = list(strategies)
        self.schedule = list(schedule)
        self.subs: List[Optional[Transcript]] = [None] * len(strategies)
        self.eff: List[Optional[GameParams]] = [None] * len(strategies)

    def _owner(self, turn: int) -> int:
        for i, (start, step) in enumerate(self.schedule):
            if turn >= start and (turn - start) % step == 0:
                return i
        raise ScheduleOverlap("turn %d is not covered" % turn)

    def move(self, support, params, transcript) -> Ball:
        turn = transcript.alice_turn_index
        i = self._owner(turn)
        prev = transcript.last_ball
        if self.subs[i] is None:
            step = self.schedule[i][1]
            beta_eff = params.beta * (params.alpha * params.beta) ** (step - 1)
            self.eff[i] = GameParams(params.alpha, beta_eff, params.variant)
            self.subs[i] = Transcript(params=self.eff[i],
                                      moves=[("bob", prev)])
        else:
            self.subs[i].moves.append(("bob", prev))
        ball = self.strategies[i].move(support, self.eff[i], self.subs[i])
        self.subs[i].moves.append(("alice", ball))
        return ball

    def danger_preview(self, support, params, transcript) -> List[Fraction]:
        out: List[Fraction] = []
        for i, strat in enumerate(self.strategies):
            if self.subs[i] is not None and hasattr(strat, "danger_preview"):
                out.extend(strat.danger_preview(support, self.eff[i], self.subs[i]))
        return out[:32]


# ---------------------------------------------------------------------------
# affine circle maps


def affine_to_sequence(b: int, c: Fraction, y: Fraction,
                       n_max: int) -> LacunarySpec:
    """Reduce orbit avoidance for x -> b*x + c to a lacunary target list.

    Unrolling n steps gives b^n*x + c*(b^n - 1)/(b - 1), so keeping the
    orbit away from y is the same as keeping b^n*x away from
    y_n = y - c*(b^n - 1)/(b - 1) mod 1.
    """
    if Fraction(b).denominator != 1 or b < 2:
        raise SpecError("affine circle maps need an integer factor >= 2")
    if n_max < 1:
        raise SpecError("need at least one target")
    c = Fraction(c)
    y = Fraction(y)
    targets = tuple(_mod1(y - c * (Fraction(b) ** n - 1) / (b - 1))
                    for n in range(1, n_max + 1))
    return LacunarySpec(GeometricTerms(Fraction(b)), ListTargets(targets))
