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
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import (HorizonMismatch, InvariantViolation, NoPointFound,
                     PrecisionCapExceeded, SpecError)
from .fractal import DecayParams, FractalSupport, check_alpha, find_point_in_gap
from .game import Ball, GameParams, Point, _bits, _dist_cmp
from .numerics import (_first_index, fractions_in_interval, json_rationals,
                       log_sign, parse_rational)

__all__ = [
    "BiLipschitzMap", "GeometricTerms", "ListTerms", "ConstTargets",
    "PeriodicTargets", "ListTargets", "LacunarySpec", "orbit_near",
    "orbit_window", "ALPHA_DIAGNOSTIC", "avoidance_step",
    "lacunary_constants", "ba_constants", "ba_band_top", "ClearingStrategy",
    "LacunaryStrategy", "BAStrategy", "ExcludeCountable",
    "InterleaveStrategy", "affine_to_sequence",
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
        # the breakpoints and their images, by continuity from the anchor;
        # the anchor alone for a map with one piece
        refs = [self.anchor]
        for x, slope in zip(self.breakpoints[1:], self.slopes[1:]):
            x0, y0 = refs[-1]
            refs.append((x, y0 + slope * (x - x0)))
        object.__setattr__(self, "_refs", tuple(refs))
        object.__setattr__(self, "lipschitz",
                           max(max(abs(s), 1 / abs(s)) for s in self.slopes))
        object.__setattr__(self, "_identity", self.anchor[0] == self.anchor[1]
                           and all(s == 1 for s in self.slopes))

    def apply(self, x) -> Fraction:
        x = Fraction(x)
        x0, y0, slope = self._piece(x, 0, 1)
        if slope == 1 and x0 == y0:     # the identity on this piece
            return x
        return y0 + slope * (x - x0)

    def inverse(self, y) -> Fraction:
        y = Fraction(y)
        x0, y0, slope = self._piece(y, 1, 1 if self.slopes[0] > 0 else -1)
        if slope == 1 and x0 == y0:
            return y
        return x0 + (y - y0) / slope

    def _piece(self, v: Fraction, axis: int, sign: int):
        """(x0, y0, slope) of the piece holding v on ``axis`` (0: x, 1: y).

        Piece i lies between reference points i-1 and i, so bisecting the
        breakpoints' coordinates, times ``sign`` so that they increase,
        finds it.  It is evaluated from its left reference point, the first
        piece from its right one."""
        i = bisect.bisect_left(self._refs, sign * v, hi=len(self.breakpoints),
                               key=lambda p: sign * p[axis])
        x0, y0 = self._refs[max(i - 1, 0)]
        return x0, y0, self.slopes[i]

    def preimage_ball(self, center: Fraction, reach: Fraction
                      ) -> Tuple[Fraction, Fraction]:
        """The midpoint and half-width of the preimage of [center - reach,
        center + reach], reach >= 0: the ball itself under the identity;
        any other map inverts both ends, which its slopes' sign orders."""
        if self._identity:
            return center, reach
        a, b = self.inverse(center - reach), self.inverse(center + reach)
        if self.slopes[0] < 0:
            a, b = b, a
        return (a + b) / 2, (b - a) / 2

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
            return IDENTITY
        return cls(tuple(json_rationals(data["breakpoints"], "breakpoints")),
                   tuple(json_rationals(data["slopes"], "slopes")),
                   tuple(json_rationals(data["anchor"], "anchor", 2)))


# the map of a spec or a strategy given none
IDENTITY = BiLipschitzMap((), (Fraction(1),), (Fraction(0), Fraction(0)))


# ---------------------------------------------------------------------------
# lacunary sequence specifications


@dataclass(frozen=True)
class GeometricTerms:
    """Terms t_n = scale * base^n, re-indexed so that t_1 > 1."""

    base: Fraction
    scale: Fraction = Fraction(1)
    shift: int = field(init=False, default=0)

    def __post_init__(self):
        if self.base <= 1:
            raise SpecError("geometric base must exceed 1")
        if self.scale <= 0:
            raise SpecError("scale must be positive")
        # tail shift: the least s >= 1 with scale*base^s > 1
        object.__setattr__(self, "shift", _first_index(self._reaches_one) - 1)

    def _reaches_one(self, s: int) -> bool:
        """scale*base^s > 1, from enclosures of the logarithms; an exact
        power only at a tie, scale = base^-s, where they never separate."""
        try:
            return log_sign([(s, [self.base]), (1, [self.scale])]) > 0
        except PrecisionCapExceeded:
            return self.scale * self.base ** s > 1

    @property
    def lacunarity(self) -> Fraction:
        return self.base

    def term(self, n: int) -> Fraction:
        if n < 1:
            raise HorizonMismatch("term index must be >= 1")
        return self.scale * self.base ** (n + self.shift)

    def indices_between(self, lower, upper, start: int = 1,
                        length: int = 0) -> range:
        """Every n with lower <= t_n < upper, searched from ``start``: any
        start up to the first such n gives the same range.  The search for
        the end starts ``length`` terms past the first.  t_n >= x is
        decided on integers, sn*bn^k*xd >= xn*sd*bd^k with k = n + shift."""
        sn, sd = self.scale.numerator, self.scale.denominator
        bn, bd = self.base.numerator, self.base.denominator

        def reaches(x):
            xn, xd = x.numerator, x.denominator
            return lambda n: (sn * bn ** (n + self.shift) * xd
                              >= xn * sd * bd ** (n + self.shift))
        first = _first_index(reaches(lower), start)
        return range(first, _first_index(reaches(upper), first, length))

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

    def indices_between(self, lower, upper, start: int = 1,
                        length: int = 0) -> range:
        """Every n with lower <= t_n < upper, bisected from ``start``: any
        start up to the first such n gives the same range.  A bisection
        needs no ``length`` guess."""
        first = bisect.bisect_left(self.values, lower, start - 1) + 1
        return range(first, bisect.bisect_left(self.values, upper, first - 1) + 1)

    @property
    def horizon(self) -> Optional[int]:
        return len(self.values)

    def to_json(self) -> dict:
        return {"kind": "list", "values": [str(v) for v in self.values],
                "lacunarity": str(self.lacunarity)}


@dataclass(frozen=True)
class ConstTargets:
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value) % 1)

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
        object.__setattr__(self, "values",
                           tuple(Fraction(v) % 1 for v in self.values))

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
        object.__setattr__(self, "values",
                           tuple(Fraction(v) % 1 for v in self.values))

    def target(self, n: int) -> Fraction:
        if not 1 <= n <= len(self.values):
            raise HorizonMismatch("target index beyond the explicit list")
        return self.values[n - 1]

    def to_json(self) -> dict:
        return {"kind": "list", "values": [str(v) for v in self.values]}


TermRule = Union[GeometricTerms, ListTerms]
TargetRule = Union[ConstTargets, PeriodicTargets, ListTargets]


# mantissa bits of orbit_near's bound on t_n*R*D
_BOUND_BITS = 64


def _dyadic_up(num: int, den: int) -> Tuple[int, int]:
    """(m, e) with num/den <= m*2^e and m of about _BOUND_BITS bits, for
    num >= 0 and den > 0."""
    e = num.bit_length() - den.bit_length() - _BOUND_BITS
    if e < 0:
        return -((-num << -e) // den), e
    return -(-num // (den << e)), e


def orbit_near(terms: TermRule, targets: TargetRule, c: Fraction, R: Fraction,
               indices: Iterable[int], reach: Fraction = Fraction(0)
               ) -> Iterator[int]:
    """Each n in ``indices`` whose orbit window t_n*[c - R, c + R] - y_n
    may come within ``reach`` of an integer.  A conservative filter: every
    skipped term's window stays farther than reach from Z, and a kept term
    is for the caller to decide on its exact window, `orbit_window`.

    The test runs on the midpoint c and the half-width R >= 0, as the
    caller hands them: no window end is built.  X/D = frac(t_n*c) lives
    over D = t.den*c.den; for a `GeometricTerms` with an integer base B
    consecutive indices step X -> B*X mod D (the paper's x -> Bx mod 1).
    m*2^e >= t_n*R*D is a short mantissa, times B per step and rounded up
    when renormalised.  With E = D*y.den and S/E = frac(t_n*c - y_n), a
    term is skipped when lo < S < E - lo, lo = ceil(reach*E) +
    floor(m*y.den*2^e): the midpoint then lies farther than reach + t_n*R
    from Z.  A zero distance is never skipped.
    """
    cn, cd = c.numerator, c.denominator
    rn, rd = reach.numerator, reach.denominator
    # R*cd <= mR*2^eR, so t_n*R*D <= t.num*mR*2^eR
    mR, eR = _dyadic_up(R.numerator * cd, R.denominator)
    step = None
    if isinstance(terms, GeometricTerms) and terms.base.denominator == 1:
        step = terms.base.numerator
    prev = D = yd = last_y = None
    for n in indices:
        if step and n - 1 == prev:
            X, m = X * step % D, m * step
        else:
            t = terms.term(n)
            d = t.denominator * cd
            if d != D:
                D, yd, last_y = d, None, None
            X, m, e = t.numerator * cn % D, t.numerator * mR, eR
        if m.bit_length() > 2 * _BOUND_BITS:
            s = m.bit_length() - _BOUND_BITS
            m, e = -(-m >> s), e + s
        prev = n
        y = targets.target(n)
        if y is not last_y:
            if y.denominator != yd:
                yd = y.denominator
                E = D * yd
                near = -(-rn * E // rd)
            last_y, Y = y, y.numerator * D
        # 0 <= X < D and 0 <= y < 1 put S within one E of [0, E)
        S = X * yd - Y
        if S < 0:
            S += E
        # S/E and 1 - S/E exceed (near + m*yd*2^e)/E >= reach + t_n*R
        w = m * yd
        lo = near + (w << e if e >= 0 else w >> -e)
        if lo < S < E - lo:
            continue
        yield n


def orbit_window(t: Fraction, y: Fraction, c: Fraction, R: Fraction
                 ) -> Tuple[int, int, int]:
    """(lo, hi, den): the orbit window t*[c - R, c + R] - y of one kept
    term as integers over one denominator, den = t.den*c.den*R.den*y.den,
    for t > 0 and R >= 0; no window end is built as a `Fraction`."""
    tn, td = t.numerator, t.denominator
    cn, cd = c.numerator, c.denominator
    rn, rd = R.numerator, R.denominator
    yn, yd = y.numerator, y.denominator
    mid = rd * (tn * cn * yd - yn * td * cd)
    half = tn * rn * cd * yd
    return mid - half, mid + half, td * cd * rd * yd


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
        if M > self.terms.lacunarity:
            raise SpecError("lacunarity constant exceeds the terms' ratio bound")
        object.__setattr__(self, "lacunarity", M)

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
            terms = ListTerms(json_rationals(t["values"], "term values"),
                              parse_rational(t.get("lacunarity", "2")))
        else:
            raise SpecError("unknown term rule %r" % t.get("kind"))
        g = data["targets"]
        if g["kind"] == "const":
            targets: TargetRule = ConstTargets(parse_rational(g["value"]))
        elif g["kind"] == "periodic":
            targets = PeriodicTargets(json_rationals(g["values"], "target values"))
        elif g["kind"] == "list":
            targets = ListTargets(json_rationals(g["values"], "target values"))
        else:
            raise SpecError("unknown target rule %r" % g.get("kind"))
        M = parse_rational(data["lacunarity"]) if "lacunarity" in data else None
        return cls(terms, targets, M)


# ---------------------------------------------------------------------------
# schedule constants, shared by the planners and the certificate verifier

ALPHA_DIAGNOSTIC = "alpha exceeds 1/4(1/(3C))^(1/gamma) for this measure"

# the block capacity search gives up beyond this N (M too close to 1)
MAX_BLOCK_CAPACITY = 10 ** 6


def _block_capacity(inv: Fraction, M: Fraction) -> int:
    """Least N >= 1 with inv^r <= M^N for r = bit_length(N).

    Inside one bit-length band r is fixed and M^N grows with N, so the
    condition is monotone there: find the first band whose top satisfies
    it, then bisect the N below that top with exact powers, as
    _first_index does.
    """
    r = 1
    while inv ** r > M ** min(2 ** r - 1, MAX_BLOCK_CAPACITY):
        if 2 ** r > MAX_BLOCK_CAPACITY:
            raise SpecError("no block capacity below 10^6; M too close to 1")
        r += 1
    lo, top = 2 ** (r - 1), min(2 ** r - 1, MAX_BLOCK_CAPACITY)
    bound = inv ** r
    return bisect.bisect_left(range(lo, top), True,
                              key=lambda N: bound <= M ** N) + lo


def lacunary_constants(M: Fraction, L: Fraction, alpha: Fraction,
                       beta: Fraction, rho_prime: Fraction, rho0: Fraction
                       ) -> Tuple[int, int, int, Fraction, Fraction, int]:
    """(N, r, k0, rho, c, start) of the lacunary clearing schedule.

    N is the minimal block capacity with (alpha*beta)^-r <= M^N for its own
    r = floor(log2 N) + 1; k0 is the number of warm-up turns needed to
    shrink the opening radius rho_prime below the plan bound, reaching rho;
    c is the separation the finished blocks certify; block 1 opens at turn
    start = k0 + 2r - 1, 2r - 1 turns after the warm-up.
    """
    ab = alpha * beta
    inv = 1 / ab
    N = _block_capacity(inv, M)
    r = N.bit_length()
    bound = inv ** (r - 1) / L
    # hardened smallness: window inflation must preserve translate
    # spacing, 2*rho*(1 + (alpha*beta)^(r+1)) < bound
    limit = min(rho0, bound / (2 * (1 + ab ** (r + 1))))
    k0 = _first_index(lambda k: rho_prime * ab ** (k - 1) < limit)
    rho = rho_prime * ab ** (k0 - 1)
    c = (rho / L) * ab ** (3 * r)
    return N, r, k0, rho, c, k0 + 2 * r - 1


def ba_constants(L: Fraction, alpha: Fraction, beta: Fraction,
                 rho_prime: Fraction, rho0: Fraction
                 ) -> Tuple[int, Fraction, Fraction, int]:
    """(k0, rho, c, start) of the badly-approximable clearing schedule.

    The warm-up bound rho < (alpha*beta)^2 / (2L(1+alpha)) keeps at most
    one rational of each denominator block inside a clearing window even
    after margin inflation; it implies the basic rho < alpha*beta/(2L).
    The certified constant is c = rho/(beta*L).  Block 1 opens at turn
    start = k0 - 1, on the radius rho / (alpha*beta).
    """
    ab = alpha * beta
    bound = ab ** 2 / (2 * L * (1 + alpha))
    limit = min(bound, rho0)
    k0 = _first_index(lambda k: rho_prime * ab ** (k - 1) < limit, 2)
    rho = rho_prime * ab ** (k0 - 1)
    return k0, rho, rho / (beta * L), k0 - 1


def ba_band_top(ab: Fraction, k: int) -> int:
    """The largest q with q^2 < (alpha*beta)^-k, for k >= 0: the top
    denominator of BA block k, and the last that k cleared blocks certify.
    With alpha*beta = A/B, on integers: isqrt(B**k // A**k) is the floor of
    the root, and it is dropped by one when its square is B**k / A**k."""
    a, b = ab.numerator ** k, ab.denominator ** k
    q = math.isqrt(b // a)
    return q - (q * q * a == b)


# ---------------------------------------------------------------------------
# the avoidance lemma


def avoidance_step(support: FractalSupport, ball: Ball, alpha: Fraction,
                   points: Sequence[Fraction]) -> Tuple[Point, List[Fraction]]:
    """One shrinking move that avoids at least half of ``points``.

    Returns the (center, word) of a ball of radius alpha*rho inside ``ball``
    whose distance to at least ceil(len(points)/2) of the points exceeds
    alpha*rho, and the points it keeps: those still within 2*alpha*rho of that
    center.  If at most half the points sit within 2*alpha*rho of the center,
    keeping it already clears the far ones; otherwise any support point farther
    than 4*alpha*rho from the center and from both endpoints clears the crowd.
    Raises NoPointFound when no such support point exists, which signals that
    alpha is too large for this support's decay constants.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise SpecError("avoidance ratio must lie in (0, 1)")
    x1, rho = ball.center, ball.radius
    an, ad = alpha.numerator, alpha.denominator
    # 2*alpha*rho = reach/den and rho - alpha*rho = room/den, on integers
    den = ad * rho.denominator
    reach, room = 2 * an * rho.numerator, (ad - an) * rho.numerator
    near = [y for y in points if _dist_cmp(y, x1, reach, den) <= 0]
    x2, word = x1, ball.word
    if 2 * len(near) > len(points):
        margin = 4 * alpha * rho
        anchors = (x1 - rho, x1, x1 + rho)
        got = find_point_in_gap(support, (x1 - rho, x1 + rho),
                                [(a - margin, a + margin) for a in anchors],
                                word=ball.word)
        if got is None:
            raise NoPointFound(
                "no support point clears the crowded ball; "
                "alpha is too large for this support")
        x2, word = got
    # exact postconditions: containment and clearing at least half
    if _dist_cmp(x2, x1, room, den) > 0:
        raise InvariantViolation("avoidance move left the ball")
    kept = [y for y in points if _dist_cmp(y, x2, reach, den) <= 0]
    if 2 * len(kept) > len(points):
        raise InvariantViolation("avoidance move cleared fewer than half")
    return (x2, word), kept


# ---------------------------------------------------------------------------
# the clearing schedule


class ClearingStrategy:
    """Alice's clearing schedule, planned from the first ball.

    The plan fixes alpha and beta, the opening radius rho_prime and, by the
    source's ``_constants()``, the certified constant c and the schedule:
    block capacity N, turns per block r, the turn ``start`` that opens
    block 1, its radius ``rho_start`` and the ``spread`` that scales a
    block's radius to its margin.  A source also lists the distinct danger
    points of block k within ``reach`` of ``center``:
    ``_block_points(k, ball, center, reach)``, which ``move`` calls once
    per block, in order, on the ball's center.
    """

    def __init__(self, phi: BiLipschitzMap = IDENTITY,
                 decay: Optional[DecayParams] = None):
        if decay is None:
            raise SpecError("planning needs the measure's decay data")
        self.phi = phi
        self.decay = decay
        self.planned = False
        self.turn = 0
        self.blocks_cleared = 0
        self.danger: List[Fraction] = []
        self.block_points: List[Fraction] = []

    def plan(self, params: GameParams, opening: Ball) -> "ClearingStrategy":
        """Derive the schedule constants.  Raises SpecError when alpha
        fails the decay admissibility bound (4*alpha)^gamma <= 1/(3C)."""
        if not check_alpha(params.alpha, self.decay):
            raise SpecError(ALPHA_DIAGNOSTIC)
        self.alpha, self.beta = params.alpha, params.beta
        self.ab = self.alpha * self.beta
        self.rho_prime = Fraction(opening.radius)
        self._constants()
        self.planned = True
        return self

    def move(self, support: FractalSupport, params: GameParams,
             bob_ball: Ball) -> Point:
        """Hold the center before ``start``.  Block k opens at turn
        start + r(k-1) on radius rho_start*(alpha*beta)^{r(k-1)}, a power
        computed from k, lists its at most N < 2^r danger points within
        margin = spread*radius, and halves the list at each of its r turns,
        leaving every point farther than margin from the final ball."""
        if not self.planned:
            self.plan(params, bob_ball)
        self.turn += 1
        if self.turn < self.start:
            return bob_ball.center, bob_ball.word
        k, step = divmod(self.turn - self.start + self.r, self.r)
        if step == 0:
            expected = self.rho_start * self.ab ** (self.r * (k - 1))
            if bob_ball.radius != expected:
                raise InvariantViolation(
                    "ball radius off schedule at block %d: %s != %s"
                    % (k, _bits(bob_ball.radius), _bits(expected)))
            # inflate by the margin so near-outside points count too: the
            # ball widened by it, kept as a center and a reach
            self.margin = self.spread * expected
            points = self._block_points(k, bob_ball, bob_ball.center,
                                        expected + self.margin)
            if len(points) > self.N:
                raise InvariantViolation(
                    "danger list of block %d exceeds the block capacity N" % k)
            self.danger = self.block_points = points
        (center, word), self.danger = avoidance_step(
            support, bob_ball, self.alpha, self.danger)
        if step == self.r - 1:
            if self.danger:
                raise InvariantViolation(
                    "danger points survived block %d clearing" % k)
            reach = self.alpha * bob_ball.radius + self.margin
            num, den = reach.numerator, reach.denominator
            for z in self.block_points:
                if _dist_cmp(z, center, num, den) < 0:
                    raise InvariantViolation(
                        "cleared point (%s) inside the margin" % _bits(z))
            self.blocks_cleared = k
        return center, word

    def danger_preview(self, ball) -> List[Fraction]:
        return list(self.danger)


# ---------------------------------------------------------------------------
# lacunary orbit avoidance


class LacunaryStrategy(ClearingStrategy):
    """Orbit avoidance: block k's danger points are the translates
    phi((y_n + m)/t_n) of its terms (alpha*beta)^{-r(k-1)} <= t_n <
    (alpha*beta)^{-rk}.  See lacunary_constants; rho is the radius after
    the k0 - 1 warm-up turns, and block 1 opens 2r - 1 turns later."""

    def __init__(self, spec: LacunarySpec, phi: BiLipschitzMap = IDENTITY,
                 decay: Optional[DecayParams] = None):
        super().__init__(phi, decay)
        self.spec = spec
        # (k, n, m): block k holds the m terms below index n, where block
        # k + 1's search starts
        self._resume = (0, 1, 0)

    def _constants(self):
        self.N, self.r, self.k0, self.rho, self.c, self.start = \
            lacunary_constants(self.spec.lacunarity, self.phi.lipschitz,
                               self.alpha, self.beta, self.rho_prime,
                               self.decay.rho0)
        self.rho_start = self.ab ** (2 * self.r - 1) * self.rho
        self.spread = self.ab ** (self.r + 1)

    def index_block(self, k: int) -> List[int]:
        """All n with (alpha*beta)^{-r(k-1)} <= t_n < (alpha*beta)^{-rk},
        both bounds powers computed from k.  Called in order, as the
        schedule calls it, the search starts where block k - 1 ended and
        looks for the end as many terms on; otherwise it starts at index 1
        with no guess of the length."""
        if k < 1:
            raise SpecError("block index must be >= 1")
        done, start, length = self._resume
        if done != k - 1:
            start, length = 1, 0
        inv = 1 / self.ab
        block = self.spec.terms.indices_between(
            inv ** (self.r * (k - 1)), inv ** (self.r * k), start, length)
        self._resume = (k, block.stop, len(block))
        return list(block)

    def _danger_entries(self, k, center, reach):
        """(n, m, z) with z = phi((y_n + m)/t_n) within reach of center, n
        in block k, read off each kept term's integer window."""
        spec, phi = self.spec, self.phi
        c, R = phi.preimage_ball(center, reach)
        entries = []
        for n in orbit_near(spec.terms, spec.targets, c, R,
                            self.index_block(k)):
            t, y = spec.terms.term(n), spec.targets.target(n)
            lo, hi, den = orbit_window(t, y, c, R)
            for m in range(-(-lo // den), hi // den + 1):
                entries.append((n, m, phi.apply((y + m) / t)))
        return entries

    def _block_points(self, k, ball, center, reach) -> List[Fraction]:
        # premise: the ball is smaller than the translate spacing of block
        # k, (alpha*beta)^{rk} / L
        if not 2 * ball.radius < self.ab ** (self.r * k) / self.phi.lipschitz:
            raise InvariantViolation("block %d ball exceeds translate spacing" % k)
        entries = self._danger_entries(k, center, reach)
        seen = {}
        for n, m, z in entries:
            if seen.setdefault(n, m) != m:
                raise InvariantViolation(
                    "two translates of term %d in one clearing window" % n)
        return sorted({z for _, _, z in entries})


# ---------------------------------------------------------------------------
# badly approximable numbers


class BAStrategy(ClearingStrategy):
    """Badly approximable numbers: block k's danger points are the
    phi-images of the reduced p/q with R^{k-1} <= q < R^k, R =
    (alpha*beta)^{-1/2}.  One turn clears the at most one in the window
    (r = N = 1), giving |phi^-1(x) - p/q| > c/q^2 on the final ball; see
    ba_constants.  Ranges compare q^2 with powers of alpha*beta, so R
    never needs surd arithmetic."""

    def _constants(self):
        self.k0, self.rho, self.c, self.start = ba_constants(
            self.phi.lipschitz, self.alpha, self.beta, self.rho_prime,
            self.decay.rho0)
        self.N = self.r = 1
        self.rho_start = self.rho / self.ab
        self.spread = self.alpha

    def _block_points(self, k, ball, center, reach) -> List[Fraction]:
        """phi(p/q) for the reduced p/q with R^{k-1} <= q < R^k and phi(p/q)
        within reach of center.  The Farey search runs on the preimage
        window c -+ h, c = cn/cd and h = hn/hd, as integers over one
        denominator, cn*hd -+ hn*cd over cd*hd: no window end is built."""
        (cn, cd), (hn, hd) = (x.as_integer_ratio()
                              for x in self.phi.preimage_ball(center, reach))
        below = ba_band_top(self.ab, k - 1)  # q > below iff q^2 >= R^(2k-2)
        return [self.phi.apply(f) for f in fractions_in_interval(
            cn * hd - hn * cd, cn * hd + hn * cd, ba_band_top(self.ab, k),
            cd * hd) if f.denominator > below]

    def danger_preview(self, ball) -> List[Fraction]:
        """The block's rationals nearest the center, mapped by phi: windows
        about the center, from (alpha*beta)^k ~ 1/qmax^2 doubling up to the
        whole ball, until one holds a candidate.

        The preview looks at block blocks_cleared + 1, at most 12, a
        bound on cost: past block 11 the schedule has already cleared block
        12 out of the ball, so the preview is almost always empty and greedy
        Bob keeps the center.  Previewing the next block uncapped hands him
        a live target nearly every turn, and each costs a gap search from
        the IFS root: 400-round greedy-Bob plays of the bundled BA spec took
        8.8 s instead of 1.5 s (130 gap searches instead of 12), the triple
        23.1 s instead of 1.0 s (2-core Xeon, Python 3.11).
        """
        if not self.planned:
            return []
        k = min(self.blocks_cleared + 1, 12)
        w = self.ab ** k
        while True:
            points = self._block_points(k, ball, ball.center,
                                        min(w, ball.radius))
            if points or w >= ball.radius:
                return points[:16]
            w *= 2


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

    def move(self, support, params, prev) -> Point:
        if self.rho0 is not None and prev.radius > self.rho0:
            return prev.center, prev.word
        if self.done < len(self.points):
            z = self.points[self.done]
            self.done += 1
            return avoidance_step(support, prev, params.alpha, [z])[0]
        return prev.center, prev.word

    def danger_preview(self, ball) -> List[Fraction]:
        return self.points[self.done:self.done + 16]


class InterleaveStrategy:
    """Round-robin scheduler over disjoint arithmetic turn progressions.

    ``schedule`` lists one (start, step) progression per sub-strategy over
    Alice's 1-based turn indices.  Each sub-strategy sees only the balls of
    its own turns, whose radii follow the classical rule with the effective
    parameters (alpha, beta*(alpha*beta)^{step-1}), built once per part
    when the game's params arrive; its plans and certificates are stated
    in those parameters.  It keeps no balls:
    danger_preview(ball) asks every part about `ball`, the ball Bob is
    answering, and returns the first 32 points.
    """

    def __init__(self, strategies: Sequence, schedule: Sequence[Tuple[int, int]]):
        if len(strategies) != len(schedule):
            raise SpecError("need exactly one progression per strategy")
        for start, step in schedule:
            if start < 1 or step < 1:
                raise SpecError("progressions need start, step >= 1")
        # two progressions share a turn, and then infinitely many, exactly
        # when their starts agree modulo the gcd of their steps
        for i, (s, d) in enumerate(schedule):
            for j, (t, e) in enumerate(schedule[:i]):
                if (s - t) % gcd(d, e) == 0:
                    raise SpecError(
                        "progressions %d and %d meet: their common turns have "
                        "2 owners" % (j + 1, i + 1))
        # disjoint residue classes cover every integer once exactly when
        # their densities 1/d sum to 1, and a progression then owns all of
        # its class's turns when it starts on the first, s <= d
        for s, d in schedule:
            if s > d:
                raise SpecError("turn %d has 0 owners, not 1" % (s - d))
        if sum(Fraction(1, d) for _, d in schedule) != 1:
            raise SpecError("the steps' densities sum below 1: some "
                            "turns have 0 owners")
        self.strategies = list(strategies)
        self.schedule = list(schedule)
        self.turn = 0
        self.params: Optional[GameParams] = None
        self.effective: List[GameParams] = []

    def move(self, support, params, ball) -> Point:
        self.turn += 1
        # the constructor checked that exactly one progression holds each turn
        i = next(i for i, (s, d) in enumerate(self.schedule)
                 if self.turn >= s and (self.turn - s) % d == 0)
        if params is not self.params:
            ab = params.alpha * params.beta
            self.params, self.effective = params, [
                GameParams(params.alpha, params.beta * ab ** (step - 1))
                for _, step in self.schedule]
        return self.strategies[i].move(support, self.effective[i], ball)

    def danger_preview(self, ball) -> List[Fraction]:
        return [z for strat in self.strategies
                for z in strat.danger_preview(ball)][:32]


# ---------------------------------------------------------------------------
# affine circle maps

# a certificate writes every term b^n in decimal, and Python's str() of an
# int refuses more than 4,300 digits
AFFINE_MAX_DIGITS = 4300


def affine_to_sequence(b: int, c: Fraction, y: Fraction,
                       n_max: int) -> LacunarySpec:
    """Reduce orbit avoidance for x -> b*x + c to a lacunary target list.

    Unrolling n steps gives b^n*x + c*(b^n - 1)/(b - 1), so keeping the
    orbit away from y is the same as keeping b^n*x away from
    y_n = y - c*(b^n - 1)/(b - 1) mod 1.  The terms b^n stop at n_max
    with the targets, so no block asks for a target past the list.
    """
    b, c, y = Fraction(b), Fraction(c), Fraction(y)
    if b.denominator != 1 or b < 2:
        raise SpecError("affine circle maps need an integer factor >= 2")
    if n_max < 1:
        raise SpecError("need at least one target")
    # b >= 2, so any exponent past 4 * AFFINE_MAX_DIGITS is too large
    if b ** min(n_max, 4 * AFFINE_MAX_DIGITS) >= 10 ** AFFINE_MAX_DIGITS:
        raise SpecError("n_max %d makes the term %s^%d longer than %d digits"
                        % (n_max, b, n_max, AFFINE_MAX_DIGITS))
    terms = tuple(b ** n for n in range(1, n_max + 1))
    targets = tuple((y - c * (t - 1) / (b - 1)) % 1 for t in terms)
    return LacunarySpec(ListTerms(terms, b), ListTargets(targets))
