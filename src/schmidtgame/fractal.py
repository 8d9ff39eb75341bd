"""IFS attractors on the line, self-similar measures, and decay audits.

The support K is the attractor of finitely many contracting similarities
w_i(x) = r_i x + a_i satisfying the open set condition on a declared hull;
the measure splits mass across cylinders by fixed positive weights.  Every
mass query returns exact two-sided rational bounds obtained by classifying
cylinders against the query interval, so audit verdicts are never floats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import SpecError
from .numerics import (Exponent, LogRatio, Ordering, make_exponent,
                       pow_exact, rational_power_of, scaled_pow_cmp)

Interval = Tuple[Fraction, Fraction]

LOCATE_DEPTH = 512  # `locate`'s default cap on the depth of its walk


@dataclass(frozen=True)
class SimilarityMap:
    """w(x) = r x + a with 0 < |r| < 1."""

    r: Fraction
    a: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", Fraction(self.r))
        object.__setattr__(self, "a", Fraction(self.a))
        if not 0 < abs(self.r) < 1:
            raise SpecError(f"similarity ratio {self.r} is not a contraction")

    def apply(self, x):
        return self.r * Fraction(x) + self.a

    def apply_interval(self, lo, hi) -> Interval:
        p, q = self.apply(lo), self.apply(hi)
        return (p, q) if p <= q else (q, p)

    @property
    def fixed_point(self) -> Fraction:
        return self.a / (1 - self.r)


class IFS:
    """Finite system of contracting similarities with cylinder weights."""

    def __init__(self, maps: Sequence[SimilarityMap], weights: Sequence):
        maps = list(maps)
        weights = [Fraction(w) for w in weights]
        if len(maps) < 2:
            raise SpecError("an IFS needs at least two maps")
        if len(weights) != len(maps):
            raise SpecError("one weight per map required")
        if any(w <= 0 for w in weights) or sum(weights) != 1:
            raise SpecError("weights must be positive and sum to 1")
        if len({m.fixed_point for m in maps}) == 1:
            raise SpecError("maps share a fixed point; attractor degenerates")
        self.maps = maps
        self.weights = weights

    def check_open_set_condition(self, hull: Interval):
        """Spot-check: images of the open hull are pairwise disjoint."""
        images = sorted(m.apply_interval(*hull) for m in self.maps)
        for (alo, ahi), (blo, bhi) in zip(images, images[1:]):
            if ahi > blo:  # touching endpoints are fine, overlap is not
                raise SpecError(
                    f"open set condition fails: images [{alo},{ahi}] and [{blo},{bhi}] overlap")


@dataclass(frozen=True)
class Cylinder:
    word: Tuple[int, ...]
    lo: Fraction
    hi: Fraction


def _common_denominator(values: Iterable[Fraction]) -> int:
    return math.lcm(*(v.denominator for v in values))


class _Node:
    """A cylinder met by `FractalSupport._walk`.

    Its word's map is x -> (rho x + alpha) / Q**depth; its interval is
    [lo, hi] / scale.  In a walk from the root its mass is mass / V**depth;
    from a `start`, `mass` counts only the letters below the start's word.
    `word` is the walk's own list, valid until the next node: copy it to
    keep it.
    """

    __slots__ = ("depth", "word", "lo", "hi", "scale", "rho", "alpha",
                 "mass", "descend")

    def __init__(self, depth, word, lo, hi, scale, rho, alpha, mass):
        self.depth, self.word, self.lo, self.hi = depth, word, lo, hi
        self.scale, self.rho, self.alpha, self.mass = scale, rho, alpha, mass
        self.descend = True


class FractalSupport:
    """Attractor K of an IFS, with exact constructive point membership.

    Every point this class hands out is w_word(p0) for the canonical point
    p0 = fixed point of map 0, which is a containment proof by itself.

    The cylinder arithmetic runs on integers: map i is x -> (R_i x + A_i)/Q
    and weight i is W_i/V over common denominators Q and V, and the hull
    ends and p0 are L/H, U/H and P/H.  A word of n letters composes to
    w(x) = (rho x + alpha)/Q**n, so w(v/H) = (rho v + alpha H)/(H Q**n):
    its cylinder ends and its point are integers over H*Q**n, and every
    comparison is a cross-multiplication.  Fractions are built only for
    results.
    """

    def __init__(self, ifs: IFS, hull: Interval):
        lo, hi = Fraction(hull[0]), Fraction(hull[1])
        if lo >= hi:
            raise SpecError("hull must be a nondegenerate closed interval")
        for m in ifs.maps:
            ilo, ihi = m.apply_interval(lo, hi)
            if ilo < lo or ihi > hi:
                raise SpecError("hull is not forward-invariant under the IFS")
        ifs.check_open_set_condition((lo, hi))
        self.ifs = ifs
        self.hull = (lo, hi)
        self.canonical_point = ifs.maps[0].fixed_point
        self.contraction = max(abs(m.r) for m in ifs.maps)
        Q = _common_denominator(v for m in ifs.maps for v in (m.r, m.a))
        V = _common_denominator(ifs.weights)
        H = _common_denominator((lo, hi, self.canonical_point))
        self._Q, self._V, self._H = Q, V, H
        self._maps = [(int(m.r * Q), int(m.a * Q)) for m in ifs.maps]
        self._weights = [int(w * V) for w in ifs.weights]
        self._L, self._U, self._P = (int(v * H) for v in
                                     (lo, hi, self.canonical_point))
        self._last = ((), 1, 0)  # the last word `_affine` folded
        self._located = ()  # the last word `locate` returned

    @property
    def diameter(self) -> Fraction:
        return self.hull[1] - self.hull[0]

    def depth_below(self, bound, strict: bool = False,
                    cap: Optional[int] = None) -> int:
        """Least depth d, at most `cap`, with diameter * contraction**d
        below `bound` (`<` when strict, else `<=`), by integer
        cross-multiplication.  Without a cap `bound` must be positive."""
        bn, bd = Fraction(bound).as_integer_ratio()
        cn, cd = self.contraction.as_integer_ratio()
        size, limit = (self._U - self._L) * bd, bn * self._H
        depth = 0
        while (cap is None or depth < cap) and (
                size >= limit if strict else size > limit):
            depth += 1
            size, limit = size * cn, limit * cd
        return depth

    def _affine(self, word: Sequence[int]) -> Tuple[int, int]:
        """(rho, alpha) of w_word; alpha by Horner's rule, outermost letter
        first, the step that `_walk` takes from a node to its child.

        The fold of the last word is kept: a word that extends it folds
        only its new letters, since Horner's rule continues exactly from a
        prefix's (rho, alpha).  Any other word folds from the root.
        """
        word = tuple(word)
        last, rho, alpha = self._last
        done = len(last)
        if word[:done] != last:
            done, rho, alpha = 0, 1, 0
        Q, maps = self._Q, self._maps
        for i in word[done:]:
            R, A = maps[i]
            rho, alpha = rho * R, rho * A + alpha * Q
        self._last = (word, rho, alpha)
        return rho, alpha

    def point(self, word: Sequence[int]) -> Fraction:
        rho, alpha = self._affine(word)
        return Fraction(rho * self._P + alpha * self._H,
                        self._H * self._Q ** len(word))

    def verify_point(self, x, word: Sequence[int]) -> bool:
        x = Fraction(x)
        rho, alpha = self._affine(word)
        return ((rho * self._P + alpha * self._H) * x.denominator
                == x.numerator * self._H * self._Q ** len(word))

    def _span(self, rho: int, alpha: int) -> Tuple[int, int]:
        """Ends of the hull's image under x -> (rho x + alpha) / Q**n, in
        order, as numerators over H * Q**n."""
        H = self._H
        lo, hi = rho * self._L + alpha * H, rho * self._U + alpha * H
        return (hi, lo) if rho < 0 else (lo, hi)

    def _walk(self, lo: Fraction, hi: Fraction, depth: int, start=None):
        """Preorder walk, children in letter order, over the cylinders of
        depth at most `depth` whose closed interval meets [lo, hi].

        The walk starts at the root, or at `start = (word, rho, alpha)` and
        then covers only that node's subtree.  Yields a `_Node` per
        cylinder.  Its children are walked next unless the consumer clears
        `node.descend` before asking for the next node.  The stack is
        explicit, so depth is not bounded by the interpreter's frame limit.
        """
        Q, H, L, U = self._Q, self._H, self._L, self._U
        maps, weights = self._maps, self._weights
        (ln, ld), (hn, hd) = lo.as_integer_ratio(), hi.as_integer_ratio()
        letters = range(len(maps) - 1, -1, -1)
        word, rho, alpha = start or ((), 1, 0)
        base, word, mass = len(word), list(word), 1
        scales = [H * Q ** base]
        stack = [(base, None, rho, alpha, mass)]
        while stack:
            d, letter, rho, alpha, mass = stack.pop()
            if letter is not None:
                del word[d - 1:]
                word.append(letter)
            if d - base == len(scales):
                scales.append(scales[-1] * Q)
            scale = scales[d - base]
            p, q = rho * L + alpha * H, rho * U + alpha * H
            if rho < 0:
                p, q = q, p
            if q * ld < ln * scale or p * hd > hn * scale:
                continue
            node = _Node(d, word, p, q, scale, rho, alpha, mass)
            yield node
            if node.descend and d < depth:
                for i in letters:
                    R, A = maps[i]
                    stack.append((d + 1, i, rho * R, rho * A + alpha * Q,
                                  mass * weights[i]))

    def _climb(self, word: Tuple[int, ...], lo: Fraction, hi: Fraction,
               depth: int) -> Tuple[int, int, int, int]:
        """(n, rho, alpha, scale) of word[:n], the deepest prefix of `word`
        of depth at most `depth` whose cylinder's open interval holds
        [lo, hi]; the root when there is none.

        Under the open set condition no other cylinder of depth n or less
        meets [lo, hi], so the walk from the root meets word[:0], ...,
        word[:n-1] and then walks word[:n]'s subtree.  Each dropped letter
        undoes one Horner step of `_affine`.
        """
        Q, maps = self._Q, self._maps
        (ln, ld), (hn, hd) = lo.as_integer_ratio(), hi.as_integer_ratio()
        rho, alpha = self._affine(word)
        n, scale = len(word), self._H * Q ** len(word)
        while n:
            p, q = self._span(rho, alpha)
            if n <= depth and p * ld < ln * scale and hn * scale < q * hd:
                break
            n -= 1
            R, A = maps[word[n]]
            rho //= R
            alpha = (alpha - rho * A) // Q
            scale //= Q
        return n, rho, alpha, scale

    def _start_node(self, word: Sequence[int], lo: Fraction, hi: Fraction,
                    depth: int):
        """A `start` for `_walk(lo, hi, depth)`: the deepest node N on the
        address of w_word(p0) (the word, then letter 0 forever, since p0 is
        map 0's fixed point) down to which the walk from the root meets
        one cylinder per depth.  None when w_word(p0) is outside [lo, hi].

        Up: `_climb`.  Down: follow the address while the address child is
        the only child whose closed interval meets [lo, hi], to depth at
        most `depth`; the test is `_walk`'s, mapped into the node's own
        coordinates.
        """
        Q, H, maps = self._Q, self._H, self._maps
        (ln, ld), (hn, hd) = lo.as_integer_ratio(), hi.as_integer_ratio()
        word = tuple(word)
        rho, alpha = self._affine(word)
        point, scale = rho * self._P + alpha * H, H * Q ** len(word)
        if point * ld < ln * scale or point * hd > hn * scale:
            return None
        n, rho, alpha, scale = self._climb(word, lo, hi, depth)
        # Down, in the node's own coordinates x = (Q**n y - alpha) / rho,
        # where its cylinder is the hull, its children's ends are `kids`
        # over H*Q whatever the depth, and [lo, hi] is [a/b, c/d]: each
        # step costs a few products by the maps' small integers.
        kids = [self._span(R, A) for R, A in maps]
        a, b = scale // H * ln - alpha * ld, rho * ld
        c, d = scale // H * hn - alpha * hd, rho * hd
        if rho < 0:
            a, b, c, d = -c, -d, -a, -b
        path = list(word[:n])
        while n < depth:
            here = word[n] if n < len(word) else 0
            aQH, cQH = a * Q * H, c * Q * H
            if any(i != here and q * b >= aQH and p * d <= cQH
                   for i, (p, q) in enumerate(kids)):
                break  # another child meets [lo, hi]: the walk forks here
            R, A = maps[here]
            rho, alpha = rho * R, rho * A + alpha * Q
            a, b, c, d = Q * a - A * b, R * b, Q * c - A * d, R * d
            if R < 0:
                a, b, c, d = -c, -d, -a, -b
            path.append(here)
            n += 1
        return tuple(path), rho, alpha

    def cylinders_meeting(self, lo, hi, depth: int) -> List[Cylinder]:
        """Depth-`depth` cylinders whose closed interval meets [lo, hi]."""
        return [Cylinder(tuple(n.word), Fraction(n.lo, n.scale),
                         Fraction(n.hi, n.scale))
                for n in self._walk(Fraction(lo), Fraction(hi), depth)
                if n.depth == depth]

    def locate(self, x,
               max_depth: int = LOCATE_DEPTH) -> Optional[Tuple[int, ...]]:
        """Find a word proving x in K (x must be a canonical cylinder point):
        the first word, in the preorder walk from the root over depths up
        to `max_depth`, whose point is x; None when there is none.

        The walk resumes from the last word `locate` returned, so a replay
        whose centers' words extend one another walks only the new letters.
        `_climb` takes that word up to U, its deepest prefix of depth at
        most `max_depth` whose open cylinder holds x; the walk from the
        root meets only U's ancestors before it walks U's subtree, exactly
        as the walk started at U does.  An ancestor's point is x only when
        U's is and the ancestor is U less trailing 0-letters, since p0 is
        map 0's fixed point: `_shallowest` returns that ancestor.  So the
        answer, None included, is the walk from the root's.  `max_depth`
        caps the absolute depth, wherever the walk starts.
        """
        x = Fraction(x)
        xn, xd = x.as_integer_ratio()
        P, H = self._P, self._H
        last = self._located
        n, rho, alpha, _ = self._climb(last, x, x, max_depth)
        for node in self._walk(x, x, max_depth, (last[:n], rho, alpha)):
            if (node.rho * P + node.alpha * H) * xd == xn * node.scale:
                self._located = _shallowest(node.word)
                return self._located
        return None


def _shallowest(word: Sequence[int]) -> Tuple[int, ...]:
    """`word` less its trailing 0-letters.  They share its point, since p0
    is map 0's fixed point, and the walk from the root meets the shallowest
    of them first; a walk's first match below its start has no trailing 0,
    for its parent would have matched before it."""
    end = len(word)
    while end and word[end - 1] == 0:
        end -= 1
    return tuple(word[:end])


class FractalMeasure:
    """Self-similar measure of the support's IFS weights."""

    def __init__(self, support: FractalSupport):
        self.support = support

    def interval_mass(self, lo, hi, depth: int) -> Tuple[Fraction, Fraction]:
        """Exact bounds (lower, upper) on mu([lo, hi]).

        A cylinder meeting the query in a single point contributes (0, 0):
        the measure is atomless because every weight is below 1, so the
        point-touch mass is exactly zero.  This is what lets equality-tight
        audits come out exact instead of inconclusive.
        """
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("empty interval")
        (ln, ld), (hn, hd) = lo.as_integer_ratio(), hi.as_integer_ratio()
        V = self.support._V
        lower = upper = 0  # over V**depth
        for n in self.support._walk(lo, hi, depth):
            s = n.scale
            if n.hi * ld == ln * s or n.lo * hd == hn * s:
                n.descend = False  # touches the query in one point
            elif ln * s <= n.lo * ld and n.hi * hd <= hn * s:
                n.descend = False
                mass = n.mass * V ** (depth - n.depth)
                lower += mass
                upper += mass
            elif n.depth == depth:
                upper += n.mass
        total = V ** depth
        return (Fraction(lower, total), Fraction(upper, total))

    def ball_mass(self, center, radius, depth: int) -> Tuple[Fraction, Fraction]:
        center, radius = Fraction(center), Fraction(radius)
        if radius <= 0:
            raise ValueError("radius must be positive")
        return self.interval_mass(center - radius, center + radius, depth)


# ---------------------------------------------------------------------------
# constructive gap search


def _merge_closed(intervals: Iterable[Interval]) -> List[Interval]:
    ivs = sorted((min(a, b), max(a, b)) for a, b in intervals)
    out: List[Interval] = []
    for lo, hi in ivs:
        if out and lo <= out[-1][1]:  # overlap or touch: closed union stays closed
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def find_point_in_gap(support: FractalSupport, inside: Interval,
                      forbidden: Sequence[Interval],
                      max_depth: Optional[int] = None,
                      word: Optional[Sequence[int]] = None,
                      ) -> Optional[Tuple[Fraction, Tuple[int, ...]]]:
    """A point of K inside `inside` and outside every closed forbidden
    interval, as (point, word), or None.

    The search walks the cylinders meeting `inside` in preorder and returns
    the first canonical point that qualifies.  None is returned only after
    descending to cylinders smaller than a quarter of the narrowest
    uncovered gap, which exhausts the canonical candidates; it is a search
    failure, not an emptiness proof.

    `word` is a hint: a word of the IFS whose point lies in `inside`, such
    as the word of the center of the ball being searched.  The walk then
    starts at `FractalSupport._start_node` instead of the root, skipping
    the single path of cylinders above it.  The answer is the same with or
    without the hint; a word whose point is outside `inside` is ignored.
    """
    ilo, ihi = Fraction(inside[0]), Fraction(inside[1])
    if ilo > ihi:
        raise ValueError("empty inside interval")
    merged = _merge_closed(forbidden)

    def covered(x) -> bool:
        return any(flo <= x <= fhi for flo, fhi in merged)

    if ilo == ihi:
        if covered(ilo):
            return None
        word = support.locate(ilo)
        return (ilo, word) if word is not None else None

    # narrowest positive gap left uncovered inside [ilo, ihi]
    gap = None
    cursor = ilo
    for flo, fhi in merged:
        if fhi < ilo:
            continue
        if flo > ihi:
            break
        if flo > cursor:
            piece = flo - cursor
            gap = piece if gap is None else min(gap, piece)
        cursor = max(cursor, fhi)
    if cursor < ihi:
        piece = ihi - cursor
        gap = piece if gap is None else min(gap, piece)
    if gap is None:
        return None  # forbidden covers every point of inside

    if max_depth is None:
        max_depth = support.depth_below(gap / 4, strict=True)

    P, H = support._P, support._H
    (iln, ild), (ihn, ihd) = ilo.as_integer_ratio(), ihi.as_integer_ratio()
    bounds = [(*flo.as_integer_ratio(), *fhi.as_integer_ratio())
              for flo, fhi in merged]
    start = None if word is None else \
        support._start_node(word, ilo, ihi, max_depth)
    for n in support._walk(ilo, ihi, max_depth, start):
        s, clo, chi = n.scale, n.lo, n.hi
        if any(fln * s <= clo * fld and chi * fhd <= fhn * s
               for fln, fld, fhn, fhd in bounds):
            n.descend = False
            continue
        x = n.rho * P + n.alpha * H
        if (iln * s <= x * ild and x * ihd <= ihn * s
                and not any(fln * s <= x * fld and x * fhd <= fhn * s
                            for fln, fld, fhn, fhd in bounds)):
            return (Fraction(x, s), _shallowest(n.word))
    return None


# ---------------------------------------------------------------------------
# decay parameters and conversions


def _exponent_is_positive(e: Exponent) -> bool:
    if isinstance(e, LogRatio):
        return e.sign() > 0
    return Fraction(e) > 0


@dataclass(frozen=True)
class DecayParams:
    """Constants (C, gamma, rho0) of absolute decay:
    mu(B(x,rho) ∩ B(y, eps*rho)) < C eps^gamma mu(B(x,rho)) for rho <= rho0."""

    C: Fraction
    gamma: Exponent
    rho0: Fraction

    def __post_init__(self):
        object.__setattr__(self, "C", Fraction(self.C))
        object.__setattr__(self, "rho0", Fraction(self.rho0))
        if self.C <= 0 or self.rho0 <= 0 or not _exponent_is_positive(self.gamma):
            raise SpecError("decay constants must be positive")


def _doubling_constants(eps0, delta) -> Tuple[Fraction, Fraction]:
    """A federer or efd pair (eps0, delta); only 0 < eps0, delta < 1 gives
    a decay exponent, so the audits refuse the others too."""
    eps0, delta = Fraction(eps0), Fraction(delta)
    if not (0 < eps0 < 1 and 0 < delta < 1):
        raise SpecError("conversion requires 0 < eps0, delta < 1")
    return eps0, delta


def _rational_pow(base: Fraction, e: Exponent) -> Optional[Fraction]:
    """base**e as an exact rational, or None when irrational/undetected."""
    base = Fraction(base)
    if isinstance(e, LogRatio):
        k = rational_power_of(base, e.base)
        if k is None:
            return None
        return pow_exact(e.top, k)
    return pow_exact(base, Fraction(e))


def decay_from_federer_efd(federer, efd, rho0) -> DecayParams:
    """Absolute-decay constants from a federer pair (eps1, delta1) and an
    efd pair (eps2, delta2): C = 3^gamma1 / (delta1 * delta2) with
    gamma_i = log delta_i / log eps_i, gamma = gamma2, rho0' = rho0 / 3."""
    eps1, delta1 = _doubling_constants(*federer)
    eps2, delta2 = _doubling_constants(*efd)
    three = _rational_pow(Fraction(3), make_exponent(delta1, eps1))
    if three is None:
        raise SpecError(
            "3**gamma1 is not rational for these constants; C would be irrational")
    return DecayParams(three / (delta1 * delta2), make_exponent(delta2, eps2),
                       Fraction(rho0) / 3)


def check_alpha(alpha, decay: DecayParams) -> bool:
    """Admissibility of Alice's ratio: (4 alpha)^gamma <= 1/(3C)."""
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        return False
    got = scaled_pow_cmp(Fraction(1) / (3 * decay.C), Fraction(1),
                         4 * alpha, decay.gamma)
    return got in (Ordering.GREATER, Ordering.EQUAL)


_ALPHA_BITS = 12


def max_alpha(decay: DecayParams) -> Fraction:
    """Largest admissible dyadic alpha with denominator 2**_ALPHA_BITS.

    The true threshold (1/4)(1/(3C))^(1/gamma) is usually irrational;
    a dyadic lower approximation keeps every downstream constant rational.
    """
    scale = 1 << _ALPHA_BITS
    lo_num, hi_num = 0, scale - 1
    while lo_num < hi_num:  # binary search on check_alpha, monotone in alpha
        mid = (lo_num + hi_num + 1) // 2
        if check_alpha(Fraction(mid, scale), decay):
            lo_num = mid
        else:
            hi_num = mid - 1
    if lo_num == 0:
        raise SpecError(f"alpha \"max\" finds no admissible multiple of "
                        f"2**-{_ALPHA_BITS}; give a smaller alpha explicitly")
    return Fraction(lo_num, scale)


# ---------------------------------------------------------------------------
# audits


class Verdict(Enum):
    PASS = "pass"
    FAIL = "fail"
    INCONCLUSIVE = "inconclusive"


@dataclass
class AuditRow:
    point: dict
    verdict: Verdict


@dataclass
class AuditOutcome:
    check: str
    params: dict
    verdict: Verdict
    rows: List[AuditRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.verdict is Verdict.PASS


# largest number of x_depth words an audit grid takes: 1,024 words (the
# interval at x_depth 10) take about 10 s of audit
_AUDIT_MAX_WORDS = 1024


@dataclass
class AuditGrid:
    """Finite sampling grid for the decay audits.

    xs: support points (canonical cylinder points, hence exactly in K);
    rhos: radii, aligned to contraction powers so exponent comparisons
    collapse to integer-power arithmetic; eps: scale factors, aligned to
    gamma's base for the same reason; offsets: y = x + offset * rho.
    Pairs (x, rho) with B(x, rho) not inside the hull are skipped: at the
    hull's edge one-sided balls create boundary equalities that the strict
    decay inequality genuinely fails, and the game only ever needs decay
    at interior scales.
    """

    xs: List[Fraction]
    rhos: List[Fraction]
    eps: List[Fraction]
    offsets: List[Fraction]
    depths: Tuple[int, ...] = (6, 9, 12)

    @staticmethod
    def default(support: FractalSupport, rho0, *, x_depth: int = 3,
                rho_count: int = 5,
                depths: Tuple[int, ...] = (6, 9, 12)) -> "AuditGrid":
        rho0 = Fraction(rho0)
        n = len(support.ifs.maps)
        # n >= 2, so any depth past the cap's bit length is over the cap
        if n ** min(x_depth, _AUDIT_MAX_WORDS.bit_length()) > _AUDIT_MAX_WORDS:
            raise SpecError(f"audit x_depth {x_depth} makes {n}**{x_depth} grid "
                            f"words, more than {_AUDIT_MAX_WORDS}")
        words = itertools.product(range(n), repeat=x_depth)
        xs = sorted({support.point(w) for w in words} | {support.canonical_point})
        rhos = []
        rho = support.diameter
        while len(rhos) < rho_count:
            rho *= support.contraction
            if rho <= rho0:
                rhos.append(rho)
        eps = [support.contraction ** j for j in range(1, 4)]
        offsets = [Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-1)]
        return AuditGrid(xs=xs, rhos=rhos, eps=eps, offsets=offsets, depths=depths)

    def points(self, support: FractalSupport):
        """{"x": x, "rho": rho} for each grid pair whose ball is inside the hull."""
        hlo, hhi = support.hull
        for x in self.xs:
            for rho in self.rhos:
                if hlo <= x - rho and x + rho <= hhi:
                    yield {"x": x, "rho": rho}


def _audit(check: str, params: dict, points, depths, decide) -> AuditOutcome:
    """One row per grid point, up to and including the first that does not
    pass.  `decide(depth, **point)` judges a point from mass bounds at one
    depth: a verdict, or None when the bounds are too coarse, and then the
    next depth is tried (INCONCLUSIVE after the last).  The outcome is the
    last row's verdict, so a grid with no points is INCONCLUSIVE."""
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


def check_absolute_decay(measure: FractalMeasure, params: DecayParams,
                         grid: AuditGrid) -> AuditOutcome:
    """Grid audit of mu(B(x,rho) ∩ B(y,eps rho)) < C eps^gamma mu(B(x,rho))."""
    C, gamma = params.C, params.gamma
    points = (dict(p, y=p["x"] + off * p["rho"], eps=eps)
              for p in grid.points(measure.support) if p["rho"] <= params.rho0
              for eps in grid.eps for off in grid.offsets)

    def decide(depth, x, rho, y, eps):
        blo, bhi = measure.ball_mass(x, rho, depth)
        ilo = max(x - rho, y - eps * rho)
        ihi = min(x + rho, y + eps * rho)
        if ilo > ihi:
            clo, chi = Fraction(0), Fraction(0)
        else:
            clo, chi = measure.interval_mass(ilo, ihi, depth)
        if blo > 0 and scaled_pow_cmp(chi, C * blo, eps, gamma) is Ordering.LESS:
            return Verdict.PASS
        if scaled_pow_cmp(clo, C * bhi, eps, gamma) is not Ordering.LESS:
            return Verdict.FAIL
        return None

    return _audit("absolute_decay", {"C": C, "gamma": gamma, "rho0": params.rho0},
                  points, grid.depths, decide)


def check_federer(measure: FractalMeasure, eps0, delta, grid: AuditGrid) -> AuditOutcome:
    """Grid audit of mu(B(x, eps0 rho)) >= delta mu(B(x, rho))."""
    eps0, delta = _doubling_constants(eps0, delta)

    def decide(depth, x, rho):
        slo, shi = measure.ball_mass(x, eps0 * rho, depth)
        blo, bhi = measure.ball_mass(x, rho, depth)
        if slo >= delta * bhi:
            return Verdict.PASS
        if shi < delta * blo:
            return Verdict.FAIL
        return None

    return _audit("federer", {"eps0": eps0, "delta": delta},
                  grid.points(measure.support), grid.depths, decide)


def check_efd(measure: FractalMeasure, eps0, delta, grid: AuditGrid) -> AuditOutcome:
    """Grid audit of mu(B(x, eps0 rho)) <= delta mu(B(x, rho))."""
    eps0, delta = _doubling_constants(eps0, delta)

    def decide(depth, x, rho):
        slo, shi = measure.ball_mass(x, eps0 * rho, depth)
        blo, bhi = measure.ball_mass(x, rho, depth)
        if shi <= delta * blo:
            return Verdict.PASS
        if slo > delta * bhi:
            return Verdict.FAIL
        return None

    return _audit("efd", {"eps0": eps0, "delta": delta},
                  grid.points(measure.support), grid.depths, decide)


def check_power_law(measure: FractalMeasure, k1, k2, gamma: Exponent,
                    grid: AuditGrid) -> AuditOutcome:
    """Grid audit of k1 rho^gamma <= mu(B(x, rho)) <= k2 rho^gamma."""
    k1, k2 = Fraction(k1), Fraction(k2)

    def decide(depth, x, rho):
        blo, bhi = measure.ball_mass(x, rho, depth)
        low_ok = scaled_pow_cmp(blo, k1, rho, gamma) in (Ordering.GREATER, Ordering.EQUAL)
        high_ok = scaled_pow_cmp(bhi, k2, rho, gamma) in (Ordering.LESS, Ordering.EQUAL)
        if low_ok and high_ok:
            return Verdict.PASS
        low_bad = scaled_pow_cmp(bhi, k1, rho, gamma) is Ordering.LESS
        high_bad = scaled_pow_cmp(blo, k2, rho, gamma) is Ordering.GREATER
        if low_bad or high_bad:
            return Verdict.FAIL
        return None

    return _audit("power_law", {"k1": k1, "k2": k2, "gamma": gamma},
                  grid.points(measure.support), grid.depths, decide)


@dataclass
class MeasureAuditReport:
    outcomes: List[AuditOutcome] = field(default_factory=list)
    power_law: Optional[Tuple[Fraction, Fraction, Exponent]] = None
    decay: Optional[DecayParams] = None

    @property
    def all_passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    def csv_rows(self) -> List[List[str]]:
        rows = [["check", "params", "grid_point", "verdict"]]
        for o in self.outcomes:
            params = " ".join(f"{k}={v}" for k, v in o.params.items())
            for r in o.rows:
                point = " ".join(f"{k}={v}" for k, v in r.point.items())
                rows.append([o.check, params, point, r.verdict.value])
        return rows


def audit_measure(measure: FractalMeasure, grid: AuditGrid, *,
                  federer: Optional[Tuple] = None,
                  efd: Optional[Tuple] = None,
                  decay: Optional[DecayParams] = None,
                  power_law: Optional[Tuple] = None) -> MeasureAuditReport:
    """Run the checks whose constants are given: federer and efd
    (eps0, delta), absolute decay, power law (k1, k2, gamma)."""
    report = MeasureAuditReport(power_law=power_law, decay=decay)
    if federer is not None:
        report.outcomes.append(check_federer(measure, *federer, grid))
    if efd is not None:
        report.outcomes.append(check_efd(measure, *efd, grid))
    if decay is not None:
        report.outcomes.append(check_absolute_decay(measure, decay, grid))
    if power_law is not None:
        report.outcomes.append(check_power_law(measure, *power_law, grid))
    return report


# ---------------------------------------------------------------------------
# pointwise dimension


_DIMENSION_DEPTH = 48  # the deepest mass bounds a dimension estimate takes


@dataclass(frozen=True)
class DimensionEstimate:
    rho: Fraction
    value: Optional[Exponent]  # None unless the mass bounds meet above 0


def lower_pointwise_dimension(measure: FractalMeasure, x,
                              rhos: Sequence) -> List[DimensionEstimate]:
    """log mu(B(x,rho)) / log rho at each scheduled rho, as exact bounds."""
    x = Fraction(x)
    sup = measure.support
    if not sup.hull[0] <= x <= sup.hull[1]:
        raise ValueError("x outside the hull")
    out = []
    for rho in rhos:
        rho = Fraction(rho)
        if not 0 < rho < 1:
            raise ValueError("dimension scales need 0 < rho < 1")
        depth = min(sup.depth_below(rho, cap=_DIMENSION_DEPTH) + 2, _DIMENSION_DEPTH)
        mlo, mhi = measure.ball_mass(x, rho, depth)
        value = None
        if mlo == mhi > 0:
            value = make_exponent(mhi, rho) if mhi < 1 else Fraction(0)
        out.append(DimensionEstimate(rho, value))
    return out


# ---------------------------------------------------------------------------
# built-in systems


def cantor_support() -> FractalSupport:
    """Middle-third Cantor set on [0, 1]."""
    ifs = IFS([SimilarityMap(Fraction(1, 3), Fraction(0)),
               SimilarityMap(Fraction(1, 3), Fraction(2, 3))],
              [Fraction(1, 2), Fraction(1, 2)])
    return FractalSupport(ifs, (Fraction(0), Fraction(1)))


def binary_support() -> FractalSupport:
    """[0, 1] as the attractor of the two halving maps; its coin-flip
    measure is Lebesgue measure restricted to [0, 1]."""
    ifs = IFS([SimilarityMap(Fraction(1, 2), Fraction(0)),
               SimilarityMap(Fraction(1, 2), Fraction(1, 2))],
              [Fraction(1, 2), Fraction(1, 2)])
    return FractalSupport(ifs, (Fraction(0), Fraction(1)))
