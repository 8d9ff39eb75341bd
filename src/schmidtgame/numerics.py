"""Exact scalars, certified interval arithmetic, and circle-distance primitives.

All game quantities are python Fractions.  Irrational quantities show up in
one place only: logarithmic exponents such as log 2/log 3, kept symbolically
as LogRatio and compared through integer-power arithmetic or refinable
dyadic enclosures of their logarithms.  No float ever decides a comparison:
when an enclosure cannot separate two values within the precision budget,
PrecisionCapExceeded is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Tuple, Union

from .errors import PrecisionCapExceeded

# refinement budget: the domain's comparisons separate at tens of bits,
# so hitting this cap signals a genuine tie (or a misuse), not bad luck
DEFAULT_MAX_BITS = 1024
_START_BITS = 32


class Ordering(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1
    UNDECIDED = 2


def ordering_of(a: Fraction, b: Fraction) -> Ordering:
    if a < b:
        return Ordering.LESS
    if a > b:
        return Ordering.GREATER
    return Ordering.EQUAL


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or a plain integer string) into a Fraction.

    Fraction() already rejects zero denominators and junk; we only
    normalize whitespace and keep the error type uniform.  Anything but a
    string is rejected too, so a JSON float never becomes a rational.
    """
    if not isinstance(text, str):
        raise ValueError(f"not a rational: {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rational(q) -> str:
    return str(Fraction(q))


# ---------------------------------------------------------------------------
# dyadic rounding and logarithm enclosures


def _dyadic_floor(x: Fraction, bits: int) -> Fraction:
    return Fraction((x.numerator << bits) // x.denominator, 1 << bits)


def _dyadic_ceil(x: Fraction, bits: int) -> Fraction:
    return Fraction(-(((-x.numerator) << bits) // x.denominator), 1 << bits)


def _atanh_partial(z: Fraction, nterms: int) -> Fraction:
    z2 = z * z
    term = z
    total = Fraction(0)
    for j in range(nterms):
        total += term / (2 * j + 1)
        term *= z2
    return total


def _atanh_bounds(z: Fraction, bits: int) -> Tuple[Fraction, Fraction]:
    """Enclosure of atanh(z) for 0 <= z <= 1/2 with width below 2**-bits."""
    if z < 0 or 2 * z > 1:
        raise ValueError("atanh enclosure requires 0 <= z <= 1/2")
    if z == 0:
        return Fraction(0), Fraction(0)
    prec = bits + 8
    zl = _dyadic_floor(z, prec)
    zh = _dyadic_ceil(z, prec)
    # series tail after K terms is below zh^(2K+1) / ((2K+1)(1 - zh^2))
    cap = Fraction(1, 1 << (bits + 4))
    zf = float(zh)
    lz = -math.log2(zf) if zf > 0 else float(prec)
    nterms = max(2, int((bits + 6) / (2 * max(0.9, lz))) + 1)
    while True:
        tail = zh ** (2 * nterms + 1) / ((2 * nterms + 1) * (1 - zh * zh))
        if tail <= cap:
            break
        nterms += max(1, nterms // 4)
    lo = _atanh_partial(zl, nterms)
    hi = _atanh_partial(zh, nterms) + tail
    return _dyadic_floor(lo, bits + 4), _dyadic_ceil(hi, bits + 4)


_LN2_CACHE: dict = {}


def _ln2_bounds(bits: int) -> Tuple[Fraction, Fraction]:
    got = _LN2_CACHE.get(bits)
    if got is None:
        # ln 2 = 2 atanh(1/3)
        al, ah = _atanh_bounds(Fraction(1, 3), bits + 2)
        got = _LN2_CACHE.setdefault(bits, (2 * al, 2 * ah))
    return got


def ln_bounds(x, bits: int) -> Tuple[Fraction, Fraction]:
    """Dyadic enclosure of ln(x) for rational x > 0; width below 2**-bits."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("ln requires a positive argument")
    if x == 1:
        return Fraction(0), Fraction(0)
    if x < 1:
        lo, hi = ln_bounds(1 / x, bits)
        return -hi, -lo
    e = x.numerator.bit_length() - x.denominator.bit_length()
    m = x / Fraction(2) ** e
    if m < 1:
        e -= 1
        m = 2 * m
    # now x = 2^e * m with m in [1, 2)
    guard = max(8, e.bit_length() + 4)
    al, ah = _atanh_bounds((m - 1) / (m + 1), bits + guard)
    lo, hi = 2 * al, 2 * ah
    if e:
        l2l, l2h = _ln2_bounds(bits + guard)
        if e > 0:
            lo, hi = lo + e * l2l, hi + e * l2h
        else:
            lo, hi = lo + e * l2h, hi + e * l2l
    return _dyadic_floor(lo, bits + 2), _dyadic_ceil(hi, bits + 2)


# ---------------------------------------------------------------------------
# interval scalars

Source = Callable[[int], Tuple[Fraction, Fraction]]


@dataclass(frozen=True)
class IntervalScalar:
    """Closed rational enclosure [lo, hi] of a real number.

    `source`, when present, recomputes the enclosure at a requested bit
    precision; derived intervals compose sources so that refinement
    propagates through arithmetic.
    """

    lo: Fraction
    hi: Fraction
    bits: int = 0
    source: Optional[Source] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @staticmethod
    def from_rational(q) -> "IntervalScalar":
        q = Fraction(q)
        return IntervalScalar(q, q)

    @staticmethod
    def from_ln(x, bits: int = _START_BITS) -> "IntervalScalar":
        x = Fraction(x)
        return IntervalScalar(*ln_bounds(x, bits), bits=bits,
                              source=lambda b: ln_bounds(x, b))

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def refine(self, bits: int) -> "IntervalScalar":
        if self.source is None or bits <= self.bits:
            return self
        lo, hi = self.source(bits)
        return IntervalScalar(lo, hi, bits, self.source)

    # -- arithmetic (endpoint formulas, sources composed) --

    def _binary(self, other, f) -> "IntervalScalar":
        other = as_interval(other)

        def rng(b: int) -> Tuple[Fraction, Fraction]:
            return f(self.refine(b), other.refine(b))

        src = rng if (self.source or other.source) else None
        lo, hi = f(self, other)
        return IntervalScalar(lo, hi, min(self.bits, other.bits), src)

    def __add__(self, other):
        return self._binary(other, lambda a, b: (a.lo + b.lo, a.hi + b.hi))

    def __mul__(self, other):
        def f(a, b):
            ps = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
            return min(ps), max(ps)

        return self._binary(other, f)

    def __truediv__(self, other):
        other = as_interval(other)

        def f(a, b):
            if b.lo <= 0 <= b.hi:
                raise ZeroDivisionError("divisor interval contains zero")
            qs = (a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi)
            return min(qs), max(qs)

        def rng(bits: int) -> Tuple[Fraction, Fraction]:
            den = other.refine(bits)
            extra = bits
            while den.lo <= 0 <= den.hi and den.source and extra < DEFAULT_MAX_BITS * 4:
                extra *= 2
                den = den.refine(extra)
            return f(self.refine(bits), den)

        src = rng if (self.source or other.source) else None
        lo, hi = rng(max(self.bits, other.bits, _START_BITS)) if src else f(self, other)
        return IntervalScalar(lo, hi, min(self.bits, other.bits), src)

    def compare(self, other) -> Ordering:
        """One-shot comparison at current precision; UNDECIDED on overlap."""
        other = as_interval(other)
        if self.hi < other.lo:
            return Ordering.LESS
        if other.hi < self.lo:
            return Ordering.GREATER
        if self.is_point and other.is_point:
            return Ordering.EQUAL
        return Ordering.UNDECIDED


def as_interval(value) -> IntervalScalar:
    if isinstance(value, IntervalScalar):
        return value
    return IntervalScalar.from_rational(value)


def decide(a, b, max_bits: int = DEFAULT_MAX_BITS) -> Ordering:
    """Compare with refinement: never returns UNDECIDED.

    Raises PrecisionCapExceeded when the enclosures still overlap at
    max_bits.  Exact equality is only reported for point intervals; a
    genuine tie between non-degenerate enclosures is indistinguishable
    from a too-coarse precision and ends up here as the error.
    """
    a, b = as_interval(a), as_interval(b)
    bits = max(_START_BITS, a.bits, b.bits)
    while True:
        got = a.compare(b)
        if got is not Ordering.UNDECIDED:
            return got
        if bits >= max_bits or (a.source is None and b.source is None):
            raise PrecisionCapExceeded(
                f"cannot order [{a.lo}, {a.hi}] against [{b.lo}, {b.hi}] within {max_bits} bits")
        bits = min(2 * bits, max_bits)
        a, b = a.refine(bits), b.refine(bits)


# ---------------------------------------------------------------------------
# exact powers and multiplicative dependence


def _iroot(k: int, n: int) -> int:
    """Floor of the n-th root of k >= 0."""
    if k < 0 or n < 1:
        raise ValueError
    if n == 1 or k in (0, 1):
        return k
    x = 1 << ((k.bit_length() - 1) // n + 1)
    while True:
        y = ((n - 1) * x + k // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def _iroot_exact(k: int, n: int) -> Optional[int]:
    r = _iroot(k, n)
    return r if r ** n == k else None


def pow_exact(base: Fraction, exponent: Fraction) -> Optional[Fraction]:
    """base**exponent when the result is rational, else None.  base > 0."""
    base = Fraction(base)
    if base <= 0:
        raise ValueError("pow_exact requires a positive base")
    m, n = exponent.numerator, exponent.denominator
    rn = _iroot_exact(base.numerator, n)
    rd = _iroot_exact(base.denominator, n)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd) ** m


def _log_float(x: Fraction) -> float:
    # math.log on the integer parts keeps this safe for huge rationals
    return math.log(x.numerator) - math.log(x.denominator)


def rational_power_of(x, base, max_den: int = 64) -> Optional[Fraction]:
    """Exponent e with x == base**e, as a Fraction, or None.

    Detection is heuristic-then-exact: a float estimate proposes e with
    denominator <= max_den, and only an exact integer-power identity
    accepts it.  A missed dependence degrades to symbolic handling
    downstream, never to a wrong answer.
    """
    x, base = Fraction(x), Fraction(base)
    if x <= 0 or base <= 0 or base == 1:
        raise ValueError("rational_power_of requires x > 0 and base > 0, base != 1")
    if x == 1:
        return Fraction(0)
    cand = Fraction(_log_float(x) / _log_float(base)).limit_denominator(max_den)
    if cand == 0:
        return None
    m, n = cand.numerator, cand.denominator
    # keep the exact verification below a few million bits
    if n * abs(_log_float(x)) > 3e6 or abs(m) * abs(_log_float(base)) > 3e6:
        return None
    xn, xd = x.numerator, x.denominator
    bn, bd = base.numerator, base.denominator
    if m >= 0:
        ok = xn ** n * bd ** m == xd ** n * bn ** m
    else:
        ok = xn ** n * bn ** (-m) == xd ** n * bd ** (-m)
    return cand if ok else None


def _power_index(x: Fraction) -> Tuple[Fraction, int]:
    """Largest k with x = root**k for rational root; returns (root, k)."""
    n, d = x.numerator, x.denominator
    if x == 1 or n <= 0:
        return x, 1
    lead = d if n == 1 else n
    for k in range(lead.bit_length(), 1, -1):
        rn = _iroot_exact(n, k)
        rd = _iroot_exact(d, k)
        if rn is not None and rd is not None:
            return Fraction(rn, rd), k
    return x, 1


@dataclass(frozen=True)
class LogRatio:
    """The real number log(top)/log(base), kept symbolically.

    Canonical form: base > 1 (flip both arguments if needed) and the pair
    reduced by any common perfect-power index, so that e.g. log 4/log 9
    and log 2/log 3 compare structurally equal.
    """

    top: Fraction
    base: Fraction

    def __post_init__(self):
        top, base = Fraction(self.top), Fraction(self.base)
        if top <= 0 or base <= 0 or base == 1:
            raise ValueError("LogRatio requires top > 0 and base > 0, base != 1")
        if base < 1:
            top, base = 1 / top, 1 / base
        if top != 1:
            (rt, kt), (rb, kb) = _power_index(top), _power_index(base)
            g = math.gcd(kt, kb)
            if g > 1:
                top = rt ** (kt // g)
                base = rb ** (kb // g)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "base", base)

    def as_fraction(self) -> Optional[Fraction]:
        if self.top == 1:
            return Fraction(0)
        return rational_power_of(self.top, self.base)

    def sign(self) -> int:
        # base > 1, so the sign is the sign of ln(top)
        return -1 if self.top < 1 else (0 if self.top == 1 else 1)

    def interval(self, bits: int = _START_BITS) -> IntervalScalar:
        return IntervalScalar.from_ln(self.top, bits) / IntervalScalar.from_ln(self.base, bits)

    def __float__(self) -> float:
        return _log_float(self.top) / _log_float(self.base)

    def __repr__(self) -> str:
        return f"log({self.top})/log({self.base})"


Exponent = Union[Fraction, LogRatio]


def make_exponent(top, base) -> Exponent:
    """log(top)/log(base) as a Fraction when the pair is multiplicatively
    dependent, else a canonical LogRatio."""
    lr = LogRatio(Fraction(top), Fraction(base))
    r = lr.as_fraction()
    return r if r is not None else lr


def invert_exponent(e: Exponent) -> Exponent:
    if isinstance(e, LogRatio):
        return make_exponent(e.base, e.top)
    e = Fraction(e)
    if e == 0:
        raise ZeroDivisionError("cannot invert a zero exponent")
    return 1 / e


def exponent_interval(e: Exponent, bits: int = _START_BITS) -> IntervalScalar:
    if isinstance(e, LogRatio):
        return e.interval(bits)
    return IntervalScalar.from_rational(e)


def exponent_cmp(a: Exponent, b: Exponent, max_bits: int = DEFAULT_MAX_BITS) -> Ordering:
    """Order two exponents; exact on every multiplicatively dependent pair."""
    if not isinstance(a, LogRatio) and not isinstance(b, LogRatio):
        return ordering_of(Fraction(a), Fraction(b))
    if isinstance(a, LogRatio):
        ra = a.as_fraction()
        if ra is not None:
            return exponent_cmp(ra, b, max_bits)
    if isinstance(b, LogRatio):
        rb = b.as_fraction()
        if rb is not None:
            return exponent_cmp(a, rb, max_bits)
    if isinstance(a, LogRatio) and isinstance(b, LogRatio):
        if a == b:
            return Ordering.EQUAL
        # scaled dependence: b = (s/t) a when b.top = a.top^s, b.base = a.base^t
        if a.top != 1 and b.top != 1:
            s = rational_power_of(b.top, a.top)
            t = rational_power_of(b.base, a.base)
            if s is not None and t is not None and t != 0:
                k = s / t
                diff_sign = (1 if k > 1 else (0 if k == 1 else -1)) * a.sign()
                if diff_sign > 0:
                    return Ordering.LESS
                if diff_sign < 0:
                    return Ordering.GREATER
                return Ordering.EQUAL
    return decide(exponent_interval(a), exponent_interval(b), max_bits)


def scaled_pow_cmp(lhs, coeff, eps, gamma: Exponent,
                   max_bits: int = DEFAULT_MAX_BITS) -> Ordering:
    """Order lhs against coeff * eps**gamma.

    lhs >= 0, coeff > 0, eps > 0 rationals.  Exact whenever gamma is
    rational or eps is a rational power of gamma's base (the audit grids
    arrange the latter); otherwise certified interval logs with a
    refinement cap.
    """
    lhs, coeff, eps = Fraction(lhs), Fraction(coeff), Fraction(eps)
    if lhs < 0 or coeff <= 0 or eps <= 0:
        raise ValueError("scaled_pow_cmp needs lhs >= 0, coeff > 0, eps > 0")
    if lhs == 0:
        return Ordering.LESS
    if not isinstance(gamma, LogRatio):
        g = Fraction(gamma)
        m, n = g.numerator, g.denominator
        return ordering_of(lhs ** n, coeff ** n * eps ** m)
    e = rational_power_of(eps, gamma.base)
    if e is not None:
        # eps**gamma collapses: (base**e)**(log top/log base) = top**e
        m, n = e.numerator, e.denominator
        return ordering_of(lhs ** n, coeff ** n * gamma.top ** m)
    r = gamma.as_fraction()
    if r is not None:
        return scaled_pow_cmp(lhs, coeff, eps, r, max_bits)
    if eps == 1:
        return ordering_of(lhs, coeff)
    # ln lhs  vs  ln coeff + gamma ln eps, cleared of the denominator ln base > 0
    lnb = IntervalScalar.from_ln(gamma.base)
    left = IntervalScalar.from_ln(lhs) * lnb
    right = IntervalScalar.from_ln(coeff) * lnb + \
        IntervalScalar.from_ln(gamma.top) * IntervalScalar.from_ln(eps)
    return decide(left, right, max_bits)


def floor_sqrt(x) -> int:
    """Largest integer q with q*q <= x, for rational x >= 0."""
    x = Fraction(x)
    if x < 0:
        raise ValueError
    return math.isqrt(x.numerator * x.denominator) // x.denominator


# ---------------------------------------------------------------------------
# circle distance


def circle_dist_range(lo, hi, y) -> Tuple[Fraction, Fraction]:
    """Exact range of the circle distance d(pi(u), y) over u in [lo, hi]."""
    lo, hi, y = Fraction(lo), Fraction(hi), Fraction(y) % 1
    if lo > hi:
        raise ValueError("empty range")
    if hi - lo >= 1:
        return Fraction(0), Fraction(1, 2)
    s = (lo - y) % 1
    e = s + (hi - lo)  # [s, e] inside [0, 2)
    ds = min(s, 1 - s)
    de = min(e % 1, 1 - e % 1) if e != 2 else Fraction(0)
    has_int = s == 0 or e >= 1
    has_half = s <= Fraction(1, 2) <= e or s <= Fraction(3, 2) <= e
    dmin = Fraction(0) if has_int else min(ds, de)
    dmax = Fraction(1, 2) if has_half else max(ds, de)
    return dmin, dmax


def circle_dist(u, y) -> Fraction:
    """Distance on R/Z from pi(u) to y."""
    t = (Fraction(u) - Fraction(y)) % 1
    return min(t, 1 - t)


# ---------------------------------------------------------------------------
# Stern-Brocot / Farey machinery (used by the badly-approximable verifier)


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def simplest_between(lo, hi) -> Fraction:
    """The unique fraction of smallest denominator in the closed interval."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if lo == hi:
        return lo
    if hi < 0:
        return -simplest_between(-hi, -lo)
    if lo <= 0:
        return Fraction(0)
    terms = []
    while True:
        n = _ceil_frac(lo)
        if n <= hi:
            terms.append(n)
            break
        a = lo.numerator // lo.denominator  # = floor(hi), no integer inside
        terms.append(a)
        lo, hi = 1 / (hi - a), 1 / (lo - a)
    val = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        val = a + 1 / val
    return val


def farey_right(f, qmax: int) -> Fraction:
    """Immediate right neighbor of f among fractions with denominator <= qmax."""
    f = Fraction(f)
    p, q = f.numerator, f.denominator
    if q > qmax or qmax < 1:
        raise ValueError("denominator exceeds the Farey order")
    if q == 1:
        return Fraction(p * qmax + 1, qmax)
    d0 = (-pow(p, -1, q)) % q
    d = d0 + ((qmax - d0) // q) * q
    return Fraction((1 + p * d) // q, d)


def farey_left(f, qmax: int) -> Fraction:
    f = Fraction(f)
    p, q = f.numerator, f.denominator
    if q > qmax or qmax < 1:
        raise ValueError("denominator exceeds the Farey order")
    if q == 1:
        return Fraction(p * qmax - 1, qmax)
    d0 = pow(p, -1, q) % q
    d = d0 + ((qmax - d0) // q) * q
    return Fraction((p * d - 1) // q, d)


def fractions_in_interval(lo, hi, qmax: int) -> list:
    """All reduced fractions with denominator <= qmax in [lo, hi], sorted.

    Walks Farey neighbors outward from the simplest fraction, so the cost
    is proportional to the number of fractions found, not to qmax.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if qmax < 1 or lo > hi:
        return []
    mid = simplest_between(lo, hi)
    if mid.denominator > qmax:
        return []
    out = [mid]
    f = mid
    while True:
        f = farey_right(f, qmax)
        if f > hi:
            break
        out.append(f)
    f = mid
    while True:
        f = farey_left(f, qmax)
        if f < lo:
            break
        out.append(f)
    out.sort()
    return out
