"""Exact scalars, certified logarithm comparisons, and circle-distance primitives.

All game quantities are python Fractions.  Irrational quantities show up in
one place only: logarithmic exponents such as log 2/log 3, kept symbolically
as LogRatio.  Whether log x/log b is rational is decided once, exactly, from
integer roots (rational_power_of); make_exponent returns a rational ratio as
a Fraction, so a LogRatio is always irrational.  Two LogRatios of equal
value share one canonical form; every other comparison goes to log_sign,
which orders a sum of products of logarithms against 0 on dyadic enclosures
refined by doubling precision.  No float appears anywhere: an enclosure
that cannot exclude 0 within the precision budget raises
PrecisionCapExceeded rather than guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Tuple, Union

from .errors import PrecisionCapExceeded, SpecError

# refinement budget: the domain's comparisons separate at tens of bits,
# so hitting this cap signals a genuine tie (or a misuse), not bad luck
DEFAULT_MAX_BITS = 1024
_START_BITS = 32


class Ordering(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


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


def json_int(value, what: str) -> int:
    """`value` if it is an int: a float, bool or string fails closed."""
    if type(value) is not int:
        raise SpecError("%s must be a JSON integer" % what)
    return value


def format_rational(q) -> str:
    return str(Fraction(q))


# ---------------------------------------------------------------------------
# dyadic rounding and logarithm enclosures


def _dyadic_floor(x: Fraction, bits: int) -> Fraction:
    return Fraction((x.numerator << bits) // x.denominator, 1 << bits)


def _dyadic_ceil(x: Fraction, bits: int) -> Fraction:
    return Fraction(-(((-x.numerator) << bits) // x.denominator), 1 << bits)


def _atanh_fixed(num: int, den: int, prec: int) -> Tuple[int, int]:
    """Integers lo <= 2**prec * atanh(num/den) <= hi, for 0 <= num/den <= 1/3.

    Sums the series over fixed-point integers: z = floor(2**prec num/den),
    power_k = floor(power_{k-1} z**2 / 2**(2 prec)) and
    lo = sum floor(power_k / (2k+1)) while power_k > 0, K terms in all.
    Every rounding is downward, so lo is a lower bound.  Each quotient
    loses under one unit, and the power's error e_k < z**2/2**(2 prec) e_{k-1}
    + 1 stays under 9/8 because z/2**prec <= 1/3.  The tail after K terms
    (power_K = 0, so the exact power is under 9/8) is under 81/64, and the
    input rounding costs under 9/8 units since atanh' <= 9/8 on [0, 1/3].
    So hi = lo + 3K + 3, and K <= prec/3 + 1.
    """
    z = (num << prec) // den
    z2 = z * z
    lo, power, k = 0, z, 0
    while power:
        lo += power // (2 * k + 1)
        power = power * z2 >> 2 * prec
        k += 1
    return lo, lo + 3 * k + 3


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
    n, d = x.numerator, x.denominator
    e = n.bit_length() - d.bit_length()
    if n < d << e:
        e -= 1
    # x = 2**e m with m in [1, 2): ln x = 2 atanh((m-1)/(m+1)) + 2e atanh(1/3).
    # The enclosure is (2e+2)(3K+3) <= (2e+2)(prec+6) units of 2**-prec wide,
    # at most 2**-bits once (2e+2)(bits+guard+6) <= 2**guard
    guard = 1
    while (2 * e + 2) * (bits + guard + 6) > 1 << guard:
        guard += 1
    prec = bits + guard
    alo, ahi = _atanh_fixed(n - (d << e), n + (d << e), prec)
    llo, lhi = _atanh_fixed(1, 3, prec)
    one = 1 << prec
    return (Fraction(2 * (alo + e * llo), one),
            Fraction(2 * (ahi + e * lhi), one))


def log_sign(terms, max_bits: int = DEFAULT_MAX_BITS) -> Ordering:
    """Order the sum of c * prod(ln x for x in xs) over (c, xs) in `terms`
    against 0; every c is rational and every x a positive rational.

    Each precision level encloses ln x once per distinct x, multiplies the
    enclosures endpoint by endpoint and sums them, then doubles the
    precision until the sum excludes 0.  EQUAL only when the sum is the
    exact point 0, which needs every term to be a rational constant or to
    have a factor ln 1: a genuine tie between irrational terms is
    indistinguishable from too little precision and raises
    PrecisionCapExceeded once max_bits is spent.
    """
    terms = [(Fraction(c), [Fraction(x) for x in xs]) for c, xs in terms]
    distinct = {x for _, xs in terms for x in xs}
    bits = _START_BITS
    while True:
        logs = {x: ln_bounds(x, bits) for x in distinct}
        lo = hi = Fraction(0)
        for c, xs in terms:
            tlo = thi = c
            for x in xs:
                xlo, xhi = logs[x]
                ps = (tlo * xlo, tlo * xhi, thi * xlo, thi * xhi)
                tlo, thi = min(ps), max(ps)
            lo += tlo
            hi += thi
        if lo > 0:
            return Ordering.GREATER
        if hi < 0:
            return Ordering.LESS
        if lo == hi:
            return Ordering.EQUAL
        if bits >= max_bits:
            raise PrecisionCapExceeded(
                f"cannot order [{lo}, {hi}] against 0 within {max_bits} bits")
        bits = min(2 * bits, max_bits)


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


def _power_index(x: Fraction) -> Tuple[Fraction, int]:
    """Largest k with x = root**k for rational root; returns (root, k).

    x is a perfect m-th power exactly when m divides k: take each prime's
    roots while they exist, up to the bit length of what is left."""
    n, d = x.numerator, x.denominator
    if x == 1 or n <= 0:
        return x, 1
    k, p = 1, 2
    while p <= (d if n == 1 else n).bit_length():
        rn = _iroot_exact(n, p)
        rd = None if rn is None else _iroot_exact(d, p)
        if rd is None:
            p += 1
            while any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
                p += 1
        else:
            n, d, k = rn, rd, k * p
    return Fraction(n, d), k


def rational_power_of(x, base) -> Optional[Fraction]:
    """Exponent e with x == base**e, as a Fraction, or None.

    Exact, from integer roots: x = base**e for a rational e exactly when
    x is 1 (e = 0) or x and base are powers kx and kb of one rational root
    (e = kx/kb) or of a root and its inverse (e = -kx/kb).
    """
    x, base = Fraction(x), Fraction(base)
    if x <= 0 or base <= 0 or base == 1:
        raise ValueError("rational_power_of requires x > 0 and base > 0, base != 1")
    if x == 1:
        return Fraction(0)
    (rx, kx), (rb, kb) = _power_index(x), _power_index(base)
    if rx == rb:
        return Fraction(kx, kb)
    if rx * rb == 1:
        return Fraction(-kx, kb)
    return None


@dataclass(frozen=True)
class LogRatio:
    """The irrational number log(top)/log(base), kept symbolically.

    A rational pair (top = base**e for a rational e, top = 1 included)
    raises ValueError: make_exponent returns those as Fractions.  Canonical
    form: base > 1 (flip both arguments if needed) and the pair
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
        (rt, kt), (rb, kb) = _power_index(top), _power_index(base)
        # the rational_power_of test, on the roots already at hand
        if top == 1 or rt == rb or rt * rb == 1:
            raise ValueError(f"log({top})/log({base}) is rational")
        g = math.gcd(kt, kb)
        object.__setattr__(self, "top", rt ** (kt // g))
        object.__setattr__(self, "base", rb ** (kb // g))

    def sign(self) -> int:
        # base > 1 and top != 1, so the sign is the sign of ln(top)
        return -1 if self.top < 1 else 1

    def __repr__(self) -> str:
        return f"log({self.top})/log({self.base})"


Exponent = Union[Fraction, LogRatio]


def make_exponent(top, base) -> Exponent:
    """log(top)/log(base) as a Fraction when the pair is multiplicatively
    dependent, else a canonical LogRatio."""
    e = rational_power_of(top, base)
    return LogRatio(top, base) if e is None else e


def exponent_bounds(e: Exponent) -> Tuple[Fraction, Fraction]:
    """Enclosure of e: the point itself when rational, else ln top over
    ln base from ln_bounds, rounded outward to multiples of 2**-32."""
    if not isinstance(e, LogRatio):
        return Fraction(e), Fraction(e)
    bits = 32
    tlo, thi = ln_bounds(e.top, bits)
    # ln base >= 1 - 1/base > 0, so with these extra bits its lower end stays above 0
    guard = math.ceil(e.base / (e.base - 1)).bit_length()
    blo, bhi = ln_bounds(e.base, bits + guard)
    ends = [t / b for t in (tlo, thi) for b in (blo, bhi)]
    return _dyadic_floor(min(ends), bits), _dyadic_ceil(max(ends), bits)


def _log_quotient(e: Exponent):
    """e as numerator over positive denominator, each a (c, xs) term of
    log_sign: ln top over ln base (base > 1), or p over q."""
    if isinstance(e, LogRatio):
        return (1, [e.top]), (1, [e.base])
    e = Fraction(e)
    return (e.numerator, []), (e.denominator, [])


def exponent_cmp(a: Exponent, b: Exponent) -> Ordering:
    """Order two exponents; exact on every multiplicatively dependent pair."""
    if not isinstance(a, LogRatio) and not isinstance(b, LogRatio):
        return ordering_of(Fraction(a), Fraction(b))
    if a == b:
        # LogRatios of equal value by dependence share one canonical form
        return Ordering.EQUAL
    # a - b has the sign of the cross-product na*db - nb*da
    (na, nxa), (da, dxa) = _log_quotient(a)
    (nb, nxb), (db, dxb) = _log_quotient(b)
    return log_sign([(na * db, nxa + dxb), (-nb * da, nxb + dxa)])


def scaled_pow_cmp(lhs, coeff, eps, gamma: Exponent) -> Ordering:
    """Order lhs against coeff * eps**gamma.

    lhs >= 0, coeff > 0, eps > 0 rationals.  Exact whenever gamma is
    rational or eps is a rational power of gamma's base (the audit grids
    arrange the latter); otherwise log_sign on certified log enclosures.
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
    # ln lhs  vs  ln coeff + gamma ln eps, cleared of the denominator ln base > 0
    return log_sign([(1, [lhs, gamma.base]), (-1, [coeff, gamma.base]),
                     (-1, [gamma.top, eps])])


def floor_sqrt(x) -> int:
    """Largest integer q with q*q <= x, for rational x >= 0."""
    x = Fraction(x)
    if x < 0:
        raise ValueError
    return math.isqrt(x.numerator * x.denominator) // x.denominator


# ---------------------------------------------------------------------------
# circle distance


def circle_dist(u, y) -> Fraction:
    """Distance on R/Z from pi(u) to y."""
    t = (Fraction(u) - Fraction(y)) % 1
    return min(t, 1 - t)


# ---------------------------------------------------------------------------
# Stern-Brocot / Farey machinery (used by the badly-approximable verifier)


def simplest_between(lo, hi) -> Fraction:
    """The unique fraction of smallest denominator in the closed interval.

    Expands both ends' continued fractions together on integer pairs
    ln/ld, hn/hd (Stern-Brocot descent) and carries the convergents p/q,
    so the only Fraction is the result.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if lo == hi:
        return lo
    if hi < 0:
        return -simplest_between(-hi, -lo)
    if lo <= 0:
        return Fraction(0)
    (ln, ld), (hn, hd) = lo.as_integer_ratio(), hi.as_integer_ratio()
    p, q, p1, q1 = 1, 0, 0, 1  # convergents k-1 and k-2
    while True:
        a = -(-ln // ld)  # ceil(lo)
        if a * hd <= hn:
            break
        a -= 1  # = floor(lo) = floor(hi): no integer inside
        p, q, p1, q1 = a * p + p1, a * q + q1, p, q
        ln, ld, hn, hd = hd, hn - a * hd, ld, ln - a * ld
    return Fraction(a * p + p1, a * q + q1)


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
    """Immediate left neighbor: the mirror image of -f's right neighbor."""
    return -farey_right(-Fraction(f), qmax)


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
