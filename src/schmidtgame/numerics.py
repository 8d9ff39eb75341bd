"""Exact scalars, certified logarithm comparisons, and circle-distance primitives.

All game quantities are python Fractions.  Irrational quantities show up in
one place only: logarithmic exponents such as log 2/log 3, kept symbolically
as LogRatio.  Whether log x/log b is rational is decided once, exactly, from
integer roots (rational_power_of); make_exponent returns a rational ratio as
a Fraction, so a LogRatio is always irrational.  Two LogRatios of equal
value share one canonical form; every other comparison goes to log_sign,
which orders a sum of products of logarithms against 0 on dyadic enclosures
refined by doubling precision.  Every three-way comparison answers with an
int sign, -1, 0 or 1, as (a > b) - (a < b) does for two Fractions.  No
float appears anywhere: an enclosure that cannot exclude 0 within the
precision budget raises PrecisionCapExceeded rather than guess.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .errors import PrecisionCapExceeded, SpecError

# refinement budget: the domain's comparisons separate at tens of bits,
# so hitting this cap signals a genuine tie (or a misuse), not bad luck
MAX_BITS = 1024
_START_BITS = 32


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


def json_array(value, what: str, length: Optional[int] = None) -> list:
    """`value` if it is a list, of `length` entries when given: a string,
    which would unpack and iterate as its characters, fails closed."""
    if type(value) is not list or length not in (None, len(value)):
        raise SpecError("%s must be a JSON array%s" % (
            what, "" if length is None else " of %d entries" % length))
    return value


def json_rationals(value, what: str, length: Optional[int] = None
                   ) -> List[Fraction]:
    """A JSON array of "p/q" strings as Fractions; see json_array."""
    return [parse_rational(v) for v in json_array(value, what, length)]


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


def _octave(n: int, d: int) -> Tuple[int, int, int, int]:
    """(n', d', e, s) for the rational x = n/d > 0, d > 0: n'/d' = x**s >= 1,
    s = 1 or -1, and 2**e <= n'/d' < 2**(e+1)."""
    if n <= 0:
        raise ValueError("ln requires a positive argument")
    s = 1 if n >= d else -1
    if s < 0:
        n, d = d, n
    e = n.bit_length() - d.bit_length()
    if n < d << e:
        e -= 1
    return n, d, e, s


def _guard(e: int, bits: int) -> int:
    """Least guard g >= 1 with (2e+2)(bits+g+6) <= 2**g: the enclosure of
    ln x, 2**e <= x < 2**(e+1), is (2e+2)(3K+3) <= (2e+2)(prec+6) units
    of 2**-prec wide (see _atanh_fixed), at most 2**-bits once prec is
    bits + g.  The condition holds for every smaller e and every larger g."""
    guard = 1
    while (2 * e + 2) * (bits + guard + 6) > 1 << guard:
        guard += 1
    return guard


def _ln_fixed(octave, prec: int, atanh3: Tuple[int, int]) -> Tuple[int, int]:
    """Integers lo <= 2**prec * ln x <= hi for x != 1 given by its _octave,
    from atanh3 = _atanh_fixed(1, 3, prec).

    x**s = 2**e m with m in [1, 2), so ln x**s = 2 atanh((m-1)/(m+1))
    + 2e atanh(1/3), and ln x = -ln x**s when s = -1."""
    n, d, e, s = octave
    alo, ahi = _atanh_fixed(n - (d << e), n + (d << e), prec)
    lo, hi = 2 * (alo + e * atanh3[0]), 2 * (ahi + e * atanh3[1])
    return (lo, hi) if s > 0 else (-hi, -lo)


def ln_bounds(x, bits: int) -> Tuple[Fraction, Fraction]:
    """Dyadic enclosure of ln(x) for rational x > 0; width below 2**-bits.

    log_sign's integer enclosure as Fractions over 2**prec, at
    prec = bits + _guard(e, bits) for x's own octave e."""
    x = Fraction(x)
    octave = _octave(*x.as_integer_ratio())
    if x == 1:
        return Fraction(0), Fraction(0)
    prec = bits + _guard(octave[2], bits)
    lo, hi = _ln_fixed(octave, prec, _atanh_fixed(1, 3, prec))
    return Fraction(lo, 1 << prec), Fraction(hi, 1 << prec)


def log_sign(terms) -> int:
    """The sign, -1, 0 or 1, of the sum of c * prod(ln x for x in xs) over
    (c, xs) in `terms`; every c is rational and every x a positive rational.

    Each precision level picks one precision P, `bits` plus the guard of
    the largest x**s, computes atanh(1/3) once and encloses each distinct
    ln x once as integers over 2**P, then multiplies and sums on integers:
    the coefficients are cleared of their denominators by their lcm, and
    a product of k logs, over 2**(P k), is aligned to the longest, K, by
    a shift of P (K - k).  It doubles `bits` until the sum excludes 0.
    The sign is 0 only when the sum is the exact point 0, which needs
    every term to be a rational constant or to have a factor ln 1: a
    genuine tie between irrational terms is indistinguishable from too
    little precision and raises PrecisionCapExceeded once MAX_BITS is
    spent.
    """
    # c and each x (int or Fraction) as integer ratios, which hash far
    # faster than Fractions
    terms = [(c.as_integer_ratio(), [x.as_integer_ratio() for x in xs])
             for c, xs in terms]
    octaves = {x: _octave(*x) for _, xs in terms for x in xs}
    # a zero coefficient or a factor ln 1 makes a term the exact point 0
    terms = [(c, xs) for c, xs in terms if c[0] and (1, 1) not in xs]
    distinct = {x: octaves[x] for _, xs in terms for x in xs}
    emax = max((e for _, _, e, _ in distinct.values()), default=0)
    depth = max((len(xs) for _, xs in terms), default=0)
    scale = math.lcm(*(d for (_, d), _ in terms))
    scaled = [(n * (scale // d), xs, depth - len(xs)) for (n, d), xs in terms]
    bits = _START_BITS
    while True:
        prec = bits + _guard(emax, bits)
        atanh3 = _atanh_fixed(1, 3, prec)
        logs = {x: _ln_fixed(o, prec, atanh3) for x, o in distinct.items()}
        lo = hi = 0
        for a, xs, shift in scaled:
            tlo = thi = a << prec * shift
            for x in xs:
                xlo, xhi = logs[x]
                ps = (tlo * xlo, tlo * xhi, thi * xlo, thi * xhi)
                tlo, thi = min(ps), max(ps)
            lo += tlo
            hi += thi
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        if lo == hi:
            return 0
        if bits >= MAX_BITS:
            raise PrecisionCapExceeded(
                f"cannot order [{lo}, {hi}]/2**{prec * depth} against 0 "
                f"within {MAX_BITS} bits")
        bits = min(2 * bits, MAX_BITS)


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


def exponent_cmp(a: Exponent, b: Exponent) -> int:
    """The sign of a - b; exact on every multiplicatively dependent pair."""
    if a == b:
        # LogRatios of equal value by dependence share one canonical form
        return 0
    if not isinstance(a, LogRatio) and not isinstance(b, LogRatio):
        return -1 if a < b else 1
    # a - b has the sign of the cross-product na*db - nb*da
    (na, nxa), (da, dxa) = _log_quotient(a)
    (nb, nxb), (db, dxb) = _log_quotient(b)
    return log_sign([(na * db, nxa + dxb), (-nb * da, nxb + dxa)])


def collapse_pow(eps, gamma: Exponent) -> Optional[Tuple[int, Fraction]]:
    """(n, eps**(n*gamma)) with n >= 1 and the power rational, or None.

    eps > 0.  The power collapses when gamma is rational, n its
    denominator, or when eps is a rational power e of gamma's base, since
    (base**e)**(log top/log base) = top**e, n the denominator of e.  Any
    other eps**gamma is left to log_sign.
    """
    if isinstance(gamma, LogRatio):
        e = rational_power_of(eps, gamma.base)
        if e is None:
            return None
        eps, (m, n) = gamma.top, e.as_integer_ratio()
    else:
        m, n = Fraction(gamma).as_integer_ratio()
    return n, Fraction(eps) ** m


def scaled_pow_sign(coeff, eps, gamma: Exponent):
    """The function (lhs, scale) -> the sign of lhs - scale * coeff * eps**gamma,
    for rationals lhs >= 0 and scale >= 0, with coeff * eps**gamma reduced
    here once.

    coeff > 0, eps > 0 rationals.  Exact whenever eps**gamma collapses
    (the audit grids arrange it): (coeff * eps**gamma)**n is then a
    rational p/q and the sign is that of lhs**n q - scale**n p, integers
    only on int lhs and scale.  Otherwise log_sign on certified log
    enclosures.
    """
    coeff, eps = Fraction(coeff), Fraction(eps)
    if coeff <= 0 or eps <= 0:
        raise ValueError("scaled_pow_sign needs coeff > 0 and eps > 0")
    power = collapse_pow(eps, gamma)
    if power is None:
        top, base = gamma.top, gamma.base

        def sign(lhs, scale):
            if lhs == 0 or scale == 0:
                return (lhs > 0) - (scale > 0)
            # ln lhs  vs  ln (scale coeff) + gamma ln eps, cleared of the
            # denominator ln base > 0
            return log_sign([(1, [lhs, base]), (-1, [scale * coeff, base]),
                             (-1, [top, eps])])
        return sign
    n, p = power
    p, q = (coeff ** n * p).as_integer_ratio()

    def sign(lhs, scale):
        a, b = lhs ** n * q, scale ** n * p
        return (a > b) - (a < b)
    return sign


def scaled_pow_cmp(lhs, coeff, eps, gamma: Exponent) -> int:
    """The sign of lhs - coeff * eps**gamma; see scaled_pow_sign."""
    lhs = Fraction(lhs)
    if lhs < 0:
        raise ValueError("scaled_pow_cmp needs lhs >= 0")
    return scaled_pow_sign(coeff, eps, gamma)(lhs, 1)


# ---------------------------------------------------------------------------
# the monotone search


def _first_index(holds, start: int = 1, guess: int = 0) -> int:
    """The least n >= start where ``holds(n)``, for a predicate that stays
    true once true and holds somewhere: probe start + guess, gallop from
    there by doubling steps, up while the probe is false or down to start
    while it holds, then bisect the last step.  An answer m places from
    start + guess costs about 2*log2(m) + 2 probes.

    Every least-k threshold of the package goes through here, each over a
    closed form in k: the tail shift and the blocks of geometric terms,
    a support's `depth_below`, the warm-ups of the schedule constants, and
    the rounds a digit construction needs.
    """
    top, step = start + guess, 1
    if holds(top):
        while top - step >= start and holds(top - step):
            top, step = top - step, 2 * step
        start = max(top - step + 1, start)
    else:
        start, top, step = top + 1, top + 1, 2
        while not holds(top):
            start, top, step = top + 1, top + step, 2 * step
    return bisect.bisect_left(range(start, top), True, key=holds) + start


# ---------------------------------------------------------------------------
# circle distance


def circle_dist(u, y) -> Fraction:
    """Distance on R/Z from pi(u) to y."""
    t = (Fraction(u) - Fraction(y)) % 1
    return min(t, 1 - t)


# ---------------------------------------------------------------------------
# Stern-Brocot / Farey machinery (the badly-approximable planner, its danger
# preview and its verifier)

# The last positive window `_simplest` expanded, as integers ln/d and hn/d,
# and its convergent matrix (p, q, p1, q1) where the ends split, starting
# as the root.  One tuple, replaced whole, so a window is never read with
# another's matrix.
_split = (0, 0, 1, 1, 0, 0, 1)


def _window(lo, hi, den: int = 1) -> Tuple[int, int, int]:
    """(ln, hn, d) with lo/den = ln/d and hi/den = hn/d, d > 0."""
    (ln, ld), (hn, hd) = (Fraction(x).as_integer_ratio() for x in (lo, hi))
    return ln * hd, hn * ld, ld * hd * den


def simplest_between(lo, hi) -> Fraction:
    """The unique fraction of smallest denominator in the closed interval;
    see _simplest."""
    ln, hn, d = _window(lo, hi)
    if ln > hn:
        raise ValueError("empty interval")
    return _simplest(ln, hn, d)


def _simplest(ln: int, hn: int, d: int) -> Fraction:
    """The simplest fraction in [ln/d, hn/d], for ln <= hn and d > 0.

    Expands both ends' continued fractions together on integer pairs
    ln/ld, hn/hd (Stern-Brocot descent) and carries the convergents p/q,
    so the only Fraction is the result.

    Resumes across nested windows: the last positive window and its
    convergent matrix at the split are kept, and a positive window inside
    it (last_lo <= lo, hi <= last_hi, cross-multiplied) shares that
    prefix, so its ends are mapped through the inverse matrix and only the
    new terms expand.  Any other window starts from the root.  The answer
    is unique, so the resume changes only the cost.
    """
    global _split
    if ln == hn:
        return Fraction(ln, d)
    if hn < 0:
        return -_simplest(-hn, -ln, d)
    if ln <= 0:
        return Fraction(0)
    window = (ln, hn, d)
    last_ln, last_hn, last_d, p, q, p1, q1 = _split
    ld = hd = d
    if last_ln * d <= ln * last_d and hn * last_d <= last_hn * d:
        # x = (p x' + p1)/(q x' + q1) for x' the tail past the prefix, so
        # an end n/d maps to x' = (q1 n - p1 d)/(p d - q n), whose denominator
        # has the sign of det = p q1 - p1 q = +-1; det flips at each term,
        # and with it the order of the ends
        det = p * q1 - p1 * q
        ln, ld = det * (q1 * ln - p1 * d), det * (p * d - q * ln)
        hn, hd = det * (q1 * hn - p1 * d), det * (p * d - q * hn)
        if det < 0:
            ln, ld, hn, hd = hn, hd, ln, ld
    else:
        p, q, p1, q1 = 1, 0, 0, 1  # convergents k-1 and k-2
    while True:
        a = -(-ln // ld)  # ceil(lo)
        if a * hd <= hn:
            break
        a -= 1  # = floor(lo) = floor(hi): no integer inside
        p, q, p1, q1 = a * p + p1, a * q + q1, p, q
        ln, ld, hn, hd = hd, hn - a * hd, ld, ln - a * ld
    _split = window + (p, q, p1, q1)
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


def fractions_in_interval(lo, hi, qmax: int, den: int = 1) -> list:
    """All reduced fractions with denominator <= qmax in [lo/den, hi/den],
    sorted; den >= 1 lets a caller pass a window as integers over it.

    Walks Farey neighbors outward from the simplest fraction, so the cost
    is proportional to the number of fractions found, not to qmax; the
    descent to that first fraction costs only the continued-fraction
    terms new since the last enclosing window (see _simplest).  Each
    neighbor p/q is tested against the ends on integers.
    """
    ln, hn, d = _window(lo, hi, den)
    if qmax < 1 or ln > hn:
        return []
    mid = _simplest(ln, hn, d)
    if mid.denominator > qmax:
        return []
    out = [mid]
    f = mid
    while True:
        f = farey_right(f, qmax)
        if f.numerator * d > hn * f.denominator:
            break
        out.append(f)
    f = mid
    while True:
        f = farey_left(f, qmax)
        if f.numerator * d < ln * f.denominator:
            break
        out.append(f)
    out.sort()
    return out
