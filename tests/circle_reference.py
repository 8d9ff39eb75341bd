"""Reference for the orbit tests: the exact circle-distance range over an
interval of lifts, against which the integer orbit walk and the danger list
are checked.  Its own tests are `TestCircleDist` in test_numerics.py."""

from fractions import Fraction
from typing import Tuple


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
