import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidtgame.errors import PrecisionCapExceeded
from schmidtgame.numerics import (IntervalScalar, LogRatio, Ordering,
                                  circle_dist, circle_dist_range,
                                  decide, exponent_cmp, farey_left,
                                  farey_right, floor_sqrt,
                                  fractions_in_interval, format_rational,
                                  invert_exponent, ln_bounds, make_exponent,
                                  ordering_of, parse_rational, pow_exact,
                                  rational_power_of, scaled_pow_cmp,
                                  simplest_between)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=64)
positive_rationals = st.fractions(min_value=F(1, 64), max_value=100, max_denominator=64)


def test_parse_format_round_trip():
    for text in ["3/7", "-3/7", "10", "0", "-12/5"]:
        assert format_rational(parse_rational(text)) == text


def test_parse_rejects_zero_denominator():
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("zebra")
    for value in (0.25, 1, None, F(1, 3)):
        with pytest.raises(ValueError, match="not a rational"):
            parse_rational(value)


class TestCircleDist:
    def test_frozen_values(self):
        assert circle_dist(F(7, 3), 0) == F(1, 3)
        assert circle_dist(F(2 ** 5, 3), 0) == F(1, 3)

    def test_dilated_thirds(self):
        # 2^n/3 mod 1 is 1/3 or 2/3, so the distance to 0 is always 1/3
        for n in range(1, 25):
            assert (2 ** n) % 3 in (1, 2)
            assert circle_dist(F(2 ** n, 3), 0) == F(1, 3)

    @given(u=rationals, y=rationals, k=st.integers(min_value=-5, max_value=5))
    def test_period_one_invariance(self, u, y, k):
        assert circle_dist(u + k, y) == circle_dist(u, y)

    @given(u=rationals, y=rationals)
    def test_in_range(self, u, y):
        d = circle_dist(u, y)
        assert 0 <= d <= F(1, 2)

    def test_range_frozen(self):
        assert circle_dist_range(F(2, 5), F(3, 5), 0) == (F(2, 5), F(1, 2))
        assert circle_dist_range(F(9, 10), F(13, 10), 0) == (F(0), F(3, 10))
        assert circle_dist_range(F(0), F(2), F(1, 4)) == (F(0), F(1, 2))

    @given(lo=rationals, width=st.fractions(min_value=0, max_value=3, max_denominator=32),
           y=rationals, t=st.fractions(min_value=0, max_value=1, max_denominator=32))
    def test_range_encloses_samples(self, lo, width, y, t):
        hi = lo + width
        dmin, dmax = circle_dist_range(lo, hi, y)
        u = lo + t * width
        assert dmin <= circle_dist(u, y) <= dmax


class TestCompare:
    def test_rational_pairs(self):
        third = IntervalScalar.from_rational(F(1, 3))
        assert third.compare(F(2, 6)) is Ordering.EQUAL
        assert third.compare(F(1, 2)) is Ordering.LESS

    def test_interval_cases(self):
        a = IntervalScalar(F(141, 100), F(142, 100))
        assert a.compare(F(3, 2)) is Ordering.LESS
        b = IntervalScalar(F(1415, 1000), F(143, 100))
        assert a.compare(b) is Ordering.UNDECIDED

    def test_decide_separates_ln2(self):
        # ln 2 = 0.6931...: a 2-bit start cannot place it, refinement must
        x = IntervalScalar.from_ln(2, bits=2)
        assert x.compare(F(7, 10)) is Ordering.UNDECIDED
        assert decide(x, F(7, 10)) is Ordering.LESS
        assert decide(x, F(69, 100)) is Ordering.GREATER

    def test_decide_raises_on_tie(self):
        with pytest.raises(PrecisionCapExceeded):
            decide(IntervalScalar.from_ln(4),
                   IntervalScalar.from_ln(2) + IntervalScalar.from_ln(2),
                   max_bits=256)

    def test_decide_equal_points(self):
        assert decide(F(1, 3), F(2, 6)) is Ordering.EQUAL


@given(a=rationals, b=rationals, c=rationals)
def test_rational_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a and a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(a=rationals, b=rationals, da=st.fractions(min_value=0, max_value=1, max_denominator=16),
       db=st.fractions(min_value=0, max_value=1, max_denominator=16))
def test_interval_ops_conservative(a, b, da, db):
    ia = IntervalScalar(a - da, a + da)
    ib = IntervalScalar(b - db, b + db)
    for op in ("add", "mul"):
        got = {"add": ia + ib, "mul": ia * ib}[op]
        exact = {"add": a + b, "mul": a * b}[op]
        assert got.lo <= exact <= got.hi


@pytest.mark.parametrize("x", [F(2), F(3), F(10, 7), F(1, 3), F(97), F(1, 10 ** 12)])
def test_ln_bounds_enclose_and_shrink(x):
    for bits in (32, 80, 160):
        lo, hi = ln_bounds(x, bits)
        assert hi - lo <= F(1, 2 ** bits)
        approx = math.log(x)
        assert float(lo) - 1e-9 <= approx <= float(hi) + 1e-9


class TestLogRatio:
    def test_canonical_forms(self):
        assert LogRatio(4, 9) == LogRatio(2, 3)
        assert LogRatio(F(1, 32), F(1, 243)) == LogRatio(2, 3)
        assert repr(LogRatio(8, 27)) == "log(2)/log(3)"

    def test_make_exponent_collapses_dependence(self):
        assert make_exponent(4, 8) == F(2, 3)
        assert make_exponent(16, 2) == 4
        assert make_exponent(F(1, 9), 3) == -2
        assert make_exponent(1, 5) == 0
        assert isinstance(make_exponent(2, 3), LogRatio)

    def test_exponent_cmp(self):
        g = LogRatio(2, 3)
        assert exponent_cmp(g, F(6309, 10000)) is Ordering.GREATER
        assert exponent_cmp(g, F(631, 1000)) is Ordering.LESS
        assert exponent_cmp(g, LogRatio(8, 3)) is Ordering.LESS
        assert exponent_cmp(LogRatio(4, 9), g) is Ordering.EQUAL

    def test_invert(self):
        assert invert_exponent(F(2, 3)) == F(3, 2)
        assert invert_exponent(LogRatio(2, 3)) == LogRatio(3, 2)
        assert invert_exponent(make_exponent(4, 2)) == F(1, 2)

    def test_interval_encloses_value(self):
        iv = LogRatio(2, 3).interval(64)
        v = math.log(2) / math.log(3)
        assert float(iv.lo) <= v <= float(iv.hi)
        assert iv.hi - iv.lo < F(1, 2 ** 48)


def test_rational_power_of():
    assert rational_power_of(8, 2) == 3
    assert rational_power_of(F(1, 9), 3) == -2
    assert rational_power_of(F(4, 9), F(2, 3)) == 2
    assert rational_power_of(F(8, 27), F(4, 9)) == F(3, 2)
    assert rational_power_of(5, 2) is None
    assert rational_power_of(1, 7) == 0


def test_pow_exact():
    assert pow_exact(F(4, 9), F(1, 2)) == F(2, 3)
    assert pow_exact(F(27), F(2, 3)) == 9
    assert pow_exact(F(2), F(1, 2)) is None
    assert pow_exact(F(1, 16), F(-3, 4)) == 8


class TestScaledPowCmp:
    def test_exact_logratio_paths(self):
        g = LogRatio(2, 3)
        # (1/9)^g = 1/4 exactly
        assert scaled_pow_cmp(F(1, 8), F(8), F(1, 9), g) is Ordering.LESS
        assert scaled_pow_cmp(F(1, 4), F(1), F(1, 9), g) is Ordering.EQUAL
        assert scaled_pow_cmp(F(1, 3), F(1), F(1, 9), g) is Ordering.GREATER

    def test_zero_lhs(self):
        assert scaled_pow_cmp(F(0), F(5), F(1, 2), F(1)) is Ordering.LESS

    @given(lhs=positive_rationals, coeff=positive_rationals,
           eps=st.fractions(min_value=F(1, 16), max_value=2, max_denominator=16),
           num=st.integers(min_value=-3, max_value=3),
           den=st.integers(min_value=1, max_value=3))
    def test_rational_gamma_matches_direct(self, lhs, coeff, eps, num, den):
        gamma = F(num, den)
        got = scaled_pow_cmp(lhs, coeff, eps, gamma)
        direct = ordering_of(lhs ** den, coeff ** den * eps ** num)
        assert got is direct

    def test_interval_fallback(self):
        got = scaled_pow_cmp(F(10), F(3), F(1, 7), LogRatio(2, 5))
        assert got is Ordering.GREATER


def test_floor_sqrt():
    assert floor_sqrt(F(35)) == 5
    assert floor_sqrt(F(36)) == 6
    assert floor_sqrt(F(8192, 3)) == 52
    assert floor_sqrt(F(1, 2)) == 0


class TestFarey:
    def test_simplest_between_frozen(self):
        assert simplest_between(F(49, 100), F(51, 100)) == F(1, 2)
        assert simplest_between(F(1, 3), F(2, 3)) == F(1, 2)
        assert simplest_between(F(-51, 100), F(-49, 100)) == F(-1, 2)
        assert simplest_between(F(-1, 5), F(3, 10)) == 0
        assert simplest_between(F(7, 5), F(7, 5)) == F(7, 5)

    def test_fractions_in_interval_frozen(self):
        assert fractions_in_interval(F(49, 100), F(51, 100), 5) == [F(1, 2)]
        got = fractions_in_interval(F(0), F(1), 3)
        assert got == [F(0), F(1, 3), F(1, 2), F(2, 3), F(1)]
        assert fractions_in_interval(F(1, 7), F(1, 6), 5) == []

    @staticmethod
    def _brute(lo, hi, qmax):
        found = set()
        for q in range(1, qmax + 1):
            p = math.floor(lo * q)
            while F(p, q) <= hi:
                if F(p, q) >= lo:
                    found.add(F(p, q))
                p += 1
        return sorted(found)

    def test_against_brute_force(self):
        rng = random.Random(20260814)
        for _ in range(250):
            a = F(rng.randint(-40, 40), rng.randint(1, 30))
            b = a + F(rng.randint(0, 50), rng.randint(1, 30))
            qmax = rng.randint(1, 11)
            assert fractions_in_interval(a, b, qmax) == self._brute(a, b, qmax)

    def test_neighbors_are_adjacent(self):
        rng = random.Random(7)
        for _ in range(200):
            q = rng.randint(1, 20)
            p = rng.randint(-30, 30)
            f = F(p, q)
            qmax = rng.randint(f.denominator, 25)
            r = farey_right(f, qmax)
            l = farey_left(f, qmax)
            assert l < f < r
            # adjacency: no fraction with denominator <= qmax strictly between
            assert self._brute(l, r, qmax) == sorted({l, f, r})
