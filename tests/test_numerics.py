import math
import random
from decimal import Context, Decimal
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from schmidtgame import numerics
from schmidtgame.errors import PrecisionCapExceeded
from schmidtgame.numerics import (LogRatio, circle_dist,
                                  exponent_bounds, exponent_cmp, farey_left,
                                  farey_right,
                                  fractions_in_interval,
                                  ln_bounds, log_sign,
                                  make_exponent, parse_rational,
                                  pow_exact, rational_power_of,
                                  scaled_pow_cmp, scaled_pow_sign,
                                  simplest_between)

from circle_reference import circle_dist_range

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=64)
positive_rationals = st.fractions(min_value=F(1, 64), max_value=100, max_denominator=64)


def test_parse_format_round_trip():
    for text in ["3/7", "-3/7", "10", "0", "-12/5"]:
        assert str(parse_rational(text)) == text


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


class TestLogSign:
    def test_separates_ln2(self):
        assert log_sign([(1, [2]), (F(-69, 100), [])]) == 1
        assert log_sign([(1, [2]), (F(-7, 10), [])]) == -1

    def test_refines_past_the_start(self):
        # a rational within 2**-64 below ln 2: the 32-bit start cannot
        # place it, and refining does
        lo, _ = ln_bounds(2, 64)
        assert log_sign([(1, [2]), (-lo, [])]) == 1
        assert log_sign([(-1, [2]), (lo, [])]) == -1
        # within 2**-2048: the 1,024-bit cap cannot place it
        lo, _ = ln_bounds(2, 2048)
        with pytest.raises(PrecisionCapExceeded):
            log_sign([(1, [2]), (-lo, [])])

    def test_negative_factors(self):
        # ln(1/2) ln(1/3) = ln 2 ln 3 = 0.7615...; -ln(1/2) = ln 2
        assert log_sign([(1, [F(1, 2), F(1, 3)]), (F(-76, 100), [])]) == 1
        assert log_sign([(-1, [F(1, 2), F(1, 3)]), (F(77, 100), [])]) == 1
        assert log_sign([(-1, [F(1, 2)]), (F(-7, 10), [])]) == -1
        assert log_sign([(-2, [F(1, 2), 3, 3])]) == 1

    def test_tie_raises(self):
        # the cap of 1,024 bits is reached in milliseconds
        with pytest.raises(PrecisionCapExceeded):
            log_sign([(1, [4]), (-2, [2])])

    def test_exact_zero_is_equal(self):
        assert log_sign([(1, [1]), (-3, [1, 5]), (F(2, 7), [7, 1])]) == 0
        assert log_sign([]) == 0


@given(a=rationals, b=rationals, c=rationals)
def test_rational_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a and a * b == b * a
    assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("x", [F(2), F(3), F(10, 7), F(1, 3), F(97), F(1, 10 ** 12),
                               F(3 ** 5000, 2 ** 7000), 1 + F(1, 10 ** 300)])
def test_ln_bounds_enclose_and_shrink(x):
    # 350 digits resolve the narrowest width, 2**-1024 ~ 5.6e-309, at ln x ~ 641
    ctx = Context(prec=350)
    value = lambda f: ctx.divide(Decimal(f.numerator), Decimal(f.denominator))
    ref = value(x).ln(ctx)
    for bits in (32, 80, 160, 1024):
        lo, hi = ln_bounds(x, bits)
        assert hi - lo <= F(1, 2 ** bits)
        assert value(lo) <= ref <= value(hi)


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

    def test_make_exponent_past_denominator_64(self):
        assert make_exponent(2, 2 ** 65) == F(1, 65)
        assert exponent_cmp(make_exponent(2, 2 ** 65), F(1, 65)) == 0

    @pytest.mark.parametrize("top, base", [(4, 2), (F(1, 8), 2), (2, F(1, 8)),
                                           (1, 5), (F(4, 9), F(3, 2))])
    def test_rational_pairs_rejected(self, top, base):
        with pytest.raises(ValueError, match="rational"):
            LogRatio(top, base)

    def test_exponent_cmp(self):
        g = LogRatio(2, 3)
        assert exponent_cmp(g, F(6309, 10000)) == 1
        assert exponent_cmp(g, F(631, 1000)) == -1
        assert exponent_cmp(g, LogRatio(8, 3)) == -1
        assert exponent_cmp(LogRatio(4, 9), g) == 0


def test_rational_power_of():
    assert rational_power_of(8, 2) == 3
    assert rational_power_of(F(1, 9), 3) == -2
    assert rational_power_of(F(4, 9), F(2, 3)) == 2
    assert rational_power_of(F(8, 27), F(4, 9)) == F(3, 2)
    assert rational_power_of(5, 2) is None
    assert rational_power_of(1, 7) == 0
    for x, base in [(2, 6), (6, 2), (4, 6), (F(1, 2), 6), (12, 18), (F(4, 9), F(2, 9))]:
        assert rational_power_of(x, base) is None


@settings(deadline=None)
@given(r=st.fractions(min_value=F(1, 12), max_value=12, max_denominator=12),
       a=st.integers(min_value=-130, max_value=130),
       b=st.integers(min_value=-130, max_value=130).filter(bool))
@example(r=F(2), a=1, b=65)
@example(r=F(2, 3), a=-3, b=127)
def test_rational_power_of_roots(r, a, b):
    # r itself may be a perfect power or below 1: the roots are found anyway
    assume(r != 1)
    assert rational_power_of(r ** a, r ** b) == F(a, b)


def test_power_index_tries_prime_indices(monkeypatch):
    tried = []
    root = numerics._iroot_exact
    monkeypatch.setattr(numerics, "_iroot_exact",
                        lambda k, n: tried.append(n) or root(k, n))
    assert numerics._power_index(F(6 ** 12)) == (6, 12)
    assert numerics._power_index(F(2, 3) ** 35) == (F(2, 3), 35)
    assert numerics._power_index(F(1, 8)) == (F(1, 2), 3)
    assert numerics._power_index(F(12)) == (12, 1)
    assert all(all(n % q for q in range(2, n)) for n in tried)
    # 3**5000/2**7000 is (243/128)**1000: trying every index up to the
    # 7,925-bit numerator took 27,708 roots
    tried.clear()
    e = make_exponent(F(3 ** 5000, 2 ** 7000), 3)
    assert isinstance(e, LogRatio) and e.top == F(243, 128) ** 1000
    assert len(tried) <= 40


def test_pow_exact():
    assert pow_exact(F(4, 9), F(1, 2)) == F(2, 3)
    assert pow_exact(F(27), F(2, 3)) == 9
    assert pow_exact(F(2), F(1, 2)) is None
    assert pow_exact(F(1, 16), F(-3, 4)) == 8


class TestScaledPowCmp:
    def test_exact_logratio_paths(self):
        g = LogRatio(2, 3)
        # (1/9)^g = 1/4 exactly
        assert scaled_pow_cmp(F(1, 8), F(8), F(1, 9), g) == -1
        assert scaled_pow_cmp(F(1, 4), F(1), F(1, 9), g) == 0
        assert scaled_pow_cmp(F(1, 3), F(1), F(1, 9), g) == 1

    def test_zero_lhs(self):
        assert scaled_pow_cmp(F(0), F(5), F(1, 2), F(1)) == -1

    @given(lhs=positive_rationals, coeff=positive_rationals,
           eps=st.fractions(min_value=F(1, 16), max_value=2, max_denominator=16),
           num=st.integers(min_value=-3, max_value=3),
           den=st.integers(min_value=1, max_value=3))
    def test_rational_gamma_matches_direct(self, lhs, coeff, eps, num, den):
        gamma = F(num, den)
        got = scaled_pow_cmp(lhs, coeff, eps, gamma)
        a, b = lhs ** den, coeff ** den * eps ** num
        assert got == (a > b) - (a < b)

    def test_interval_fallback(self):
        got = scaled_pow_cmp(F(10), F(3), F(1, 7), LogRatio(2, 5))
        assert got == 1


class TestScaledPowSign:
    @pytest.mark.parametrize("gamma, eps", [(LogRatio(2, 3), F(1, 9)),
                                            (F(1, 2), F(1, 3)),
                                            (LogRatio(2, 5), F(1, 7))],
                             ids=["collapse", "root", "log_sign"])
    def test_zero_lhs_or_scale(self, gamma, eps):
        # total on lhs, scale >= 0: a zero mass against a zero bound ties
        sign = scaled_pow_sign(F(3), eps, gamma)
        assert (sign(0, 0), sign(5, 0), sign(0, 2)) == (0, 1, -1)

    @pytest.mark.parametrize("coeff, eps", [(0, F(1, 3)), (F(-1, 2), F(1, 3)),
                                            (F(3), 0), (F(3), F(-1, 9))])
    def test_refusal_names_what_it_checks(self, coeff, eps):
        # the refusal once named an lhs, which this function does not take
        with pytest.raises(ValueError,
                           match=r"^scaled_pow_sign needs coeff > 0 and eps > 0$"):
            scaled_pow_sign(coeff, eps, LogRatio(2, 3))

    @given(lhs=st.integers(0, 10 ** 6), scale=st.integers(1, 10 ** 6),
           gamma=st.sampled_from([LogRatio(2, 3), F(2, 3), LogRatio(2, 5)]),
           j=st.integers(1, 4))
    def test_matches_scaled_pow_cmp(self, lhs, scale, gamma, j):
        eps = F(1, 3 ** j)
        assert scaled_pow_sign(F(8), eps, gamma)(lhs, scale) == \
            scaled_pow_cmp(F(lhs, scale), F(8), eps, gamma)


# decimal reference for the log_sign fallbacks, at 100 significant digits
_DEC = Context(prec=100)
_REF_TIE = Decimal("1e-80")
small_positive = st.fractions(min_value=F(1, 50), max_value=50, max_denominator=50)
# make_exponent, since a LogRatio of a rational pair is refused; most
# draws are irrational
log_ratios = st.builds(make_exponent, small_positive,
                       small_positive.filter(lambda x: x != 1))
exponents = st.one_of(log_ratios, rationals)


def _ln(x):
    x = F(x)
    return _DEC.divide(Decimal(x.numerator), Decimal(x.denominator)).ln(_DEC)


def _exponent_value(e):
    if isinstance(e, LogRatio):
        return _DEC.divide(_ln(e.top), _ln(e.base))
    return _DEC.divide(Decimal(e.numerator), Decimal(e.denominator))


def _reference_order(diff):
    assume(abs(diff) >= _REF_TIE)
    return 1 if diff > 0 else -1


# the reference value rounded to 6-25 significant digits: a near tie whose
# first enclosures straddle 0, so log_sign has to refine
near_digits = st.one_of(st.none(), st.integers(min_value=6, max_value=25))


def _near(value, digits):
    return F(Context(prec=digits).plus(value))


@settings(max_examples=200, deadline=None)
@given(a=exponents, b=exponents, digits=near_digits)
def test_exponent_cmp_matches_decimal(a, b, digits):
    if digits is not None:
        b = _near(_exponent_value(a), digits)
    want = _reference_order(_DEC.subtract(_exponent_value(a), _exponent_value(b)))
    assert exponent_cmp(a, b) == want
    assert exponent_cmp(b, a) == -want


@settings(max_examples=200, deadline=None)
@given(lhs=small_positive, coeff=small_positive, eps=small_positive,
       gamma=log_ratios, digits=near_digits)
def test_scaled_pow_cmp_matches_decimal(lhs, coeff, eps, gamma, digits):
    # ln lhs against ln coeff + gamma ln eps
    rhs = _DEC.add(_ln(coeff), _DEC.multiply(_exponent_value(gamma), _ln(eps)))
    if digits is not None:
        lhs = _near(rhs.exp(_DEC), digits)
    want = _reference_order(_DEC.subtract(_ln(lhs), rhs))
    assert scaled_pow_cmp(lhs, coeff, eps, gamma) == want


@settings(max_examples=200, deadline=None)
@given(e=st.one_of(exponents, st.just(LogRatio(2, 1 + F(1, 10 ** 15)))))
def test_exponent_bounds_enclose(e):
    # the second case has ln base far below 2**-32
    lo, hi = exponent_bounds(e)
    if isinstance(e, LogRatio):
        assert (lo * 2 ** 32).denominator == 1 == (hi * 2 ** 32).denominator
    else:
        assert lo == hi == e
    as_decimal = lambda f: _DEC.divide(Decimal(f.numerator), Decimal(f.denominator))
    assert as_decimal(lo) <= _exponent_value(e) <= as_decimal(hi)


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
