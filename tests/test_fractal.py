import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidtgame.cli import build_support
from schmidtgame.errors import SpecError
from schmidtgame.fractal import (AuditGrid, DecayParams, IFS, SimilarityMap,
                                 FractalMeasure, Verdict, audit_measure,
                                 binary_support, cantor_support, check_alpha,
                                 check_absolute_decay, check_efd,
                                 check_federer, check_power_law,
                                 decay_from_federer_efd, find_point_in_gap,
                                 lower_pointwise_dimension,
                                 max_alpha)
from schmidtgame.numerics import LogRatio, make_exponent


@pytest.fixture(scope="module")
def cantor():
    return FractalMeasure(cantor_support())


@pytest.fixture(scope="module")
def lebesgue():
    return FractalMeasure(binary_support())


@pytest.fixture(scope="module")
def cantor_decay():
    return decay_from_federer_efd((F(1, 3), F(1, 2)), (F(1, 3), F(1, 2)), 1)


class TestIFSValidation:
    def test_rejects_non_contraction(self):
        with pytest.raises(SpecError):
            SimilarityMap(F(3, 2), 0)

    def test_rejects_bad_weights(self):
        maps = [SimilarityMap(F(1, 3), 0), SimilarityMap(F(1, 3), F(2, 3))]
        with pytest.raises(SpecError):
            IFS(maps, [F(1, 2), F(1, 3)])
        with pytest.raises(SpecError):
            IFS(maps, [F(3, 2), F(-1, 2)])

    def test_rejects_overlapping_images(self):
        maps = [SimilarityMap(F(2, 3), 0), SimilarityMap(F(2, 3), F(1, 3))]
        ifs = IFS(maps, [F(1, 2), F(1, 2)])
        with pytest.raises(SpecError):
            from schmidtgame.fractal import FractalSupport
            FractalSupport(ifs, (F(0), F(1)))

    def test_rejects_shared_fixed_point(self):
        with pytest.raises(SpecError):
            IFS([SimilarityMap(F(1, 3), 0), SimilarityMap(F(1, 2), 0)],
                [F(1, 2), F(1, 2)])

    def test_json_round_trip(self):
        doc = {"maps": [{"r": "1/3", "a": "0"}, {"r": "1/3", "a": "2/3"}],
               "weights": ["1/2", "1/2"], "hull": ["0", "1"]}
        ifs = build_support(doc).ifs
        assert [(m.r, m.a) for m in ifs.maps] == [(F(1, 3), 0), (F(1, 3), F(2, 3))]
        assert ifs.weights == [F(1, 2), F(1, 2)]


class TestSupportPoints:
    def test_cantor_points(self):
        K = cantor_support()
        assert K.canonical_point == 0
        assert K.point((1,)) == F(2, 3)
        assert K.point((0, 1)) == F(2, 9)
        assert K.point((1, 0, 1)) == F(2, 3) + F(2, 27)

    def test_locate_recovers_word(self):
        K = cantor_support()
        for word in [(0,), (1, 0), (0, 1, 1), (1, 1, 0, 1)]:
            x = K.point(word)
            got = K.locate(x)
            assert got is not None and K.point(got) == x

    def test_locate_rejects_outsider(self):
        K = cantor_support()
        assert K.locate(F(1, 2), max_depth=12) is None

    def test_cylinder_geometry(self):
        K = cantor_support()
        x = K.point((1, 0))
        for n in K._walk(x, x, 2):
            if n.word == [1, 0]:
                lo, hi = F(n.lo, n.scale), F(n.hi, n.scale)
                mass = F(n.mass, K._V ** n.depth)
        assert (lo, hi) == (F(2, 3), F(2, 3) + F(1, 9))
        assert mass == F(1, 4)
        assert hi - lo == F(1, 9)


class TestLongWords:
    def test_1200_letters_walk_without_recursion_limit(self, cantor):
        K = cantor.support
        rng = random.Random(1200)
        w = tuple(rng.randrange(2) for _ in range(1199)) + (1,)
        x = K.point(w)
        assert [c.word for c in K.cylinders_meeting(x, x, 1200)] == [w]
        assert K.locate(x, max_depth=1500) == w
        lo, hi = cantor.ball_mass(x, F(1, 3 ** 1200), 1200)
        assert 0 < hi == F(1, 2 ** 1200)


class CountingMaps(list):
    """A support's integer maps that count the letters folded."""

    lookups = 0

    def __getitem__(self, i):
        self.lookups += 1
        return super().__getitem__(i)


class TestFoldMemo:
    def test_reverify_folds_no_letter_again(self):
        K = cantor_support()
        word = tuple(i % 2 for i in range(300))
        x = K.point(word)
        K._maps = maps = CountingMaps(K._maps)
        assert K.verify_point(x, word)
        assert K.verify_point(x, list(word))
        lo, _ = K._span(*K._affine(word))
        assert F(lo, K._H * K._Q ** len(word)) == x
        assert maps.lookups == 0
        longer = word + (1, 0)
        assert K.verify_point(K.point(longer), longer)
        assert maps.lookups == 2
        # same length, last letter changed: folded again from the root
        assert not K.verify_point(x, word[:-1] + (0,))
        assert maps.lookups == 2 + 300


class TestBallMass:
    def test_frozen_examples(self, cantor):
        assert cantor.ball_mass(0, F(1, 3), 2) == (F(1, 2), F(1, 2))
        lo, hi = cantor.ball_mass(F(1, 2), F(1, 6), 4)
        assert hi <= F(1, 8)  # the whole ball sits in the first deleted gap
        assert cantor.ball_mass(F(1, 2), 1, 1) == (F(1), F(1))

    def test_depth_monotonicity(self, cantor):
        rng = random.Random(3)
        for _ in range(40):
            c = F(rng.randint(0, 64), 64)
            r = F(rng.randint(1, 32), 96)
            prev = cantor.ball_mass(c, r, 1)
            for depth in range(2, 9):
                cur = cantor.ball_mass(c, r, depth)
                assert prev[0] <= cur[0] <= cur[1] <= prev[1]
                prev = cur

    def test_normalization(self, cantor, lebesgue):
        for measure in (cantor, lebesgue):
            for depth in range(1, 7):
                K = measure.support
                assert sum(F(n.mass, K._V ** depth)
                           for n in K._walk(F(0), F(1), depth)
                           if n.depth == depth) == 1

    def test_lebesgue_interior_is_length(self, lebesgue):
        # dyadic intervals resolve exactly: mass = length
        assert lebesgue.interval_mass(F(1, 4), F(5, 8), 6) == (F(3, 8), F(3, 8))

    def test_point_touch_is_null(self, cantor):
        # [1/3, 2/3] meets K in exactly two points; exact mass 0
        assert cantor.interval_mass(F(1, 3), F(2, 3), 3) == (F(0), F(0))


class TestFindPointInGap:
    def test_frozen_examples(self):
        K = cantor_support()
        got = find_point_in_gap(K, (F(0), F(1)), [(F(2, 5), F(3, 5))])
        assert got is not None
        x, word = got
        assert K.verify_point(x, word)
        assert not F(2, 5) <= x <= F(3, 5)

        got = find_point_in_gap(K, (F(0), F(1, 3)), [])
        assert got is not None and F(0) <= got[0] <= F(1, 3)

        assert find_point_in_gap(K, (F(2, 5), F(3, 5)), []) is None

    def test_fully_covered_inside(self):
        K = cantor_support()
        assert find_point_in_gap(K, (F(0), F(1)), [(F(-1), F(2))]) is None

    def test_membership_always_verifiable(self):
        K = cantor_support()
        rng = random.Random(11)
        for _ in range(60):
            lo = F(rng.randint(0, 80), 81)
            hi = lo + F(rng.randint(1, 30), 81)
            forb = []
            for _ in range(rng.randint(0, 3)):
                flo = F(rng.randint(0, 80), 81)
                forb.append((flo, flo + F(rng.randint(0, 20), 81)))
            got = find_point_in_gap(K, (lo, hi), forb)
            if got is not None:
                x, word = got
                assert K.verify_point(x, word)
                assert lo <= x <= hi
                assert all(not (a <= x <= b) for a, b in
                           [(min(p), max(p)) for p in forb])

    def test_degenerate_inside(self):
        K = cantor_support()
        got = find_point_in_gap(K, (F(2, 9), F(2, 9)), [])
        assert got is not None and got[0] == F(2, 9)
        assert find_point_in_gap(K, (F(1, 2), F(1, 2)), []) is None


class TestConversions:
    def test_combination_frozen(self):
        # gamma1 = log(1/4)/log(1/2) = 2, so C = 3^2 / (1/4 * 1/4)
        dp = decay_from_federer_efd((F(1, 2), F(1, 4)), (F(1, 4), F(1, 4)), 1)
        assert (dp.C, dp.gamma, dp.rho0) == (F(144), F(1), F(1, 3))

    def test_argument_order(self):
        # swapped, gamma1 = 1 and gamma = 2: C = 3 / (1/4 * 1/4)
        dp = decay_from_federer_efd((F(1, 4), F(1, 4)), (F(1, 2), F(1, 4)), 1)
        assert (dp.C, dp.gamma) == (F(48), F(2))

    @pytest.mark.parametrize("bad", [(F(1, 3), F(3, 2)), (F(1), F(1, 2)),
                                     (F(0), F(1, 2)), (F(1, 3), F(1))])
    def test_out_of_range_pair_rejected(self, bad):
        good = (F(1, 3), F(1, 2))
        for federer, efd in ((bad, good), (good, bad)):
            with pytest.raises(SpecError, match="0 < eps0, delta < 1"):
                decay_from_federer_efd(federer, efd, 1)

    def test_cantor_pipeline(self, cantor_decay):
        assert cantor_decay.C == 8
        assert cantor_decay.gamma == LogRatio(2, 3)
        assert cantor_decay.rho0 == F(1, 3)

    def test_irrational_C_rejected(self):
        with pytest.raises(SpecError):
            decay_from_federer_efd((F(1, 5), F(1, 2)), (F(1, 2), F(1, 2)), 1)


class TestAlphaBound:
    def test_cantor_max_alpha(self, cantor_decay):
        a = max_alpha(cantor_decay)
        assert a == F(3, 2048)
        assert check_alpha(a, cantor_decay)
        assert not check_alpha(a + F(1, 4096), cantor_decay)

    def test_exact_boundary(self):
        # C=1/3, gamma=1: bound is alpha <= 1/4 exactly
        dp = DecayParams(F(1, 3), F(1), 1)
        assert check_alpha(F(1, 4), dp)
        assert not check_alpha(F(1, 4) + F(1, 1000), dp)


class TestAudits:
    def test_lebesgue_decay_passes(self, lebesgue):
        grid = AuditGrid.default(lebesgue.support, 1)
        out = check_absolute_decay(lebesgue, DecayParams(2, F(1), 1), grid)
        assert out.verdict is Verdict.PASS

    def test_cantor_decay_passes(self, cantor, cantor_decay):
        grid = AuditGrid.default(cantor.support, cantor_decay.rho0)
        out = check_absolute_decay(cantor, cantor_decay, grid)
        assert out.verdict is Verdict.PASS

    def test_cantor_small_C_fails_with_witness(self, cantor, cantor_decay):
        grid = AuditGrid.default(cantor.support, F(1, 3))
        bad = DecayParams(F(1, 10), cantor_decay.gamma, F(1, 3))
        out = check_absolute_decay(cantor, bad, grid)
        assert out.verdict is Verdict.FAIL
        # the failing row is the last: re-check the single violating tuple
        w = out.rows[-1].point
        single = AuditGrid(xs=[w["x"]], rhos=[w["rho"]], eps=[w["eps"]],
                           offsets=[(w["y"] - w["x"]) / w["rho"]])
        again = check_absolute_decay(cantor, bad, single)
        assert again.verdict is Verdict.FAIL

    def test_lebesgue_federer_efd(self, lebesgue):
        grid = AuditGrid.default(lebesgue.support, 1)
        assert check_federer(lebesgue, F(1, 2), F(1, 2), grid).passed
        assert check_efd(lebesgue, F(1, 2), F(3, 4), grid).passed

    def test_cantor_federer(self, cantor):
        grid = AuditGrid.default(cantor.support, F(1, 3))
        assert check_federer(cantor, F(1, 3), F(1, 2), grid).passed
        assert check_efd(cantor, F(1, 3), F(1, 2), grid).passed

    def test_power_law(self, cantor, lebesgue):
        grid_l = AuditGrid.default(lebesgue.support, 1)
        assert check_power_law(lebesgue, 1, 2, F(1), grid_l).passed
        grid_c = AuditGrid.default(cantor.support, F(1, 3))
        assert check_power_law(cantor, F(1, 4), 4, LogRatio(2, 3), grid_c).passed
        out = check_power_law(cantor, F(1, 4), 4, F(1), grid_c)
        assert out.verdict is Verdict.FAIL

    def test_audit_measure_pipeline(self, cantor):
        grid = AuditGrid.default(cantor.support, F(1, 3))
        pair = (F(1, 3), F(1, 2))
        report = audit_measure(cantor, grid, federer=pair, efd=pair,
                               decay=decay_from_federer_efd(pair, pair, 1),
                               power_law=(F(1, 4), 4, LogRatio(2, 3)))
        assert report.all_passed
        assert [o.check for o in report.outcomes] == [
            "federer", "efd", "absolute_decay", "power_law"]
        assert report.decay.C == 8
        rows = report.csv_rows()
        assert rows[0] == ["check", "params", "grid_point", "verdict"]
        assert all(r[3] == "pass" for r in rows[1:])

    def test_decay_implies_efd_constants(self, cantor, cantor_decay):
        # with x = y the decay inequality is an efd bound with c = C
        grid = AuditGrid.default(cantor.support, cantor_decay.rho0)
        for eps in grid.eps:
            out = check_efd(cantor, eps, min(F(8) * eps ** 0, F(99, 100)), grid)
            # delta = min(C eps^gamma, ~1): for eps = 3^-j this is 8 * 2^-j
            delta = F(8, 2 ** ([F(1, 3), F(1, 9), F(1, 27)].index(eps) + 1))
            if delta < 1:
                assert check_efd(cantor, eps, delta, grid).passed


class TestDimension:
    def test_cantor_exact_at_powers(self, cantor):
        ests = lower_pointwise_dimension(cantor, 0, [F(1, 3) ** k for k in range(1, 13)])
        bound = LogRatio(2, 3)
        for e in ests:
            assert e.value == bound

    def test_lebesgue_interior(self, lebesgue):
        # mass of B(1/2, 2^-k) is 2^(1-k), so the estimate is (k-1)/k -> 1
        ests = lower_pointwise_dimension(lebesgue, F(1, 2), [F(1, 2) ** k for k in range(2, 9)])
        for k, e in zip(range(2, 9), ests):
            assert e.value == F(k - 1, k)

    def test_mass_zero_scale(self, cantor):
        # the mass bounds of B(1/3, 1/12) are 5/32 and 3/16 at the
        # estimate's depth: they do not meet, so the scale gives no value
        est = lower_pointwise_dimension(cantor, F(1, 3), [F(1, 12)])[0]
        assert est.value is None
