import itertools
import math
import random
import time
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from schmidtgame import alice, cli
from schmidtgame.alice import (BAStrategy, BiLipschitzMap, ConstTargets,
                               ExcludeCountable, GeometricTerms,
                               InterleaveStrategy, LacunarySpec,
                               LacunaryStrategy, ListTargets, ListTerms,
                               IDENTITY as ID, PeriodicTargets,
                               affine_to_sequence, avoidance_step,
                               ba_band_top)
from schmidtgame.bob import GreedyBob, KeepCenterBob
from schmidtgame.errors import (HorizonMismatch, InvariantViolation,
                                NoPointFound, SpecError)
from schmidtgame.cli import bundled_spec_path, main
from schmidtgame.fractal import (DecayParams, FractalSupport, cantor_support,
                                 decay_from_federer_efd, max_alpha)
from schmidtgame.game import (Ball, GameParams, HoldCenter, outcome_interval,
                              run_game, validate_transcript)
from schmidtgame.numerics import circle_dist, fractions_in_interval

from circle_reference import circle_dist_range


@pytest.fixture(scope="module")
def K():
    return cantor_support()


@pytest.fixture(scope="module")
def cantor_decay():
    return decay_from_federer_efd((F(1, 3), F(1, 2)), (F(1, 3), F(1, 2)), F(1))


@pytest.fixture(scope="module")
def cantor_alpha(cantor_decay):
    return max_alpha(cantor_decay)


# a permissive synthetic decay so alpha = 1/4 passes the admissibility check
LOOSE = DecayParams(C=F(1, 4), gamma=F(1), rho0=F(1))
QUARTER = GameParams(F(1, 4), F(1, 4))


def lac2():
    return LacunarySpec(GeometricTerms(F(2)), ConstTargets(F(0)))


def planned(spec, phi=ID):
    """A lacunary strategy planned for QUARTER from the unit ball."""
    return LacunaryStrategy(spec, phi, LOOSE).plan(QUARTER, Ball(F(0), F(1)))


class TestBiLipschitzMap:
    def test_identity_and_affine(self):
        assert ID.apply(F(5, 7)) == F(5, 7)
        assert ID.lipschitz == 1
        m = BiLipschitzMap((), (F(-2),), (F(0), F(3)))
        assert m.apply(F(1, 2)) == 2
        assert m.inverse(2) == F(1, 2)
        assert m.lipschitz == 2

    def test_two_piece(self):
        # slope 2 left of 0, slope 1/3 right, continuous through (0, 1)
        m = BiLipschitzMap((F(0),), (F(2), F(1, 3)), (F(0), F(1)))
        assert m.apply(F(-1)) == -1
        assert m.apply(F(3)) == 2
        assert m.inverse(2) == 3
        assert m.inverse(-1) == -1
        assert m.lipschitz == 3
        assert m.preimage_ball(F(1, 2), F(3, 2)) == (F(1), F(2))

    def test_apply_inverse_round_trip(self):
        rng = random.Random(7)
        m = BiLipschitzMap((F(-1), F(1, 2)), (F(3, 2), F(1, 2), F(4)),
                           (F(-1), F(-2)))
        for _ in range(200):
            x = F(rng.randint(-50, 50), rng.randint(1, 20))
            assert m.inverse(m.apply(x)) == x

    def test_random_maps_against_slope_sums(self):
        # increasing and decreasing maps with 0-4 breakpoints, evaluated on
        # the breakpoints, between them and far outside them; the reference
        # sums slope * length over the pieces between the anchor and x
        rng = random.Random(17)

        def reference(m, x):
            x0, y0 = m.anchor
            lo, hi = sorted((x0, x))
            # piece i runs from ends[i] to ends[i + 1]
            ends = [None, *m.breakpoints, None]
            total = 0
            for i, s in enumerate(m.slopes):
                a = lo if ends[i] is None else max(lo, ends[i])
                b = hi if ends[i + 1] is None else min(hi, ends[i + 1])
                total += s * max(b - a, 0)
            return y0 + total if x >= x0 else y0 - total

        for trial in range(200):
            n = rng.randint(0, 4)
            cuts = sorted({F(rng.randint(-40, 40), rng.randint(1, 6))
                           for _ in range(n)})
            sign = 1 if trial % 2 else -1
            slopes = tuple(sign * F(rng.randint(1, 30), rng.randint(1, 10))
                           for _ in range(len(cuts) + 1))
            x0 = cuts[0] if cuts else F(rng.randint(-9, 9), rng.randint(1, 4))
            m = BiLipschitzMap(tuple(cuts), slopes, (x0, F(rng.randint(-9, 9))))
            xs = list(cuts) + [c + F(1, 7) for c in cuts] + [
                F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 9))
                for _ in range(4)] + [F(-10 ** 9), F(10 ** 9)]
            for x in xs:
                assert m.apply(x) == reference(m, x), (m, x)
                assert m.inverse(m.apply(x)) == x, (m, x)

    def test_lipschitz_bound_property(self):
        m = BiLipschitzMap((F(0),), (F(2), F(1, 3)), (F(0), F(0)))
        L = m.lipschitz
        rng = random.Random(11)
        for _ in range(100):
            x = F(rng.randint(-40, 40), rng.randint(1, 9))
            y = F(rng.randint(-40, 40), rng.randint(1, 9))
            if x == y:
                continue
            ratio = abs(m.apply(x) - m.apply(y)) / abs(x - y)
            assert 1 / L <= ratio <= L

    def test_validation(self):
        with pytest.raises(SpecError):
            BiLipschitzMap((), (F(0),), (F(0), F(0)))
        with pytest.raises(SpecError):
            BiLipschitzMap((F(0),), (F(1), F(-1)), (F(0), F(0)))
        with pytest.raises(SpecError):
            BiLipschitzMap((F(1), F(0)), (F(1), F(1), F(1)), (F(1), F(0)))

    def test_json_round_trip(self):
        m = BiLipschitzMap((F(0), F(1)), (F(2), F(1, 2), F(3)), (F(0), F(5)))
        back = BiLipschitzMap.from_json(m.to_json())
        assert back == m


class TestRules:
    def test_geometric_tail_shift(self):
        t = GeometricTerms(F(2), scale=F(1, 8))
        # 2/8, 4/8, 8/8 are all <= 1; first kept term is 2
        assert t.term(1) == 2 and t.term(2) == 4

    def test_tail_shift_matches_linear_definition(self):
        for base in (F(2), F(3, 2), F(16), F(1001, 1000)):
            for scale in (F(1), F(1, 8), F(1, 7), F(2, 3), F(5), F(1, 10 ** 3)):
                s, t = 1, scale * base
                while t <= 1:
                    s, t = s + 1, t * base
                assert GeometricTerms(base, scale).shift == s - 1
        # a linear scan takes seconds here
        assert GeometricTerms(F(3, 2), F(1, 10 ** 3000)).shift == 17036

    @pytest.mark.parametrize("base", [F(2), F(9, 4), F(1001, 1000)],
                             ids=["2", "9_over_4", "1001_over_1000"])
    def test_tail_shift_on_powers_and_near_ties(self, base):
        # scale base^-j is the tie scale*base^j = 1, so j is the shift;
        # scales a factor 1 +- 2^-k off it are decided on logarithms, past
        # log_sign's 1,024-bit cap on one exact power
        def linear_shift(scale):
            s, t = 1, scale * base
            while t <= 1:
                s, t = s + 1, t * base
            return s - 1
        scales = [base ** -j for j in (0, 1, 2, 7, 40)]
        scales += [base ** -j * (1 + sign * F(1, 2 ** k)) for j in (1, 7, 40)
                   for k in (3, 200, 1100) for sign in (1, -1)]
        # rational exponents that are not integers: (2/3)^5 = (9/4)^(-5/2)
        scales += [F(2, 3) ** 5, F(3, 2) ** 3, F(1, 2), F(8)]
        for scale in scales:
            assert GeometricTerms(base, scale).shift == linear_shift(scale)

    def test_tail_shift_is_quick(self):
        # exact powers took 7.5 s here: about 36 probes, the last near
        # base^230373, a number of millions of bits
        start = time.perf_counter()
        assert GeometricTerms(F(1001, 1000), F(1, 10 ** 100)).shift == 230373
        assert time.perf_counter() - start < 0.5

    def test_list_terms_drop_and_ratio(self):
        t = ListTerms((F(1, 2), F(1), F(3), F(6), F(12)), F(2))
        assert t.term(1) == 3 and t.horizon == 3
        with pytest.raises(HorizonMismatch):
            t.term(4)
        with pytest.raises(SpecError):
            ListTerms((F(2), F(3)), F(2))  # ratio 3/2 < declared 2

    def test_targets(self):
        assert ConstTargets(F(7, 3)).target(5) == F(1, 3)
        p = PeriodicTargets((F(0), F(1, 2)))
        assert [p.target(n) for n in (1, 2, 3, 4)] == [0, F(1, 2), 0, F(1, 2)]
        l = ListTargets((F(1, 4), F(3, 4)))
        assert l.target(2) == F(3, 4)
        with pytest.raises(HorizonMismatch):
            l.target(3)

    def test_spec_lacunarity_guard(self):
        with pytest.raises(SpecError):
            LacunarySpec(GeometricTerms(F(2)), ConstTargets(F(0)),
                         lacunarity=F(3))
        s = LacunarySpec(GeometricTerms(F(2)), ConstTargets(F(0)))
        assert s.lacunarity == 2

    def test_spec_json_round_trip(self):
        s = LacunarySpec(GeometricTerms(F(3), F(1, 2)),
                         PeriodicTargets((F(0), F(1, 2))))
        back = LacunarySpec.from_json(s.to_json())
        assert back.terms.term(4) == s.terms.term(4)
        assert back.targets.target(2) == F(1, 2)
        assert back.lacunarity == 3


class TestAvoidanceStep:
    def test_no_points_keeps_center(self, K):
        got, kept = avoidance_step(K, Ball(F(1, 3), F(1, 9)), F(1, 12), [])
        assert got == (F(1, 3), None) and kept == []

    def test_far_point_keeps_center(self, K):
        got, kept = avoidance_step(K, Ball(F(0), F(1, 9)), F(1, 12), [F(10)])
        assert got == (0, None) and kept == []

    def test_crowded_with_oversized_alpha_has_no_exit(self, K):
        # alpha = 1/12 is far above the decay bound for this support: the
        # crowded branch must leave [x-rho, x+rho] minus three balls of
        # radius 4*alpha*rho, and that region misses the support entirely.
        with pytest.raises(NoPointFound):
            avoidance_step(K, Ball(F(1, 3), F(1, 9)), F(1, 12), [F(1, 3)])

    def test_crowded_with_valid_alpha(self, K, cantor_alpha):
        a = cantor_alpha
        rho = F(1, 9)
        (center, word), kept = avoidance_step(K, Ball(F(1, 3), rho), a,
                                              [F(1, 3)])
        assert kept == []
        assert abs(center - F(1, 3)) > 2 * a * rho
        assert abs(center - F(1, 3)) <= rho - a * rho
        assert K.verify_point(center, word)

    def test_alpha_domain(self, K):
        with pytest.raises(SpecError, match="avoidance ratio"):
            avoidance_step(K, Ball(F(0), F(1, 3)), F(2), [])

    def test_randomized_postconditions(self, K, cantor_alpha):
        # the containment and distance guarantees, asserted exactly
        rng = random.Random(20260814)
        a = cantor_alpha
        for _ in range(200):
            d = rng.randint(1, 6)
            word = tuple(rng.choice((0, 1)) for _ in range(d))
            center = K.point(word)
            rho = K.diameter * K.contraction ** d / rng.choice((1, 2, 4))
            n_pts = rng.randint(0, 7)
            pts = []
            for _ in range(n_pts):
                off = F(rng.randint(-8, 8), rng.randint(1, 64))
                pts.append(center + off * rho)
            ball = Ball(center, rho, word)
            (x, w), kept = avoidance_step(K, ball, a, pts)
            # the ball the engine builds from the answer has radius a*rho
            r = a * rho
            assert abs(x - center) <= rho - r
            assert K.verify_point(x, w)
            cleared = [y for y in pts if abs(y - x) - r > r]
            assert 2 * len(cleared) >= len(pts)
            # the points kept are exactly those within 2*alpha*rho, in order
            assert kept == [y for y in pts if abs(y - x) <= 2 * r]

    def test_gap_search_starts_at_the_ball(self, tmp_path, monkeypatch):
        # a search from the root walks the whole path down to the ball's
        # cylinder, up to 976 nodes in this game; from the ball, a few
        counts, searching = [], []
        real_walk, real_find = FractalSupport._walk, alice.find_point_in_gap

        def walk(self, *args):
            for node in real_walk(self, *args):
                if searching:
                    counts[-1] += 1
                yield node

        def find(*args, **kwargs):
            counts.append(0)
            searching.append(True)
            try:
                return real_find(*args, **kwargs)
            finally:
                searching.pop()

        monkeypatch.setattr(FractalSupport, "_walk", walk)
        monkeypatch.setattr(alice, "find_point_in_gap", find)
        assert main(["play", "--spec", bundled_spec_path("cantor_triple.json"),
                     "--rounds", "200", "--out", str(tmp_path)]) == 0
        assert counts and max(counts) <= 8


class TestPlanLacunary:
    def test_minimal_capacity_frozen(self):
        st = planned(lac2())
        assert (st.N, st.r) == (20, 5)
        assert (st.k0, st.rho) == (2, F(1, 16))
        assert st.c == F(1, 16) ** 16

    def test_boundary_equality_capacity(self):
        spec = LacunarySpec(GeometricTerms(F(16)), ConstTargets(F(0)))
        st = planned(spec)
        assert (st.N, st.r) == (1, 1)

    def test_rho_bound_with_small_rho0(self):
        st = LacunaryStrategy(lac2(), decay=DecayParams(F(1, 4), F(1),
                                                         F(1, 100)))
        st.plan(QUARTER, Ball(F(0), F(1)))
        assert st.rho < F(1, 100)
        assert st.rho == F(1, 16) ** (st.k0 - 1)

    def test_inadmissible_alpha(self, cantor_decay):
        with pytest.raises(SpecError, match="alpha exceeds"):
            LacunaryStrategy(lac2(), decay=cantor_decay).plan(
                QUARTER, Ball(F(0), F(1)))

    @pytest.mark.parametrize("M", [F(3, 2), F(2), F(3), F(11, 10), F(16),
                                   F(17)])
    def test_capacity_matches_linear_search(self, M):
        spec = LacunarySpec(GeometricTerms(M), ConstTargets(F(0)))
        st = planned(spec)
        N = 1
        while 16 ** N.bit_length() > M ** N:
            N += 1
        assert st.N == N

    # N = 2**r - 1 is a band's last N.  A band's first N = 2**(r - 1)
    # answers only at r = 1: for r >= 2 the band below fails at its top,
    # ln inv / ln M > (N - 1)/(r - 1) >= N/r, so N fails too
    @pytest.mark.parametrize("inv, M, N", [
        (F(2), F(2), 1), (F(3), F(10), 1), (F(4), F(3), 3), (F(16), F(10), 3),
        (F(9, 2), F(2), 7), (F(16), F(7, 2), 7), (F(9, 2), F(3, 2), 15),
        (F(16), F(11, 5), 15), (F(16), F(157, 100), 31), (F(3), F(5, 4), 25),
        (F(100), F(33, 32), 1647)])
    def test_capacity_search_ends(self, inv, M, N):
        scan = next(n for n in itertools.count(1)
                    if inv ** n.bit_length() <= M ** n)
        assert alice._block_capacity(inv, M) == scan == N

    def test_capacity_with_lacunarity_near_one(self, cantor_decay,
                                               cantor_alpha):
        # M near 1 makes N large; the search must not step N one by one
        spec = LacunarySpec(GeometricTerms(F(101, 100)), ConstTargets(F(0)))
        st = LacunaryStrategy(spec, decay=cantor_decay).plan(
            GameParams(cantor_alpha, F(1, 4)), Ball(F(0), F(1)))
        assert (st.N, st.r) == (11133, 14)
        inv, M = 1 / st.ab, spec.lacunarity
        assert inv ** st.r <= M ** st.N
        assert inv ** (st.N - 1).bit_length() > M ** (st.N - 1)


class TestIndexBlock:
    def test_blocks_frozen(self):
        st = planned(lac2())
        assert st.index_block(1) == list(range(1, 20))
        assert st.index_block(2) == list(range(20, 40))

    def test_one_term_per_block(self):
        # terms 16^n / 2 with ratio 16: each block holds exactly one index
        spec = LacunarySpec(GeometricTerms(F(16), F(1, 2)), ConstTargets(F(0)))
        st = planned(spec)
        assert st.r == 1
        for k in (1, 2, 3, 7):
            assert st.index_block(k) == [k]


    @pytest.mark.parametrize("spec", [
        lac2(),
        LacunarySpec(GeometricTerms(F(16), F(1, 2)), ConstTargets(F(0))),
        LacunarySpec(GeometricTerms(F(5, 2), F(1, 1000)), ConstTargets(F(0))),
        LacunarySpec(ListTerms(tuple(F(2) ** n for n in range(1, 120)), F(2)),
                     ConstTargets(F(0)))])
    def test_blocks_match_terms_from_one(self, spec):
        st = planned(spec)
        inv = 1 / st.ab
        last = spec.terms.horizon or 10 ** 6
        for k in range(1, 41):
            lower, upper = inv ** (st.r * (k - 1)), inv ** (st.r * k)
            want = []
            for n in range(1, last + 1):
                t = spec.terms.term(n)
                if t >= upper:
                    break
                if t >= lower:
                    want.append(n)
            assert st.index_block(k) == want


def danger_set(spec, ball, phi=ID):
    """The distinct translates of block 1 inside the ball, sorted."""
    entries = planned(spec, phi)._danger_entries(1, ball.center, ball.radius)
    return sorted({z for _, _, z in entries})


class TestDangerSet:
    def test_single_translate(self):
        spec = LacunarySpec(ListTerms((F(32),), F(2)), ConstTargets(F(0)))
        got = danger_set(spec, Ball(F(1, 3), F(1, 64)))
        assert got == [F(11, 32)]

    def test_no_translate_in_tiny_ball(self):
        spec = LacunarySpec(ListTerms((F(32),), F(2)), ConstTargets(F(1, 2)))
        assert danger_set(spec, Ball(F(0), F(1, 100))) == []

    def test_far_ball_empty(self):
        spec = LacunarySpec(ListTerms((F(32),), F(2)), ConstTargets(F(0)))
        assert danger_set(spec, Ball(F(1, 128), F(1, 1000))) == []

    def test_phi_preimage_enumeration(self):
        # under x -> 2x the ball [2/3-1/32, 2/3+1/32] pulls back to
        # [1/3-1/64, 1/3+1/64], so the same translate answers, mapped forward
        phi = BiLipschitzMap((), (F(2),), (F(0), F(0)))
        spec = LacunarySpec(ListTerms((F(32),), F(2)), ConstTargets(F(0)))
        got = danger_set(spec, Ball(F(2, 3), F(1, 32)), phi)
        assert got == [F(11, 16)]


def orbit_claim_holds(strategy, lo, hi):
    """Exhaustively check circle separation over every covered term."""
    spec, c = strategy.spec, strategy.c
    bound = (1 / strategy.ab) ** (strategy.r * strategy.blocks_cleared)
    u, v = sorted(map(strategy.phi.inverse, (lo, hi)))
    n = 0
    for n in range(1, (spec.terms.horizon or 10 ** 6) + 1):
        t = spec.terms.term(n)
        if t >= bound:
            break
        y = spec.targets.target(n)
        dmin, _ = circle_dist_range(t * u, t * v, y)
        if dmin < c:
            return False, n
    return True, n


class TestLacunaryEndToEnd:
    def test_cantor_50_rounds(self, K, cantor_decay, cantor_alpha):
        params = GameParams(cantor_alpha, F(1, 4))
        alice = LacunaryStrategy(lac2(), decay=cantor_decay)
        t = run_game(K, params, alice, KeepCenterBob(), rounds=50)
        assert (alice.N, alice.r, alice.k0) == (80, 7, 2)
        assert alice.blocks_cleared == 5
        assert alice.c == alice.rho * alice.ab ** 21
        lo, hi = outcome_interval(t)
        ok, last_n = orbit_claim_holds(alice, lo, hi)
        assert ok and last_n >= 399
        validate_transcript(t, K)

    def test_single_point_blocks(self, K, cantor_decay, cantor_alpha):
        # lacunarity above 1/(alpha*beta) gives N = 1, r = 1: every block
        # is cleared by a single avoidance step
        spec = LacunarySpec(GeometricTerms(F(2731)), ConstTargets(F(1, 2)))
        params = GameParams(cantor_alpha, F(1, 4))
        alice = LacunaryStrategy(spec, decay=cantor_decay)
        t = run_game(K, params, alice, KeepCenterBob(), rounds=20)
        assert (alice.N, alice.r) == (1, 1)
        assert alice.blocks_cleared == 18
        lo, hi = outcome_interval(t)
        ok, _ = orbit_claim_holds(alice, lo, hi)
        assert ok

    def test_piecewise_phi_run(self, K, cantor_decay, cantor_alpha):
        phi = BiLipschitzMap((), (F(3, 2),), (F(0), F(1, 7)))
        params = GameParams(cantor_alpha, F(1, 4))
        alice = LacunaryStrategy(lac2(), phi=phi, decay=cantor_decay)
        t = run_game(K, params, alice, KeepCenterBob(), rounds=45)
        assert alice.phi.lipschitz == F(3, 2)
        lo, hi = outcome_interval(t)
        ok, _ = orbit_claim_holds(alice, lo, hi)
        assert ok


class TestPlanBA:
    def test_growth_rate_frozen(self):
        st = BAStrategy(decay=LOOSE).plan(GameParams(F(1, 4), F(1, 9)),
                                          Ball(F(0), F(1)))
        assert 1 / st.ab == 36

    def test_plan_cantor_frozen(self, cantor_decay, cantor_alpha):
        st = BAStrategy(decay=cantor_decay).plan(
            GameParams(cantor_alpha, F(1, 4)), Ball(F(0), F(1)))
        ab = cantor_alpha / 4
        assert st.k0 == 4 and st.rho == ab ** 3
        assert st.c == st.rho / F(1, 4)
        assert st.rho < min(ab / 2, F(1, 3))

    @pytest.mark.parametrize("ab", [F(1, 4), F(2, 9)])
    def test_band_low_end_as_integer(self, ab):
        # block k keeps q with q^2 (alpha*beta)^(k-1) >= 1, tested as
        # q > ba_band_top(ab, k - 1)
        for k in range(1, 41):
            below = ba_band_top(ab, k - 1)
            for q in range(max(1, below - 3), below + 4):
                assert (q > below) == (q * q * ab ** (k - 1) >= 1), (k, q)
            if ab == F(1, 4):  # the exact tie q = 2^(k-1) is kept
                assert below + 1 == 2 ** (k - 1)

    def test_inadmissible_alpha(self, cantor_decay):
        with pytest.raises(SpecError, match="alpha exceeds"):
            BAStrategy(decay=cantor_decay).plan(GameParams(F(1, 5), F(1, 4)),
                                                Ball(F(0), F(1)))


class TestBAEndToEnd:
    def test_block_candidate_enumeration(self):
        st = BAStrategy(decay=LOOSE).plan(GameParams(F(1, 4), F(1, 9)),
                                          Ball(F(0), F(1)))
        got = st._block_points(1, Ball(F(1, 2), F(1, 100)), F(1, 2),
                               F(1, 100))
        assert got == [F(1, 2)]

    def test_preview_keeps_the_nearest_candidate(self):
        # the preview searches widening windows about the center; wherever
        # the whole ball holds at most 16 candidates, greedy Bob's goal (the
        # nearest) is the one the complete list gives
        ba = BAStrategy(decay=LOOSE).plan(GameParams(F(1, 4), F(1, 9)),
                                          Ball(F(0), F(1)))
        rng = random.Random(11)
        hits = 0
        for _ in range(400):
            ba.blocks_cleared = rng.randint(0, 2)
            ball = Ball(F(rng.randint(0, 10 ** 4), 10 ** 4),
                        F(1, rng.randint(10, 10 ** 5)))
            k = ba.blocks_cleared + 1
            full = ba._block_points(k, ball, ball.center, ball.radius)
            if len(full) > 16:
                continue
            near = min(full, key=lambda z: abs(z - ball.center), default=None)
            got = ba.danger_preview(ball)
            assert min(got, key=lambda z: abs(z - ball.center),
                       default=None) == near
            hits += near is not None
        assert hits >= 50

    def test_cantor_40_rounds(self, K, cantor_decay, cantor_alpha):
        params = GameParams(cantor_alpha, F(1, 4))
        ba = BAStrategy(decay=cantor_decay)
        t = run_game(K, params, ba, KeepCenterBob(), rounds=40)
        assert ba.blocks_cleared == 38
        lo, hi = outcome_interval(t)
        c = ba.c
        for f in fractions_in_interval(lo - c, hi + c, 10 ** 6):
            d = max(F(0), lo - f, f - hi)
            assert d > c / f.denominator ** 2
        validate_transcript(t, K)


class TestExcludeCountable:
    def test_excludes_current_center(self, K, cantor_alpha):
        params = GameParams(cantor_alpha, F(1, 4))
        alice = ExcludeCountable([F(0)])
        t = run_game(K, params, alice, KeepCenterBob(), rounds=3)
        lo, hi = outcome_interval(t)
        assert lo > 0 or hi < 0  # the excluded point is outside

    def test_waits_for_rho0(self, K, cantor_alpha):
        params = GameParams(cantor_alpha, F(1, 4))
        alice = ExcludeCountable([F(0)], rho0=F(1, 10))
        t = run_game(K, params, alice, KeepCenterBob(), rounds=4)
        # first move happens while radius 1 > 1/10: held center
        assert t.moves[1][1].center == t.moves[0][1].center
        lo, hi = outcome_interval(t)
        assert lo > 0 or hi < 0

    def test_empty_list_is_canonical(self, K, cantor_alpha):
        params = GameParams(cantor_alpha, F(1, 4))
        a = ExcludeCountable([])
        t = run_game(K, params, a, KeepCenterBob(), rounds=3)
        assert all(b.center == t.moves[0][1].center for _, b in t.moves)


# both danger sources, on the schedule that ClearingStrategy runs
SOURCES = {"lacunary": lambda: LacunaryStrategy(lac2(), decay=LOOSE),
           "ba": lambda: BAStrategy(decay=LOOSE)}


def at_block_one(kind, opening=Ball(F(0), F(1))):
    """A strategy planned for QUARTER whose next move opens block 1."""
    st = SOURCES[kind]().plan(QUARTER, opening)
    st.turn = st.start - 1
    return st


@pytest.mark.parametrize("kind", SOURCES)
class TestScheduleFailsClosed:
    def test_off_schedule_radius(self, K, kind):
        # block 1's radius check is also lacunary's check that the warm-up
        # landed on rho: under classical radii the two are one condition
        st = at_block_one(kind)
        with pytest.raises(InvariantViolation, match="off schedule at block 1"):
            st.move(K, QUARTER, Ball(F(0), 2 * st.rho_start))

    def test_off_schedule_radius_past_the_digit_limit(self, K, kind):
        # str() of these radii raises ValueError (over 4,300 digits), which
        # the CLI would report as bad input; the message gives bit sizes
        st = at_block_one(kind, Ball(F(0), F(1, 3 ** 9000)))
        with pytest.raises(InvariantViolation, match="bits"):
            st.move(K, QUARTER, Ball(F(0), st.rho_start / 2))

    def test_capacity_check(self, K, kind, monkeypatch):
        st = at_block_one(kind)
        crowd = [F(i, 10 ** 9) for i in range(st.N + 1)]
        monkeypatch.setattr(st, "_block_points", lambda *args: crowd)
        with pytest.raises(InvariantViolation, match="capacity"):
            st.move(K, QUARTER, Ball(F(0), st.rho_start))

    def test_halving_check(self, K, kind, monkeypatch):
        st = at_block_one(kind)
        # N points within a quarter radius of the center
        crowd = [i * st.rho_start / (4 * st.N) for i in range(st.N)]
        monkeypatch.setattr(st, "_block_points", lambda *args: crowd)
        # a gap search that answers the center leaves the whole crowd near
        # the ball: the avoidance step's own check must stop the move
        monkeypatch.setattr(alice, "find_point_in_gap",
                            lambda support, interval, gaps, word:
                            (sum(interval) / 2, word))
        with pytest.raises(InvariantViolation, match="fewer than half"):
            st.move(K, QUARTER, Ball(F(0), st.rho_start))

    def test_margin_tie_is_no_violation(self, K, kind, monkeypatch):
        # a cleared point exactly radius + margin from the block's final
        # center sits on the margin, not inside it
        monkeypatch.setattr(alice, "avoidance_step",
                            lambda support, ball, a, points:
                            ((ball.center, ball.word), []))
        for inside in (False, True):
            st = at_block_one(kind)
            final = QUARTER.alpha * st.ab ** (st.r - 1) * st.rho_start
            edge = final + st.spread * st.rho_start - inside * final / 10 ** 6
            monkeypatch.setattr(st, "_block_points", lambda *args: [edge])
            bob = Ball(F(0), st.rho_start)
            for turn in range(st.r):
                if inside and turn == st.r - 1:
                    with pytest.raises(InvariantViolation,
                                       match="inside the margin"):
                        st.move(K, QUARTER, bob)
                    break
                center, word = st.move(K, QUARTER, bob)
                bob = Ball(center, st.ab * bob.radius, word)
            else:
                assert st.blocks_cleared == 1 and bob.radius == \
                    QUARTER.beta * final


class TestInterleave:
    def test_overlap_rejected(self):
        # in the second, turns 1-8 have one owner each and turn 9 has two
        for schedule in ([(1, 2), (3, 2)],
                         [(1, 2), (2, 4), (4, 8), (8, 8), (9, 16)]):
            with pytest.raises(SpecError, match="owners"):
                InterleaveStrategy([HoldCenter()] * len(schedule), schedule)

    def test_gap_rejected(self):
        with pytest.raises(SpecError, match="owners"):
            InterleaveStrategy([HoldCenter(), HoldCenter()], [(1, 3), (2, 3)])

    def test_trivial_schedule_matches_solo(self, K, cantor_decay, cantor_alpha):
        params = GameParams(cantor_alpha, F(1, 4))
        solo = LacunaryStrategy(lac2(), decay=cantor_decay)
        t1 = run_game(K, params, solo, KeepCenterBob(), rounds=25)
        wrapped = InterleaveStrategy(
            [LacunaryStrategy(lac2(), decay=cantor_decay)], [(1, 1)])
        t2 = run_game(K, params, wrapped, KeepCenterBob(), rounds=25)
        assert t1.to_jsonl() == t2.to_jsonl()

    def test_two_way_certificates(self, K, cantor_decay, cantor_alpha):
        params = GameParams(cantor_alpha, F(1, 4))
        lac = LacunaryStrategy(lac2(), decay=cantor_decay)
        ba = BAStrategy(decay=cantor_decay)
        duo = InterleaveStrategy([lac, ba], [(1, 2), (2, 2)])
        t = run_game(K, params, duo, KeepCenterBob(), rounds=60)
        lo, hi = outcome_interval(t)
        # both sub-plans ran under beta_eff = beta*(alpha*beta)
        ab_eff = params.alpha * params.beta * (params.alpha * params.beta)
        assert lac.ab == ab_eff and ba.ab == ab_eff
        assert lac.blocks_cleared >= 1
        assert ba.blocks_cleared >= 1
        ok, _ = orbit_claim_holds(lac, lo, hi)
        assert ok
        c = ba.c
        bound = (1 / ba.ab) ** ba.blocks_cleared
        Q = min(math.isqrt(bound.numerator // bound.denominator), 10 ** 5)
        for f in fractions_in_interval(lo - c, hi + c, Q):
            d = max(F(0), lo - f, f - hi)
            assert d > c / f.denominator ** 2

    def test_effective_params_built_once_per_part(self, monkeypatch):
        # building (alpha, beta*(alpha*beta)^(step-1)) on every Alice turn
        # made one GameParams per turn, 100 in this game
        spec = bundled_spec_path("cantor_triple.json")
        support, params, strat, bob, rounds, opening = cli.build_game(
            cli.load_document(spec), SimpleNamespace(rounds=100, seed=None))
        built = []

        def counted(*args):
            built.append(args)
            return GameParams(*args)

        monkeypatch.setattr(alice, "GameParams", counted)
        t = run_game(support, params, strat, bob, rounds, opening)
        assert len(t.moves) == 201
        ab = params.alpha * params.beta
        assert built == [(params.alpha, params.beta * ab ** (step - 1))
                         for _, step in strat.schedule]

    def test_preview_asks_every_part_about_bobs_ball(self, K, cantor_decay,
                                                     cantor_alpha):
        # greedy Bob aims at the points every part still clears near the
        # ball Bob answers, a part that has not moved yet included
        params = GameParams(cantor_alpha, F(1, 4))
        parts = [BAStrategy(decay=cantor_decay),
                 ExcludeCountable([F(2, 9), F(2, 3)])]
        duo = InterleaveStrategy(parts, [(1, 2), (2, 2)])
        previews = []

        def preview(ball):
            want = [z for part in parts for z in part.danger_preview(ball)]
            previews.append((InterleaveStrategy.danger_preview(duo, ball),
                             want[:32]))
            return previews[-1][0]

        duo.danger_preview = preview
        run_game(K, params, duo, GreedyBob(duo), rounds=12)
        assert len(previews) == 12
        assert [got for got, _ in previews] == [want for _, want in previews]
        assert previews[0][0][-2:] == [F(2, 9), F(2, 3)]


class TestAffineReduction:
    def test_zero_shift(self):
        spec = affine_to_sequence(2, F(0), F(1, 3), 10)
        assert all(spec.targets.target(n) == F(1, 3) for n in range(1, 11))

    def test_half_shift_frozen(self):
        spec = affine_to_sequence(2, F(1, 2), F(0), 12)
        assert all(spec.targets.target(n) == F(1, 2) for n in range(1, 13))

    def test_third_shift_frozen(self):
        spec = affine_to_sequence(3, F(1, 3), F(0), 5)
        assert spec.targets.target(2) == F(2, 3)
        assert affine_to_sequence(F(3), F(1, 3), F(0), 5) == spec

    @pytest.mark.parametrize("b", [F(5, 2), F(7, 3), 1, 0])
    def test_rejects_non_integer_or_small_factor(self, b):
        # x -> b*x + c mod 1 is a circle map only for integer b
        with pytest.raises(SpecError, match="integer factor"):
            affine_to_sequence(b, F(1, 3), F(0), 4)

    def test_last_term_within_the_digit_limit(self):
        # 10^4299 has 4,300 digits, the most str() writes; 10^4300 has one
        # more, and an n_max far past it is refused without its power
        spec = affine_to_sequence(10, F(0), F(0), 4299)
        assert spec.terms.horizon == 4299
        assert spec.terms.term(4299) == 10 ** 4299
        for b, n_max in ((10, 4300), (2, 10 ** 9)):
            with pytest.raises(SpecError, match="n_max %d" % n_max):
                affine_to_sequence(b, F(0), F(0), n_max)

    def test_iteration_agrees_pointwise(self):
        # d(f^n(x), y) must equal d(b^n x, y_n) for every x and n
        rng = random.Random(3)
        for b, c in ((2, F(1, 2)), (3, F(1, 3)), (2, F(3, 7)), (5, F(2, 9))):
            y = F(rng.randint(0, 8), 9)
            spec = affine_to_sequence(b, c, y, 20)
            for _ in range(10):
                x = F(rng.randint(0, 999), 1000)
                z = x
                for n in range(1, 21):
                    z = (b * z + c) % 1
                    lhs = circle_dist(z, y)
                    rhs = circle_dist(F(b) ** n * x, spec.targets.target(n))
                    assert lhs == rhs
