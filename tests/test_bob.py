import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from schmidtgame.alice import (ConstTargets, GeometricTerms, LacunarySpec,
                               LacunaryStrategy)
from schmidtgame.bob import (GreedyBob, KeepCenterBob, RandomBob, greedy_move,
                             random_move)
from schmidtgame.cli import build_bob, bundled_spec_path, main
from schmidtgame.fractal import (IFS, FractalSupport, SimilarityMap,
                                 cantor_support, decay_from_federer_efd,
                                 max_alpha)
from schmidtgame.game import (Ball, GameParams, is_legal, outcome_interval,
                              run_game, transcript_from_jsonl,
                              validate_transcript)

from circle_reference import circle_dist_range


@pytest.fixture(scope="module")
def K():
    return cantor_support()


@pytest.fixture(scope="module")
def cantor_decay():
    return decay_from_federer_efd((F(1, 3), F(1, 2)), (F(1, 3), F(1, 2)), F(1))


PARAMS = GameParams(F(1, 3), F(1, 3))


class TestGreedy:
    def test_no_targets_keeps_center(self, K):
        got = greedy_move(K, Ball(F(1, 3), F(1, 9)), PARAMS, [])
        assert got.center == F(1, 3)
        assert got.radius == F(1, 27)

    def test_moves_toward_left_endpoint(self, K):
        ball = Ball(F(1, 3), F(1, 9), (0, 1))
        target = ball.center - ball.radius
        got = greedy_move(K, ball, PARAMS, [target])
        slack = (1 - PARAMS.beta) * ball.radius
        assert ball.center - slack <= got.center < ball.center
        assert abs(got.center - target) <= abs(ball.center - target)
        ok, why = is_legal(ball, got, "bob", PARAMS)
        assert ok, why

    def test_distance_never_increases(self, K):
        rng = random.Random(17)
        for _ in range(50):
            d = rng.randint(1, 5)
            word = tuple(rng.choice((0, 1)) for _ in range(d))
            center = K.point(word)
            rho = K.diameter * K.contraction ** d
            target = center + F(rng.randint(-10, 10), 37) * rho
            got = greedy_move(K, Ball(center, rho, word), PARAMS, [target])
            assert abs(got.center - target) <= abs(center - target)
            ok, why = is_legal(Ball(center, rho, word), got, "bob", PARAMS)
            assert ok, why


class TestRandom:
    def test_same_seed_same_move(self, K):
        ball = Ball(F(1, 3), F(1, 9), (0, 1))
        a = random_move(K, ball, PARAMS, 42)
        b = random_move(K, ball, PARAMS, 42)
        assert (a.center, a.radius) == (b.center, b.radius)

    def test_seeds_spread(self, K):
        ball = Ball(F(1, 2), F(1, 2))
        centers = {random_move(K, ball, PARAMS, s).center for s in range(12)}
        assert len(centers) > 1

    def test_zero_slack_keeps_center(self, K):
        one = GameParams(F(1, 3), F(1, 3))
        ball = Ball(F(0), F(1, 9), (0, 0))
        got = random_move(K, Ball(F(0), F(0, 1) + F(1, 10 ** 9)), one, 1)
        assert got.center == 0  # slack smaller than any cylinder

    def test_no_walk_when_no_cylinder_fits(self, K, monkeypatch):
        # the depth stops at 64; this legal range is narrower than every
        # depth-64 cylinder, so the candidate list is empty before any walk
        def walk(*args):
            raise AssertionError("cylinder walk")

        monkeypatch.setattr(K, "cylinders_meeting", walk)
        word = (0, 1) * 40
        ball = Ball(K.point(word), F(1, 3 ** 66), word)
        got = random_move(K, ball, PARAMS, 7)
        assert got == Ball(ball.center, PARAMS.beta * ball.radius, word)
        # a range wider than one depth-64 cylinder still walks
        with pytest.raises(AssertionError, match="cylinder walk"):
            random_move(K, Ball(ball.center, F(1, 3 ** 64), word), PARAMS, 7)
        # with ratios 1/4 and 1/3 the shortest depth-64 cylinder is 4**-64,
        # so a range narrower than 3**-64 still walks
        uneven = FractalSupport(IFS([SimilarityMap(F(1, 4), F(0)),
                                     SimilarityMap(F(1, 3), F(2, 3))],
                                    [F(1, 2), F(1, 2)]), (F(0), F(1)))
        monkeypatch.setattr(uneven, "cylinders_meeting", walk)
        with pytest.raises(AssertionError, match="cylinder walk"):
            random_move(uneven, Ball(F(0), F(1, 3 ** 65)), PARAMS, 7)

    def test_referee_fuzz(self, K):
        # legality of 10^4 random moves from random legal positions
        rng = random.Random(99)
        checked = 0
        while checked < 10 ** 4:
            d = rng.randint(0, 7)
            word = tuple(rng.choice((0, 1)) for _ in range(d))
            center = K.point(word)
            rho = K.diameter * K.contraction ** d / rng.choice((1, 2, 3))
            ball = Ball(center, rho, word)
            got = random_move(K, ball, PARAMS, checked)
            ok, why = is_legal(ball, got, "bob", PARAMS)
            assert ok, why
            assert K.verify_point(got.center, got.word) or \
                K.locate(got.center) is not None
            checked += 1


class TestReplay:
    def test_round_trip(self, K, cantor_decay):
        alpha = max_alpha(cantor_decay)
        params = GameParams(alpha, F(1, 4))
        spec = LacunarySpec(GeometricTerms(F(2)), ConstTargets(F(0)))
        alice = LacunaryStrategy(spec, decay=cantor_decay)
        text = run_game(K, params, alice, RandomBob(5), rounds=12).to_jsonl()
        t2 = transcript_from_jsonl(text, params)
        validate_transcript(t2, K)
        assert t2.to_jsonl() == text


class TestFactory:
    def test_kinds(self):
        assert isinstance(build_bob({}, None, None), KeepCenterBob)
        assert isinstance(build_bob({"kind": "keep"}, None, None), KeepCenterBob)
        greedy = build_bob({"kind": "greedy", "targets": ["1/3"]}, "alice", None)
        assert isinstance(greedy, GreedyBob)
        assert greedy.alice == "alice" and greedy.targets == [F(1, 3)]
        assert build_bob({"kind": "random", "seed": 3}, None, None).seed == 3
        assert build_bob({"kind": "random", "seed": 3}, None, 7).seed == 7
        assert isinstance(build_bob({"kind": "random"}, None, None), RandomBob)

    # a spec cannot carry the transcript a replay adversary needs
    @pytest.mark.parametrize("kind", ["clever", "replay"])
    def test_unknown_kind_exits_2(self, tmp_path, capsys, kind):
        doc = json.loads(open(bundled_spec_path("cantor_lacunary.json")).read())
        doc["bob"] = {"kind": kind}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["play", "--spec", str(spec), "--out", str(out)]) == 2
        assert "unknown adversary kind" in capsys.readouterr().err
        assert not out.exists()


class TestGreedyVersusLacunary:
    def test_certificate_survives_pressure(self, K, cantor_decay):
        # the white-box adversary aims at the danger points and the claim
        # must hold anyway
        alpha = max_alpha(cantor_decay)
        params = GameParams(alpha, F(1, 4))
        spec = LacunarySpec(GeometricTerms(F(2)), ConstTargets(F(0)))
        alice = LacunaryStrategy(spec, decay=cantor_decay)
        bob = GreedyBob(alice=alice)
        t = run_game(K, params, alice, bob, rounds=50)
        validate_transcript(t, K)
        assert alice.blocks_cleared == 5
        lo, hi = outcome_interval(t)
        bound = (1 / alice.ab) ** (alice.r * alice.blocks_cleared)
        n = 1
        while F(2) ** n < bound:
            dmin, _ = circle_dist_range(F(2) ** n * lo, F(2) ** n * hi, F(0))
            assert dmin >= alice.c, n
            n += 1


class TestGreedyVersusInterleavedBA:
    def test_twenty_rounds_within_the_time_bound(self, tmp_path):
        # the BA part plans with alpha*beta cubed, so its first block reaches
        # q = 142,693: the preview built all 1.8e7 such fractions in Alice's
        # first ball before keeping 16, and 5 rounds ran past 60 s.  Stated
        # bound: 20 rounds in 30 s, a child process so a hang is killed
        doc = json.loads(open(bundled_spec_path("cantor_triple.json")).read())
        doc["bob"] = {"kind": "greedy"}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "schmidtgame.cli", "play", "--spec",
             str(spec), "--rounds", "20", "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count(": PASS") == 3
