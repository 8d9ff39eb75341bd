import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from schmidtgame.bob import KeepCenterBob
from schmidtgame.cli import build_game, bundled_spec_path, load_document
from schmidtgame.errors import (IllegalMove, NoPointFound, SpecError,
                                StrategyFailure)
from schmidtgame.fractal import cantor_support, find_point_in_gap
from schmidtgame.game import (Ball, GameParams, HoldCenter, Transcript,
                              is_legal, outcome_interval, run_game,
                              transcript_from_jsonl, validate_transcript)


@pytest.fixture(scope="module")
def K():
    return cantor_support()


def classical(alpha, beta):
    return GameParams(alpha=F(alpha), beta=F(beta))


class TestGameParams:
    @pytest.mark.parametrize("alpha, beta", [(F(1, 2), 0), (0, F(1, 2)),
                                             (1, F(1, 4)), (F(1, 4), F(5, 4))])
    def test_ratio_outside_0_1_is_spec_error(self, alpha, beta):
        with pytest.raises(SpecError, match=r"alpha and beta must lie in \(0, 1\)"):
            GameParams(alpha, beta)


class TestIsLegal:
    def test_frozen_examples(self):
        p = classical(F(1, 2), F(1, 2))
        ok, _ = is_legal(Ball(0, 1), Ball(F(1, 3), F(1, 2)), "alice", p)
        assert ok
        ok, reason = is_legal(Ball(0, 1), Ball(F(2, 3), F(1, 2)), "alice", p)
        assert not ok and "nested" in reason
        # a radius between ratio * prev and prev breaks the one rule
        ok, reason = is_legal(Ball(0, 1), Ball(0, F(3, 5)), "alice", p)
        assert not ok and "classical rule" in reason

    def test_classical_radius_rule_is_exact(self):
        p = classical(F(1, 3), F(1, 4))
        ok, _ = is_legal(Ball(0, 1), Ball(0, F(1, 3)), "alice", p)
        assert ok
        ok, reason = is_legal(Ball(0, 1), Ball(0, F(1, 3) + F(1, 10 ** 12)), "alice", p)
        assert not ok and "radius" in reason
        ok, _ = is_legal(Ball(0, F(1, 3)), Ball(0, F(1, 12)), "bob", p)
        assert ok

    def test_boundary_containment_is_legal(self):
        # the order is non-strict: touching the boundary is allowed
        p = classical(F(1, 2), F(1, 2))
        ok, _ = is_legal(Ball(0, 1), Ball(F(1, 2), F(1, 2)), "alice", p)
        assert ok

    def test_reasons_past_the_digit_limit(self, K):
        # a 5,000-digit number has no decimal str(); the reason gives sizes
        tiny = F(1, 10 ** 5000 + 1)
        p = classical(F(1, 2), F(1, 2))
        ok, reason = is_legal(Ball(0, 1), Ball(0, tiny), "alice", p)
        assert not ok and "classical rule" in reason
        ok, reason = is_legal(Ball(0, 1), Ball(2 - tiny, F(1, 2)), "alice", p)
        assert not ok and "nested" in reason
        with pytest.raises(IllegalMove, match="witness"):
            validate_transcript(Transcript(p, [("bob", Ball(tiny, 1, ()))]), K)


    def test_center_past_the_depth_cap(self, K):
        # `locate` stops 512 letters below the root: a center in K whose
        # word has 513 letters has no witness within that cap
        p = classical(F(1, 3), F(1, 3))
        word = (1,) * 512
        validate_transcript(Transcript(p, [("bob", Ball(K.point(word), 1))]), K)
        center = K.point(word + (1,))
        with pytest.raises(IllegalMove, match=r"center \(\d+/\d+ bits\) has no "
                           r"cylinder witness within 512 letters"):
            validate_transcript(Transcript(p, [("bob", Ball(center, 1))]), K)

class TestRunGame:
    def test_trivial_radii_pattern(self, K):
        p = classical(F(1, 3), F(1, 3))
        t = run_game(K, p, HoldCenter(), KeepCenterBob(), rounds=5)
        assert len(t.moves) == 11
        # Bob's k-th ball has radius (1/9)^(k-1)
        for i, (player, ball) in enumerate(t.moves):
            k = i // 2
            if player == "bob":
                assert ball.radius == F(1, 9) ** k
            else:
                assert ball.radius == F(1, 3) * F(1, 9) ** k

    def test_center_outside_K_rejected(self, K):
        class Cheater:
            def move(self, support, params, prev):
                return F(1, 2), None

        p = classical(F(1, 3), F(1, 3))
        with pytest.raises(IllegalMove) as exc:
            run_game(K, p, Cheater(), KeepCenterBob(), rounds=2)
        assert exc.value.player == "alice"
        assert exc.value.ball.center == F(1, 2)
        assert len(exc.value.transcript.moves) == 1  # Bob's opening only

    def test_strategy_failure_wraps_no_point(self, K):
        class GivesUp:
            def move(self, support, params, prev):
                raise NoPointFound("nothing to play")

        p = classical(F(1, 3), F(1, 3))
        with pytest.raises(StrategyFailure) as exc:
            run_game(K, p, GivesUp(), KeepCenterBob(), rounds=1)
        assert exc.value.player == "alice"
        assert exc.value.transcript.moves  # partial transcript attached

    def test_containment_chain(self, K):
        p = classical(F(1, 4), F(1, 3))
        t = run_game(K, p, HoldCenter(), KeepCenterBob(), rounds=6)
        for (_, outer), (_, inner) in zip(t.moves, t.moves[1:]):
            assert outer.center - outer.radius <= inner.center - inner.radius
            assert inner.center + inner.radius <= outer.center + outer.radius


class TestTranscript:
    def test_outcome_interval(self, K):
        p = classical(F(1, 2), F(1, 2))
        t = Transcript(params=p, moves=[("bob", Ball(0, 1))])
        assert outcome_interval(t) == (F(-1), F(1))

    def test_jsonl_round_trip(self, K):
        p = classical(F(1, 3), F(1, 3))
        t = run_game(K, p, HoldCenter(), KeepCenterBob(), rounds=4)
        text = t.to_jsonl()
        back = transcript_from_jsonl(text, p)
        assert [(pl, b.center, b.radius) for pl, b in back.moves] == \
               [(pl, b.center, b.radius) for pl, b in t.moves]
        assert back.to_jsonl() == text
        validate_transcript(back, K)

    def test_jsonl_numbering(self, K):
        p = classical(F(1, 3), F(1, 3))
        t = run_game(K, p, HoldCenter(), KeepCenterBob(), rounds=2)
        import json
        lines = [json.loads(s) for s in t.to_jsonl().splitlines()]
        assert [(d["player"], d["k"]) for d in lines] == [
            ("bob", 1), ("alice", 1), ("bob", 2), ("alice", 2), ("bob", 3)]

    # (move, its new "k"): true equals 1 in Python, so it edits a round-1
    # line; None drops the key
    @pytest.mark.parametrize("i, k", [(3, "7"), (3, '"2"'), (3, "2.0"),
                                      (1, "true"), (3, None)])
    def test_edited_round_number_rejected(self, K, i, k):
        # a 3-round file with one line's round number edited or dropped:
        # every other field of the line is still valid
        p = classical(F(1, 3), F(1, 3))
        text = run_game(K, p, HoldCenter(), KeepCenterBob(), rounds=3).to_jsonl()
        lines = text.splitlines()
        was = '"k":%d,' % (i // 2 + 1)
        assert lines[i].count(was) == 1
        lines[i] = lines[i].replace(was, "" if k is None else f'"k":{k},')
        with pytest.raises(SpecError, match='line %d: "k" is not the round '
                           'number %d' % (i + 1, i // 2 + 1)):
            transcript_from_jsonl("\n".join(lines) + "\n", p)

    def test_radius_mutation_rejected(self, K):
        p = classical(F(1, 3), F(1, 3))
        t = run_game(K, p, HoldCenter(), KeepCenterBob(), rounds=3)
        rng = random.Random(5)
        for i in range(1, len(t.moves)):
            player, ball = t.moves[i]
            factor = F(rng.randint(2, 9), rng.randint(10, 19))
            mutated = Transcript(params=p, moves=list(t.moves))
            mutated.moves[i] = (player, Ball(ball.center, ball.radius * factor))
            with pytest.raises(IllegalMove) as exc:
                validate_transcript(mutated, K)
            assert exc.value.transcript is mutated

    def test_random_legal_moves_accepted(self, K):
        # fuzz the referee with random legal centers picked from K
        rng = random.Random(99)
        p = classical(F(1, 4), F(1, 4))
        for _ in range(30):
            t = Transcript(params=p, moves=[("bob", Ball(0, 1, word=()))])
            for step in range(12):
                player = "alice" if step % 2 == 0 else "bob"
                ratio = p.alpha if player == "alice" else p.beta
                prev = t.last_ball
                slack = (1 - ratio) * prev.radius
                lo = prev.center - slack * F(rng.randint(0, 8), 8)
                hi = prev.center + slack * F(rng.randint(0, 8), 8)
                got = find_point_in_gap(K, (max(lo, prev.center - slack),
                                            min(hi, prev.center + slack)), [])
                center, word = got if got else (prev.center, prev.word)
                ball = Ball(center, ratio * prev.radius, word)
                ok, reason = is_legal(prev, ball, player, p)
                assert ok, reason
                t.moves.append((player, ball))
            validate_transcript(t, K)


def bundled_game(name, rounds):
    """The transcript `play` makes of a bundled spec, and its support."""
    doc = load_document(bundled_spec_path(name))
    support, params, alice, bob, _, opening = build_game(
        doc, SimpleNamespace(rounds=rounds, seed=None))
    return run_game(support, params, alice, bob, rounds, opening), support


class TestRefereeReuse:
    """A move whose center equals the last move's, with no word or the same
    word, inherits its membership proof; every other check still runs."""

    def test_repeated_center_with_a_false_word_is_rejected(self, K):
        p = classical(F(1, 3), F(1, 3))
        opening = Ball(K.canonical_point, K.diameter, word=())
        for word in ((), None):
            t = Transcript(p, [("bob", opening),
                               ("alice", Ball(opening.center, F(1, 3), word))])
            validate_transcript(t, K)
        t.moves[1] = ("alice", Ball(opening.center, F(1, 3), (1,)))
        with pytest.raises(IllegalMove, match="word does not witness"):
            validate_transcript(t, K)

    def test_repeated_center_still_refereed(self, K):
        p = classical(F(1, 3), F(1, 3))
        opening = Ball(K.canonical_point, K.diameter)
        t = Transcript(p, [("bob", opening), ("bob", Ball(opening.center,
                                                          F(1, 3)))])
        with pytest.raises(IllegalMove, match="out of turn"):
            validate_transcript(t, K)
        t.moves[1] = ("alice", Ball(opening.center, F(1, 2)))
        with pytest.raises(IllegalMove, match="classical rule"):
            validate_transcript(t, K)

    def test_replay_fails_at_the_first_center_past_the_cap(self, K):
        # the 200-round triple game's first center whose word passes 512
        # letters is a new center, so no proof is inherited there
        played, support = bundled_game("cantor_triple.json", 200)
        back = transcript_from_jsonl(played.to_jsonl(), played.params)
        first = next(i for i, (_, ball) in enumerate(played.moves)
                     if len(ball.word) > 512)
        center = back.moves[first][1].center
        with pytest.raises(IllegalMove) as exc:
            validate_transcript(back, support)
        assert exc.value.ball is back.moves[first][1]
        bits = "%d/%d bits" % (center.numerator.bit_length(),
                               center.denominator.bit_length())
        assert exc.value.reason == ("center (%s) has no cylinder witness "
                                    "within 512 letters" % bits)

    def test_replay_locates_each_new_center_once(self, monkeypatch):
        played, support = bundled_game("cantor_lacunary.json", 400)
        back = transcript_from_jsonl(played.to_jsonl(), played.params)
        centers = [ball.center for _, ball in back.moves]
        changes = 1 + sum(a != b for a, b in zip(centers, centers[1:]))
        calls = []
        locate = type(support).locate
        monkeypatch.setattr(type(support), "locate",
                            lambda self, x, *args: calls.append(x)
                            or locate(self, x, *args))
        validate_transcript(back, support)
        assert len(calls) == changes
