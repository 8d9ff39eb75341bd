"""Radius counts: each ball `game` builds for a game carries its place on
the radius ladder, ((R0, params), a, b), and the referee and the line
codec decide the radius rule from them.

Hypothesis plays short games on the middle-thirds set, with hold, keep and
seeded random players, and checks that every counted radius is R0 *
alpha**a * beta**b and that `is_legal` gives each pair of counted balls
the verdict and reason it gives the same balls without counts.  Edited
balls and edited transcript lines fall back to the exact rule.
"""

import json
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidtgame.bob import KeepCenterBob, RandomBob
from schmidtgame.errors import IllegalMove
from schmidtgame.fractal import cantor_support
from schmidtgame.game import (Ball, GameParams, HoldCenter, is_legal, run_game,
                              transcript_from_jsonl, validate_transcript)

K = cantor_support()


class RandomAlice:
    """Random Bob's seeded cylinder pick, within Alice's legal range."""

    def __init__(self, seed):
        self.bob = RandomBob(seed)

    def move(self, support, params, ball):
        return self.bob.move(support, GameParams(params.beta, params.alpha),
                             ball)

    def danger_preview(self, ball):
        return []


def bits(x):
    return "%d/%d bits" % (x.numerator.bit_length(),
                           x.denominator.bit_length())


def radius_reason(nxt, prev):
    return ("radius (%s) != ratio * (%s) required by the classical rule"
            % (bits(nxt.radius), bits(prev.radius)))


def played(rounds=3):
    p = GameParams(F(1, 3), F(1, 4))
    return run_game(K, p, HoldCenter(), RandomBob(3), rounds=rounds)


ratios = st.builds(F, st.integers(1, 40), st.integers(41, 80))


@settings(max_examples=40, deadline=None)
@given(ratios, ratios, st.lists(st.builds(F, st.integers(1, 9),
                                          st.integers(1, 9)),
                                min_size=2, max_size=2),
       st.integers(1, 3), st.sampled_from(["hold", "random"]),
       st.sampled_from(["keep", "random"]), st.integers(0, 99))
def test_counts_agree_with_the_exact_rule(alpha, beta, starts, rounds, alice,
                                          bob, seed):
    # three games: two openings under (alpha, beta), one under the swapped
    # pair, so that some pairs of balls lie on different ladders
    p, q = GameParams(alpha, beta), GameParams(beta, alpha)
    games = [run_game(K, params, HoldCenter() if alice == "hold"
                      else RandomAlice(seed),
                      KeepCenterBob() if bob == "keep" else RandomBob(seed),
                      rounds, opening=Ball(K.canonical_point, r0, word=()))
             for params, r0 in ((p, starts[0]), (p, starts[1]),
                                (q, starts[0]))]
    games.append(transcript_from_jsonl(games[0].to_jsonl(), p))
    balls = [ball for t in games for _, ball in t.moves]
    for ball in balls:
        (start, params), a, b = ball._counts
        assert ball.radius == start * params.alpha ** a * params.beta ** b
    for prev in balls:
        for nxt in balls:
            for player in ("alice", "bob"):
                assert is_legal(prev, nxt, player, p) == is_legal(
                    replace(prev), replace(nxt), player, p)


def test_edited_ball_loses_its_counts():
    t = played()
    for i in range(1, len(t.moves)):
        player, ball = t.moves[i]
        for sign in (1, -1):
            edited = replace(ball,
                             radius=ball.radius * (1 + sign * F(1, 2 ** 40)))
            assert ball._counts is not None and edited._counts is None
            moves = list(t.moves)
            moves[i] = (player, edited)
            bad = replace(t, moves=moves)
            with pytest.raises(IllegalMove) as exc:
                validate_transcript(bad, K)
            assert exc.value.ball is edited
            assert exc.value.reason == radius_reason(edited, t.moves[i - 1][1])


def edit_radius(text, i, radius):
    lines = text.splitlines()
    doc = json.loads(lines[i])
    doc["radius"] = radius(F(doc["radius"]))
    lines[i] = json.dumps(doc)
    return "\n".join(lines) + "\n"


def test_respelled_radius_starts_a_new_ladder():
    t = played()
    text = t.to_jsonl()
    for i in range(len(t.moves)):
        back = transcript_from_jsonl(edit_radius(
            text, i, lambda r: "%d/%d" % (2 * r.numerator, 2 * r.denominator)),
            t.params)
        validate_transcript(back, K)
        assert back.to_jsonl() == text
        assert back.moves[i][1]._counts[1:] == (0, 0)


def test_off_rule_radius_fails_at_its_line():
    t = played()
    text = t.to_jsonl()
    for i in range(1, len(t.moves)):
        back = transcript_from_jsonl(edit_radius(
            text, i, lambda r: str(r * (1 + F(1, 2 ** 40)))), t.params)
        with pytest.raises(IllegalMove) as exc:
            validate_transcript(back, K)
        assert exc.value.ball is back.moves[i][1]
        assert exc.value.reason == radius_reason(back.moves[i][1],
                                                 back.moves[i - 1][1])
