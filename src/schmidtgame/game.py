"""The Schmidt game state machine on a fractal support.

Bob opens with a configured ball; thereafter Alice picks a ball inside the
last one with radius alpha times it, Bob answers inside hers with beta
times, and so on (the strong variant relaxes both equalities to >=).  The
referee checks every move exactly: containment through the center-distance
inequality, the radius rule of the variant, and constructive membership of
each center in K.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import IllegalMove, NoPointFound, StrategyFailure
from .fractal import FractalSupport
from .numerics import format_rational, parse_rational


class Variant(Enum):
    CLASSICAL = "classical"
    STRONG = "strong"


@dataclass(frozen=True)
class GameParams:
    alpha: Fraction
    beta: Fraction
    variant: Variant = Variant.CLASSICAL

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if not (0 < self.alpha < 1 and 0 < self.beta < 1):
            raise ValueError("alpha and beta must lie in (0, 1)")


@dataclass(frozen=True)
class Ball:
    """Closed ball B(center, radius); `word` is an optional membership proof
    (center must equal the cylinder image of the canonical point)."""

    center: Fraction
    radius: Fraction
    word: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "center", Fraction(self.center))
        object.__setattr__(self, "radius", Fraction(self.radius))
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

    @property
    def interval(self) -> Tuple[Fraction, Fraction]:
        return (self.center - self.radius, self.center + self.radius)


def is_legal(prev: Ball, nxt: Ball, whose_turn: str, params: GameParams) -> Tuple[bool, str]:
    """Referee one move:  nested order plus the variant's radius rule."""
    ratio = params.alpha if whose_turn == "alice" else params.beta
    expected = ratio * prev.radius
    if params.variant is Variant.CLASSICAL:
        if nxt.radius != expected:
            return False, (f"radius {nxt.radius} != {format_rational(ratio)} * "
                           f"{prev.radius} required by the classical rule")
    else:
        if nxt.radius < expected:
            return False, f"radius {nxt.radius} below the strong-variant floor {expected}"
        if nxt.radius >= prev.radius:
            return False, "radius did not decrease"
    if nxt.radius + abs(prev.center - nxt.center) > prev.radius:
        return False, (f"ball ({nxt.center}, {nxt.radius}) not nested in "
                       f"({prev.center}, {prev.radius})")
    return True, ""


class Status(Enum):
    IN_PROGRESS = "in_progress"
    FINISHED = "finished"


@dataclass
class Transcript:
    params: GameParams
    moves: List[Tuple[str, Ball]] = field(default_factory=list)
    status: Status = Status.IN_PROGRESS

    @property
    def last_ball(self) -> Ball:
        return self.moves[-1][1]

    @property
    def whose_turn(self) -> str:
        # Bob owns move 0, Alice move 1, and so on alternating
        return "alice" if len(self.moves) % 2 == 1 else "bob"

    @property
    def alice_turn_index(self) -> int:
        """1-based index of the Alice move about to be played."""
        return (len(self.moves) + 1) // 2

    def to_jsonl(self) -> str:
        lines = []
        for i, (player, ball) in enumerate(self.moves):
            doc = {"k": i // 2 + 1, "player": player,
                   "center": format_rational(ball.center),
                   "radius": format_rational(ball.radius)}
            lines.append(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + "\n"


def transcript_from_jsonl(text: str, params: GameParams) -> Transcript:
    t = Transcript(params=params, status=Status.FINISHED)
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        doc = json.loads(line)
        ball = Ball(parse_rational(doc["center"]), parse_rational(doc["radius"]))
        t.moves.append((doc["player"], ball))
    return t


def _check_membership(support: FractalSupport, ball: Ball, player: str,
                      transcript: Transcript):
    if ball.word is not None:
        if not support.verify_point(ball.center, ball.word):
            err = IllegalMove(player, f"word does not witness center {ball.center}", ball)
            err.transcript = transcript
            raise err
        return
    if support.locate(ball.center) is None:
        err = IllegalMove(player, f"center {ball.center} has no cylinder witness in K", ball)
        err.transcript = transcript
        raise err


def validate_transcript(t: Transcript, support: Optional[FractalSupport] = None):
    """Re-referee a full transcript; raises IllegalMove on the first violation."""
    for i, (player, ball) in enumerate(t.moves):
        expected_player = "bob" if i % 2 == 0 else "alice"
        if player != expected_player:
            err = IllegalMove(player, f"move {i} out of turn", ball)
            err.transcript = t
            raise err
        if i > 0:
            ok, reason = is_legal(t.moves[i - 1][1], ball, player, t.params)
            if not ok:
                err = IllegalMove(player, reason, ball)
                err.transcript = t
                raise err
        if support is not None:
            _check_membership(support, ball, player, t)


def run_game(support: FractalSupport, params: GameParams, alice, bob,
             rounds: int, opening: Optional[Ball] = None) -> Transcript:
    """Play `rounds` full rounds after Bob's opening: 2*rounds + 1 moves.

    Strategies implement move(support, params, transcript) -> Ball and are
    responsible for their own state; the engine only referees.  A strategy
    raising NoPointFound loses by StrategyFailure; an illegal ball raises
    IllegalMove.  Both exceptions carry the partial transcript.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    if opening is None:
        opening = Ball(support.canonical_point, support.diameter, word=())
    t = Transcript(params=params)
    _check_membership(support, opening, "bob", t)
    t.moves.append(("bob", opening))
    for _ in range(rounds):
        for player, strategy in (("alice", alice), ("bob", bob)):
            prev = t.last_ball
            try:
                ball = strategy.move(support, params, t)
            except NoPointFound as exc:
                err = StrategyFailure(player, exc)
                err.transcript = t
                raise err from exc
            ok, reason = is_legal(prev, ball, player, params)
            if not ok:
                err = IllegalMove(player, reason, ball)
                err.transcript = t
                raise err
            _check_membership(support, ball, player, t)
            t.moves.append((player, ball))
    t.status = Status.FINISHED
    return t


def outcome_interval(t: Transcript) -> Tuple[Fraction, Fraction]:
    """The last ball as an interval; the limit point of any continuation
    lies in it, and every K-point in it is within one diameter of that."""
    if not t.moves:
        raise ValueError("empty transcript")
    return t.last_ball.interval


class HoldCenter:
    """The canonical arbitrary move: keep the center, shrink by rule."""

    def move(self, support, params, transcript):
        prev = transcript.last_ball
        ratio = params.alpha if transcript.whose_turn == "alice" else params.beta
        return Ball(prev.center, ratio * prev.radius, prev.word)
