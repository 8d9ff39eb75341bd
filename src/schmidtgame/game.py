"""The Schmidt game state machine on a fractal support.

Bob opens with a configured ball; thereafter Alice picks a ball inside the
last one with radius exactly alpha times it, Bob answers inside hers with
exactly beta times, and so on.  The referee checks every move exactly: the
radius rule, containment through the center-distance inequality, and
constructive membership of each center in K.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact,
                     Rounded)
from fractions import Fraction
from math import gcd
from typing import List, Optional, Tuple

from .errors import IllegalMove, NoPointFound, SpecError, StrategyFailure
from .fractal import LOCATE_DEPTH, FractalSupport
from .numerics import parse_rational


@dataclass(frozen=True)
class GameParams:
    alpha: Fraction
    beta: Fraction

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
        if not isinstance(self.center, Fraction):
            object.__setattr__(self, "center", Fraction(self.center))
        if not isinstance(self.radius, Fraction):
            object.__setattr__(self, "radius", Fraction(self.radius))
        if self.radius.numerator <= 0:
            raise ValueError("ball radius must be positive")

    @property
    def interval(self) -> Tuple[Fraction, Fraction]:
        return (self.center - self.radius, self.center + self.radius)


Point = Tuple[Fraction, Optional[Tuple[int, ...]]]


def _bits(x: Fraction) -> str:
    # not str(x): that is quadratic, and raises ValueError past 4,300 digits
    return f"{x.numerator.bit_length()}/{x.denominator.bit_length()} bits"


def _dist_cmp(x: Fraction, y: Fraction, num: int, den: int) -> int:
    """The sign of |x - y| - num/den, for num, den > 0, by integer
    cross-multiplication: |xn*yd - yn*xd| * den against num * xd * yd.
    Equal points take no product."""
    xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    if xn == yn and xd == yd:
        return -1
    lhs, rhs = abs(xn * yd - yn * xd) * den, num * xd * yd
    return (lhs > rhs) - (lhs < rhs)


def is_legal(prev: Ball, nxt: Ball, whose_turn: str, params: GameParams) -> Tuple[bool, str]:
    """Referee one move:  radius exactly ratio * prev.radius, then nesting,
    decided on the integers of the radii and centers."""
    ratio = params.alpha if whose_turn == "alice" else params.beta
    pn, pd = prev.radius.numerator, prev.radius.denominator
    nn, nd = nxt.radius.numerator, nxt.radius.denominator
    an, ad = ratio.numerator, ratio.denominator
    # ratio * prev.radius in lowest terms: each gcd has a small operand
    g, h = gcd(an, pd), gcd(pn, ad)
    if nn != an // g * (pn // h) or nd != ad // h * (pd // g):
        return False, (f"radius ({_bits(nxt.radius)}) != ratio * "
                       f"({_bits(prev.radius)}) required by the classical rule")
    # the center may move prev.radius - nxt.radius = (1 - ratio) * prev.radius
    room = (ad - an) * pn, ad * pd
    if _dist_cmp(prev.center, nxt.center, *room) > 0:
        return False, (f"ball (center {_bits(nxt.center)}, radius "
                       f"{_bits(nxt.radius)}) not nested in the previous ball")
    return True, ""


# the player of move i is _PLAYERS[i % 2]: Bob opens, then they alternate
_PLAYERS = ("bob", "alice")


@dataclass
class Transcript:
    params: GameParams
    moves: List[Tuple[str, Ball]] = field(default_factory=list)

    @property
    def last_ball(self) -> Ball:
        return self.moves[-1][1]

    def to_jsonl(self) -> str:
        lines = _Lines(self.params)
        return "\n".join(lines.write(i, player, ball)
                         for i, (player, ball) in enumerate(self.moves)) + "\n"


def transcript_from_jsonl(text: str, params: GameParams) -> Transcript:
    t = Transcript(params=params)
    lines = _Lines(params)
    for line in text.splitlines():
        line = line.strip()
        if line:
            t.moves.append(lines.read(len(t.moves), line))
    return t


# integer arithmetic on decimal digits, where a product or quotient with a
# small int is linear in the digits (str() and int() of an int are
# quadratic); a step that would round raises instead
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                 traps=[Inexact, Rounded])


class _Lines:
    """The transcript's line format, one move a line in `json.dumps`'s
    compact sorted layout, keeping the last line's center and radius with
    their text.  A repeated center reuses its text, and a repeated center
    text its Fraction.  A radius on the rule, ratio * last, is stepped from
    the last radius's digits, linear in them: the writer steps once the
    rule holds, and the reader accepts only the stepped text.  Any other
    radius goes through str() or `parse_rational`, which raise as they
    would alone, and re-seeds the digits.  Move i's line carries its round
    number, i // 2 + 1, as "k"; the reader refuses any other."""

    def __init__(self, params: GameParams):
        self.params = params
        self.center = self.center_text = None
        self.radius: Optional[Fraction] = None
        self.digits: Optional[Tuple[Decimal, Decimal]] = None

    def _ratio(self, player) -> Optional[Fraction]:
        """The ratio of a stepped radius, or None where there is no last
        radius."""
        if self.radius is None:
            return None
        return self.params.alpha if player == "alice" else self.params.beta

    def _step(self, ratio: Fraction):
        """(digits, text) of ratio * the last radius, or (None, None) when
        a number passes the int string digit limit."""
        pn, pd = self.radius.numerator, self.radius.denominator
        an, ad = ratio.numerator, ratio.denominator
        g, h = gcd(an, pd), gcd(pn, ad)
        dn, dd = self.digits or map(_EXACT.create_decimal, (pn, pd))
        dn = _EXACT.multiply(_EXACT.divide_int(dn, h), an // g)
        dd = _EXACT.multiply(_EXACT.divide_int(dd, g), ad // h)
        # the int string digit limit, 0 for none (CPython 3.10.7 and later)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and max(dn.adjusted(), dd.adjusted()) >= limit:
            return None, None
        return (dn, dd), (f"{dn}" if dd == 1 else f"{dn}/{dd}")

    def write(self, i: int, player, ball: Ball) -> str:
        if ball.center != self.center:
            self.center, self.center_text = ball.center, str(ball.center)
        ratio, digits = self._ratio(player), None
        if ratio is not None and ratio * self.radius == ball.radius:
            digits, text = self._step(ratio)
        if digits is None:
            text = str(ball.radius)
        self.radius, self.digits = ball.radius, digits
        name = f'"{player}"' if player in _PLAYERS else json.dumps(player)
        return (f'{{"center":"{self.center_text}","k":{i // 2 + 1},'
                f'"player":{name},"radius":"{text}"}}')

    def read(self, i: int, line: str) -> Tuple[str, Ball]:
        doc = json.loads(line)
        text = doc["center"]
        if self.center is None or text != self.center_text:
            self.center, self.center_text = parse_rational(text), text
        text = doc["radius"]
        ratio, digits = self._ratio(doc.get("player")), None
        if ratio is not None:
            digits, stepped = self._step(ratio)
        if digits is not None and text == stepped:
            radius = ratio * self.radius
        else:
            radius, digits = parse_rational(text), None
        self.radius, self.digits = radius, digits
        ball = Ball(self.center, radius)    # raises before a missing player
        player, k = doc["player"], doc.get("k")
        if type(k) is not int or k != i // 2 + 1:
            raise SpecError(f'transcript line {i + 1}: "k" is not the round '
                            f'number {i // 2 + 1}')
        return player, ball


def _referee(support: FractalSupport, t: Transcript, i: int, player: str,
             ball: Ball) -> None:
    """Check `ball` as move i of `t`: turn order, the rules of `is_legal`
    against move i - 1, and membership of the center in `support`.  A
    center equal to move i - 1's, with no word or the same word, inherits
    that move's membership proof.  Raises IllegalMove, carrying `t`, on
    the first violation."""
    if player != _PLAYERS[i % 2]:
        raise IllegalMove(player, f"move {i} out of turn", ball, t)
    if i > 0:
        prev = t.moves[i - 1][1]
        ok, reason = is_legal(prev, ball, player, t.params)
        if not ok:
            raise IllegalMove(player, reason, ball, t)
        # move i - 1 proved this center, by its word or by `locate`
        if ball.center == prev.center and ball.word in (None, prev.word):
            return
    if ball.word is not None:
        if not support.verify_point(ball.center, ball.word):
            raise IllegalMove(player, f"word does not witness center "
                              f"({_bits(ball.center)})", ball, t)
    elif support.locate(ball.center) is None:
        raise IllegalMove(player, f"center ({_bits(ball.center)}) has no "
                          f"cylinder witness within {LOCATE_DEPTH} letters",
                          ball, t)


def validate_transcript(t: Transcript, support: FractalSupport):
    """Re-referee a full transcript, the membership of every center in
    `support` included; raises IllegalMove on the first violation."""
    for i, (player, ball) in enumerate(t.moves):
        _referee(support, t, i, player, ball)


def run_game(support: FractalSupport, params: GameParams, alice, bob,
             rounds: int, opening: Optional[Ball] = None) -> Transcript:
    """Play `rounds` full rounds after Bob's opening: 2*rounds + 1 moves.

    Strategies implement move(support, params, ball) -> Point, answering the
    last ball played with a center in K and its word (None for no proof),
    and keep their own state; the engine alone supplies each radius, keeps
    the game record and referees each move.  A strategy raising NoPointFound
    loses by StrategyFailure; an illegal ball raises IllegalMove.  Both
    exceptions carry the partial transcript.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    if opening is None:
        opening = Ball(support.canonical_point, support.diameter, word=())
    t = Transcript(params=params)
    _referee(support, t, 0, "bob", opening)
    t.moves.append(("bob", opening))
    for _ in range(rounds):
        for player, strategy in (("alice", alice), ("bob", bob)):
            try:
                center, word = strategy.move(support, params, t.last_ball)
            except NoPointFound as exc:
                raise StrategyFailure(player, exc, t) from exc
            ratio = params.alpha if player == "alice" else params.beta
            ball = Ball(center, ratio * t.last_ball.radius, word)
            _referee(support, t, len(t.moves), player, ball)
            t.moves.append((player, ball))
    return t


def outcome_interval(t: Transcript) -> Tuple[Fraction, Fraction]:
    """The last ball as an interval; the limit point of any continuation
    lies in it, and every K-point in it is within one diameter of that."""
    if not t.moves:
        raise ValueError("empty transcript")
    return t.last_ball.interval


class HoldCenter:
    """Alice's canonical arbitrary move: keep the center, shrink by alpha."""

    def move(self, support, params, ball):
        return ball.center, ball.word

    def danger_preview(self, ball):
        return []
