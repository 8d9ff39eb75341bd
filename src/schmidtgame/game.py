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
            raise SpecError("alpha and beta must lie in (0, 1)")


@dataclass(frozen=True)
class Ball:
    """Closed ball B(center, radius); `word` is an optional membership proof
    (center must equal the cylinder image of the canonical point).

    A ball that `game` builds for a game also carries its counts, its place
    on the game's radius ladder: ((R0, params), a, b), where radius is
    R0 * alpha**a * beta**b.  Only `_with_counts` sets them, for a radius
    computed in the same step; `Ball(...)` and `dataclasses.replace` give
    a ball without counts."""

    center: Fraction
    radius: Fraction
    word: Optional[Tuple[int, ...]] = None
    _counts: Optional[tuple] = field(default=None, init=False, compare=False,
                                     repr=False)

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


def _same(x: Optional[Fraction], y: Fraction) -> bool:
    """x == y.  A kept center is passed on as the same object, so identity
    decides most calls without Fraction's type dispatch."""
    return x is y or x == y


def _dist_cmp(x: Fraction, y: Fraction, num: int, den: int) -> int:
    """The sign of |x - y| - num/den, for num, den > 0, by integer
    cross-multiplication: |xn*yd - yn*xd| * den against num * xd * yd.
    Equal points take no product."""
    xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    if xn == yn and xd == yd:
        return -1
    lhs, rhs = abs(xn * yd - yn * xd) * den, num * xd * yd
    return (lhs > rhs) - (lhs < rhs)


def _with_counts(ball: Ball, counts) -> Ball:
    """`ball` with its counts set: the one place that sets them, for
    `_ladder_start` and `_ladder_step`."""
    object.__setattr__(ball, "_counts", counts)
    return ball


def _ladder_start(center, radius, word, params: GameParams) -> Ball:
    """A ball that starts a radius ladder of `params` at its radius."""
    return _with_counts(Ball(center, radius, word), ((radius, params), 0, 0))


def _ladder_step(last: Ball, player, center, word) -> Ball:
    """The ball one move of `player` past the counted ball `last`: radius
    alpha (for Alice) or beta (anyone else) times last.radius, and one
    more a or b."""
    ladder, a, b = last._counts
    if player == "alice":
        a, ratio = a + 1, ladder[1].alpha
    else:
        b, ratio = b + 1, ladder[1].beta
    return _with_counts(Ball(center, ratio * last.radius, word),
                        (ladder, a, b))


def _one_step(prev, nxt, alice: bool, params: GameParams) -> bool:
    """Whether counts `nxt` lie one move of Alice (or Bob) past counts
    `prev`, on one ladder of `params`: then nxt's radius is exactly the
    ratio times prev's."""
    if prev is None or nxt is None or prev[0] != nxt[0] \
            or prev[0][1] != params:
        return False
    _, a, b = prev
    return nxt[1:] == ((a + 1, b) if alice else (a, b + 1))


def is_legal(prev: Ball, nxt: Ball, whose_turn: str, params: GameParams) -> Tuple[bool, str]:
    """Referee one move:  radius exactly ratio * prev.radius, then nesting.
    Balls counted one move apart on one ladder of `params` pass the radius
    rule by their counts; any other pair takes the exact product.  Nesting
    is decided on the integers of the radii, where equal centers take no
    product."""
    alice = whose_turn == "alice"
    ratio = params.alpha if alice else params.beta
    if not _one_step(prev._counts, nxt._counts, alice, params) \
            and nxt.radius != ratio * prev.radius:
        return False, (f"radius ({_bits(nxt.radius)}) != ratio * "
                       f"({_bits(prev.radius)}) required by the "
                       f"classical rule")
    pn, pd = prev.radius.numerator, prev.radius.denominator
    an, ad = ratio.numerator, ratio.denominator
    # the center may move prev.radius - nxt.radius = (1 - ratio) * prev.radius
    if not _same(nxt.center, prev.center) and _dist_cmp(
            prev.center, nxt.center, (ad - an) * pn, ad * pd) > 0:
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


def _scaled(d: Decimal, num: int, den: int) -> Decimal:
    """d // den * num on exact digits; a factor of 1 takes no step."""
    if den != 1:
        d = _EXACT.divide_int(d, den)
    return d if num == 1 else _EXACT.multiply(d, num)


class _Lines:
    """The transcript's line format, one move a line in `json.dumps`'s
    compact sorted layout, keeping the last line's center with its text and
    the last ball.  A repeated center reuses its text, and a repeated center
    text its Fraction.  A radius one move past the last ball's, ratio *
    last, is stepped from the last radius's digits, linear in them: the
    writer steps when the ball's counts lie one move past the last ball's,
    and the reader accepts only the stepped text, building the ball one
    count past the last.  Any other radius goes through str() or
    `parse_rational`, which raise as they would alone, and re-seeds the
    digits; an uncounted ball on the rule writes the same text, since the
    stepped digits are the reduced fraction.  Read back, any other radius
    starts a new radius ladder.  Move i's line carries its round number,
    i // 2 + 1, as "k"; the reader refuses any other."""

    def __init__(self, params: GameParams):
        self.params = params
        self.center = self.center_text = None
        self.last: Optional[Ball] = None
        self.digits: Optional[Tuple[Decimal, Decimal]] = None
        # the int string digit limit, 0 for none (CPython 3.10.7 and later)
        self.limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()

    def _step(self, player):
        """(digits, text) of the radius one move of `player` past the last
        ball, or (None, None) where there is no last ball or a number
        passes the int string digit limit."""
        if self.last is None:
            return None, None
        ratio = self.params.alpha if player == "alice" else self.params.beta
        pn, pd = self.last.radius.numerator, self.last.radius.denominator
        an, ad = ratio.numerator, ratio.denominator
        g, h = gcd(an, pd), gcd(pn, ad)
        dn, dd = self.digits or map(_EXACT.create_decimal, (pn, pd))
        dn, dd = _scaled(dn, an // g, h), _scaled(dd, ad // h, g)
        if self.limit and max(dn.adjusted(), dd.adjusted()) >= self.limit:
            return None, None
        return (dn, dd), (f"{dn}" if dd == 1 else f"{dn}/{dd}")

    def write(self, i: int, player, ball: Ball) -> str:
        if not _same(self.center, ball.center):
            self.center, self.center_text = ball.center, str(ball.center)
        digits = None
        if self.last is not None and _one_step(
                self.last._counts, ball._counts, player == "alice",
                self.params):
            digits, text = self._step(player)
        if digits is None:
            text = str(ball.radius)
        self.last, self.digits = ball, digits
        name = f'"{player}"' if player in _PLAYERS else json.dumps(player)
        return (f'{{"center":"{self.center_text}","k":{i // 2 + 1},'
                f'"player":{name},"radius":"{text}"}}')

    def read(self, i: int, line: str) -> Tuple[str, Ball]:
        doc = json.loads(line)
        text = doc["center"]
        if self.center is None or text != self.center_text:
            self.center, self.center_text = parse_rational(text), text
        text = doc["radius"]
        player = doc.get("player")
        digits, stepped = self._step(player)
        if digits is not None and text == stepped:
            ball = _ladder_step(self.last, player, self.center, None)
        else:
            ball, digits = _ladder_start(self.center, parse_rational(text),
                                         None, self.params), None
        self.last, self.digits = ball, digits
        # a bad radius raised above, before a missing player
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
        if (_same(ball.center, prev.center)
                and ball.word in (None, prev.word)):
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
    and keep their own state; the engine alone supplies each radius, alpha
    or beta times the last, keeps the game record and referees each move.
    Each ball carries its counts on the radius ladder that starts at the
    opening's radius, so the referee checks the radius rule by count.  A strategy raising NoPointFound
    loses by StrategyFailure; an illegal ball raises IllegalMove.  Both
    exceptions carry the partial transcript.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    start = ((support.canonical_point, support.diameter, ()) if opening is None
             else (opening.center, opening.radius, opening.word))
    opening = _ladder_start(*start, params)
    t = Transcript(params=params)
    _referee(support, t, 0, "bob", opening)
    t.moves.append(("bob", opening))
    for _ in range(rounds):
        for player, strategy in (("alice", alice), ("bob", bob)):
            try:
                center, word = strategy.move(support, params, t.last_ball)
            except NoPointFound as exc:
                raise StrategyFailure(player, exc, t) from exc
            ball = _ladder_step(t.last_ball, player, center, word)
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
