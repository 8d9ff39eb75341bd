"""Adversary strategies.

The separation guarantees quantify over every ball the shrinking player
may pick, so the tests need adversaries that actually push back: a greedy
white-box player that steers toward the points the other side is trying
to avoid, and a seeded uniform player for fuzzing.
"""

import random
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .fractal import FractalSupport, find_point_in_gap
from .game import Ball, GameParams, HoldCenter, Point

__all__ = ["greedy_move", "random_move",
           "KeepCenterBob", "GreedyBob", "RandomBob"]

# random Bob's deepest cylinder layer
RANDOM_DEPTH = 64


def _legal_range(ball: Ball, ratio: Fraction) -> Tuple[Fraction, Fraction]:
    slack = (1 - ratio) * ball.radius
    return ball.center - slack, ball.center + slack


def greedy_move(support: FractalSupport, alice_ball: Ball, params: GameParams,
                targets: Sequence[Fraction]) -> Point:
    """Center the reply as close to the nearest target as legality allows.

    The target list is whatever the other player wants to stay away from;
    moving toward it forces the avoidance machinery to do real work.  With
    no targets, or when no support point improves on the current center,
    keeps the center.
    """
    if not targets:
        return alice_ball.center, alice_ball.word
    lo, hi = _legal_range(alice_ball, params.beta)
    goal = min((Fraction(t) for t in targets),
               key=lambda t: abs(t - alice_ball.center))
    desired = min(max(goal, lo), hi)
    width = hi - lo
    # widening search windows around the clipped goal; the first hit in a
    # small window is nearly optimal, wider windows only rescue sparse spots
    for k in range(12, -1, -1):
        w = width / 2 ** k
        got = find_point_in_gap(support, (max(desired - w, lo),
                                          min(desired + w, hi)), [],
                                word=alice_ball.word)
        if got is not None:
            break
    if got is not None and abs(got[0] - goal) < abs(alice_ball.center - goal):
        return got
    return alice_ball.center, alice_ball.word


def random_move(support: FractalSupport, alice_ball: Ball, params: GameParams,
                seed) -> Point:
    """Uniformly pick a legal cylinder point, with its word, as the center.

    Candidates are the canonical points of the deepest cylinder layer that
    still fits inside the legal center range; the choice is deterministic
    in the seed.  Falls back to keeping the center when no cylinder fits.

    The depth stops at RANDOM_DEPTH, 64, so Bob keeps the center when the
    legal range, 2(1 - beta) * radius long, is shorter than the shortest
    depth-64 cylinder.  That test reads the radius alone, on integers,
    before any sum of center and radius, any depth search or walk.  On the
    middle-thirds set it holds from a radius of a few times 3**-64 down:
    199 of the 200 moves of the 200-round triple game.
    """
    beta, radius = params.beta, alice_ball.radius
    floor = support.shortest_cylinder(RANDOM_DEPTH)
    # floor > 2(1 - beta) * radius, cross-multiplied
    if (floor.numerator * beta.denominator * radius.denominator >
            2 * (beta.denominator - beta.numerator) * radius.numerator
            * floor.denominator):
        return alice_ball.center, alice_ball.word
    lo, hi = _legal_range(alice_ball, beta)
    depth = support.depth_below((hi - lo) / 4, cap=RANDOM_DEPTH)
    cands = [c for c in support.cylinders_meeting(lo, hi, depth)
             if lo <= c.lo and c.hi <= hi]
    if not cands:
        return alice_ball.center, alice_ball.word
    rng = random.Random(str(seed))
    cyl = cands[rng.randrange(len(cands))]
    return support.point(cyl.word), cyl.word


class KeepCenterBob(HoldCenter):
    """The laziest legal adversary: `HoldCenter` played for Bob, keeping
    the center while the engine shrinks the radius by beta."""


class GreedyBob:
    """White-box adversary: steers toward the opponent's danger points.

    ``alice`` is the strategy object being stressed; its danger_preview
    names the points it is currently trying to clear.
    A static target list can be supplied instead.
    """

    def __init__(self, alice=None, targets: Optional[Sequence[Fraction]] = None):
        self.alice = alice
        self.targets = [Fraction(t) for t in targets] if targets else []

    def move(self, support, params, ball) -> Point:
        targets = list(self.targets)
        if self.alice is not None:
            targets.extend(self.alice.danger_preview(ball))
        return greedy_move(support, ball, params, targets)


class RandomBob:
    """Seeded uniform adversary; the move stream is a pure function of seed."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.count = 0

    def move(self, support, params, ball) -> Point:
        self.count += 1
        return random_move(support, ball, params,
                           "%s/%d" % (self.seed, self.count))

