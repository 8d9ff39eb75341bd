"""The integer referee (`game.is_legal`) against a Fraction reference.

`reference_is_legal` is the referee written with Fraction arithmetic: the
radius rule nxt.radius == ratio * prev.radius, then nesting as
nxt.radius + |prev.center - nxt.center| <= prev.radius.  It exists only
here.  Hypothesis draws both players, radii from the game's schedule
shape alpha^a * beta^b and with 1,000-bit denominators, next radii exact,
one unit off in the last place or free, and next centers equal to the last
one, tangent to its boundary, inside or outside it by half the finest gap
the radii can express, or anywhere; centers have small, dyadic or triadic
denominators of over 1,000 bits.
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from schmidtgame.game import Ball, GameParams, is_legal


def reference_is_legal(prev, nxt, whose_turn, params):
    """(ok, rule): the rule the move breaks, or "" when it is legal."""
    ratio = params.alpha if whose_turn == "alice" else params.beta
    if nxt.radius != ratio * prev.radius:
        return False, "classical rule"
    if nxt.radius + abs(prev.center - nxt.center) > prev.radius:
        return False, "not nested"
    return True, ""


ratios = st.builds(F, st.integers(1, 40), st.integers(41, 80))


@st.composite
def centers(draw):
    kind = draw(st.sampled_from(["small", "dyadic", "triadic"]))
    if kind == "small":
        return F(draw(st.integers(-60, 60)), draw(st.integers(1, 60)))
    if kind == "dyadic":
        bits = draw(st.integers(1001, 1400))
        return F(2 * draw(st.integers(-2 ** bits, 2 ** bits)) + 1, 2 ** bits)
    k = draw(st.integers(640, 900))       # 3^640 has 1,015 bits
    return F(3 * draw(st.integers(0, 3 ** k)) + 1, 3 ** k)


@st.composite
def radii(draw, alpha, beta):
    kind = draw(st.sampled_from(["schedule", "wide", "small"]))
    if kind == "schedule":
        return (alpha ** draw(st.integers(0, 400))
                * beta ** draw(st.integers(0, 400))
                / draw(st.integers(1, 9)))
    if kind == "wide":
        bits = draw(st.integers(1001, 1300))
        return F(draw(st.integers(1, 2 ** bits)), draw(st.integers(2 ** bits,
                                                                   2 ** (bits + 4))))
    return F(draw(st.integers(1, 60)), draw(st.integers(1, 60)))


@st.composite
def moves(draw):
    """(prev, nxt, player, params) in one of the shapes above."""
    params = GameParams(draw(ratios), draw(ratios))
    player = draw(st.sampled_from(["alice", "bob"]))
    ratio = params.alpha if player == "alice" else params.beta
    prev = Ball(draw(centers()), draw(radii(params.alpha, params.beta)))
    exact = ratio * prev.radius
    shape = draw(st.sampled_from(["exact", "ulp_up", "ulp_down", "free"]))
    if shape == "exact":
        radius = exact
    elif shape == "ulp_up" or exact.numerator == 1 and shape == "ulp_down":
        radius = F(exact.numerator + 1, exact.denominator)
    elif shape == "ulp_down":
        radius = F(exact.numerator - 1, exact.denominator)
    else:
        radius = prev.radius * F(draw(st.integers(1, 200)), 100)
    room = prev.radius - radius
    sign = draw(st.sampled_from([1, -1]))
    # half the finest gap the two radii can express
    tiny = F(1, 2 * prev.radius.denominator * radius.denominator)
    where = draw(st.sampled_from(["equal", "tangent", "outside", "inside",
                                  "near", "anywhere"]))
    center = {
        "equal": prev.center,
        "tangent": prev.center + sign * room,
        "outside": prev.center + sign * (room + tiny),
        "inside": prev.center + sign * (room - tiny),
        "near": prev.center + sign * prev.radius * F(draw(st.integers(0, 100)),
                                                     100),
        "anywhere": draw(centers()),
    }[where]
    return prev, Ball(center, radius), player, params


@settings(max_examples=400, deadline=None)
@given(moves())
def test_referee_matches_fraction_reference(move):
    prev, nxt, player, params = move
    want_ok, want_rule = reference_is_legal(prev, nxt, player, params)
    ok, reason = is_legal(prev, nxt, player, params)
    assert ok == want_ok
    assert want_rule in reason and (reason == "") == ok


@settings(max_examples=100, deadline=None)
@given(ratios, centers(), st.integers(1, 400), st.sampled_from([1, -1]))
def test_tangent_schedule_balls_are_legal(alpha, center, a, sign):
    # a ball touching the boundary from inside is legal, on the game's own
    # radii and big centers
    params = GameParams(alpha, F(1, 4))
    prev = Ball(center, alpha ** a / 3)
    nxt = Ball(center + sign * (1 - alpha) * prev.radius, alpha * prev.radius)
    assert is_legal(prev, nxt, "alice", params) == (True, "")
    assert reference_is_legal(prev, nxt, "alice", params) == (True, "")
