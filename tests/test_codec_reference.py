"""The transcript codec (`Transcript.to_jsonl`, `transcript_from_jsonl`)
against the plain codec it replaced.

`reference_to_jsonl` writes each move with `json.dumps(..., sort_keys=True,
separators=(",", ":"))` of `str()`s, and `reference_from_jsonl` reads each
line with `json.loads` and `parse_rational`.  They exist only here.
Hypothesis draws transcripts whose ratios and radii share factors either
way round, integer radii, off-rule radii mid-chain, repeated and changing
centers, and player strings that JSON must escape; the reader also gets
non-canonical texts ("2/4", "+1/3", " 1/3").  The codec must write the
same text and read equal Fractions.
"""

import json
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidtgame.game import Ball, GameParams, Transcript, transcript_from_jsonl
from schmidtgame.numerics import parse_rational


def reference_to_jsonl(t):
    return "\n".join(
        json.dumps({"k": i // 2 + 1, "player": player,
                    "center": str(ball.center), "radius": str(ball.radius)},
                   sort_keys=True, separators=(",", ":"))
        for i, (player, ball) in enumerate(t.moves)) + "\n"


def reference_from_jsonl(text):
    moves = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            doc = json.loads(line)
            ball = Ball(parse_rational(doc["center"]),
                        parse_rational(doc["radius"]))
            moves.append((doc["player"], ball))
    return moves


def plain(moves):
    return [(player, ball.center, ball.radius, ball.word)
            for player, ball in moves]


# small factors, so that gcds between ratios and radii are common
SMALL = st.integers(1, 36)
ratios = st.builds(lambda a, b: F(min(a, b), max(a, b) + 1), SMALL, SMALL)
PLAYERS = ["bob", "alice", 'a"l\\iceé\n', "", "bob "]


@st.composite
def openings(draw):
    kind = draw(st.sampled_from(["integer", "small", "big"]))
    if kind == "integer":   # a chain of integer radii, texts like "27"
        return F(draw(st.sampled_from([1, 2, 6, 12, 36, 81, 6 ** 9])))
    if kind == "small":
        return F(draw(SMALL), draw(SMALL))
    return F(draw(st.integers(1, 10 ** 30)), draw(st.integers(1, 10 ** 60)))


centers = st.one_of(st.builds(F, st.integers(-50, 50), SMALL),
                    st.builds(F, st.integers(0, 3 ** 400), st.just(3 ** 400)))


@st.composite
def transcripts(draw):
    params = GameParams(draw(ratios), draw(ratios))
    radius, center = draw(openings()), draw(centers)
    moves, before = [], radius
    for i in range(draw(st.integers(0, 40))):
        player = ("bob", "alice")[i % 2]
        if draw(st.integers(0, 9)) == 0:
            player = draw(st.sampled_from(PLAYERS))
        if i:
            ratio = params.alpha if player == "alice" else params.beta
            shape = draw(st.sampled_from(["rule"] * 6 + ["off", "same",
                                                         "back"]))
            # "back" follows the rule from the radius one line earlier
            before, radius = radius, (
                ratio * radius if shape == "rule" else
                radius * draw(ratios) if shape == "off" else
                ratio * before if shape == "back" else radius)
            if draw(st.integers(0, 3)) == 0:
                center = draw(centers)
        moves.append((player, Ball(center, radius)))
    return Transcript(params=params, moves=moves)


def classical(alpha, beta):
    return GameParams(F(alpha), F(beta))


def chain(params, opening, shapes, center=F(0)):
    """A transcript from `opening`: "rule" moves take ratio * last, other
    entries are the radius itself."""
    moves, radius = [], F(opening)
    for i, shape in enumerate(["open"] + list(shapes)):
        player = ("bob", "alice")[i % 2]
        if shape == "rule":
            radius *= params.alpha if player == "alice" else params.beta
        elif shape != "open":
            radius = F(shape)
        moves.append((player, Ball(center, radius)))
    return Transcript(params=params, moves=moves)


FROZEN = [
    # the ratio's numerator shares a factor with the radius's denominator
    chain(classical(F(2, 9), F(3, 8)), F(1, 4), ["rule"] * 12),
    # the radius's numerator shares a factor with the ratio's denominator
    chain(classical(F(1, 6), F(5, 9)), F(3, 5), ["rule"] * 12),
    # integer radii, 81 down to 1 and on
    chain(classical(F(1, 3), F(1, 3)), 81, ["rule"] * 8),
    # an off-rule radius mid-chain, then the rule again from it
    chain(classical(F(1, 3), F(1, 4)), 1, ["rule"] * 5 + [F(7, 11)]
          + ["rule"] * 5),
    # after an off-rule 1/5, the rule applied to the line before it
    chain(classical(F(1, 3), F(1, 4)), 1, ["rule", F(1, 5), F(1, 9), "rule"]),
    # an off-rule 1/5, then the rule twice from it
    chain(classical(F(1, 3), F(1, 4)), 1, ["rule", F(1, 5), "rule", "rule"]),
]


def check_codec(t):
    text = t.to_jsonl()
    assert text == reference_to_jsonl(t)
    back = transcript_from_jsonl(text, t.params)
    assert plain(back.moves) == plain(reference_from_jsonl(text))
    assert back.to_jsonl() == text


@pytest.mark.parametrize("t", FROZEN, ids=range(len(FROZEN)))
def test_frozen_transcripts(t):
    check_codec(t)


@settings(max_examples=200, deadline=None)
@given(transcripts())
def test_codec_matches_reference(t):
    check_codec(t)


SPELLINGS = {"canonical": lambda v, text: text,
             "scaled": lambda v, text: "%d/%d" % (2 * v.numerator,
                                                  2 * v.denominator),
             "plus": lambda v, text: text if v < 0 else "+" + text,
             "space": lambda v, text: " " + text}


def respelled(t, forms):
    """`t`'s text with each center and radius in the next of `forms`, ways
    a person might write the number that parse_rational reads the same."""
    lines = []
    for line in filter(None, t.to_jsonl().splitlines()):
        doc = json.loads(line)
        for key in ("center", "radius"):
            doc[key] = SPELLINGS[next(forms)](F(doc[key]), doc[key])
        lines.append(json.dumps(doc))
    return "\n".join(lines) + "\n"


def check_reader(t, text):
    back = transcript_from_jsonl(text, t.params)
    assert plain(back.moves) == plain(reference_from_jsonl(text))
    assert plain(back.moves) == plain(t.moves)
    assert back.to_jsonl() == reference_to_jsonl(t)


def test_reader_on_frozen_spellings():
    # "2/4" for 1/2 breaks the stepped digits once; the next line steps
    # from the number it read
    t = chain(classical(F(1, 3), F(1, 4)), F(1, 3), ["rule"] * 6)
    forms = ["canonical", "scaled", "canonical", "plus", "space", "canonical",
             "canonical", "scaled", "canonical", "canonical", "space",
             "space", "canonical", "canonical"]
    check_reader(t, respelled(t, iter(forms)))


@settings(max_examples=120, deadline=None)
@given(transcripts(), st.data())
def test_reader_matches_reference_on_any_spelling(t, data):
    forms = iter(lambda: data.draw(st.sampled_from(
        ["canonical"] * 3 + ["scaled", "plus", "space"])), None)
    check_reader(t, respelled(t, forms))


def test_repeated_center_text_keeps_its_fraction():
    p = classical(F(1, 3), F(1, 3))
    t = chain(p, 1, ["rule"] * 4, center=F(1, 3 ** 50))
    back = transcript_from_jsonl(t.to_jsonl(), p)
    assert len({id(ball.center) for _, ball in back.moves}) == 1


def test_malformed_lines_fail_as_before():
    p = classical(F(1, 3), F(1, 3))
    for text in ('{"center":null,"k":1,"player":"bob","radius":"1"}',
                 '{"center":"0","k":1,"player":"bob","radius":1}',
                 '{"center":"0","k":1,"player":"bob","radius":"-1"}',
                 '{"center":"0","k":1,"player":"bob","radius":"1"}\n'
                 '{"center":"0","k":1,"player":"alice","radius":0.5}'):
        with pytest.raises(ValueError):
            reference_from_jsonl(text)
        with pytest.raises(ValueError):
            transcript_from_jsonl(text, p)
    with pytest.raises(KeyError):
        transcript_from_jsonl('{"center":"0","k":1,"radius":"1"}', p)


def test_digit_limit_boundary():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        check_digit_limit(640)
    finally:
        sys.set_int_max_str_digits(old)


def check_digit_limit(limit):
    # the opening's denominator has 639 digits; each move adds one
    p = classical(F(1, 10), F(1, 10))
    t = chain(p, F(1, 10 ** 638), ["rule"])
    text = t.to_jsonl()
    assert text == reference_to_jsonl(t)
    assert len(str(t.last_ball.radius.denominator)) == limit
    back = transcript_from_jsonl(text, p)
    assert plain(back.moves) == plain(t.moves)

    t = chain(p, F(1, 10 ** 638), ["rule", "rule"])
    with pytest.raises(ValueError) as want:
        str(t.last_ball.radius)
    with pytest.raises(ValueError) as got:
        t.to_jsonl()
    assert str(got.value) == str(want.value)
    # the reader defers to parse_rational, which raises the same way
    text += ('{"center":"0","k":2,"player":"bob","radius":"1/1%s"}'
             % ("0" * limit))
    with pytest.raises(ValueError) as want:
        reference_from_jsonl(text)
    with pytest.raises(ValueError) as got:
        transcript_from_jsonl(text, p)
    assert str(got.value) == str(want.value)
