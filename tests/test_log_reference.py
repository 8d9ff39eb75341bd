"""The fixed-point kernel of `numerics.log_sign` and `ln_bounds` against a
Fraction reference.

`reference_ln_bounds` encloses ln x at a precision of its own and returns
the ends as Fractions; `reference_log_sign` encloses each distinct ln x that
way at every precision level and multiplies and sums the enclosures as
Fractions, endpoint by endpoint.  Together they are the straightforward
reading of the kernel, kept only here.  Hypothesis draws sums of 1-4 terms
of 0-3 factors each, with signed rational coefficients and each x in
[1/50, 50], 1 included: both sides must give the same sign, or both must
raise PrecisionCapExceeded.  An AST guard keeps the refinement loop, and
every package function it calls, free of `Fraction`.
"""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schmidtgame.errors import PrecisionCapExceeded
from schmidtgame.numerics import MAX_BITS, ln_bounds, log_sign

NUMERICS = Path(__file__).resolve().parent.parent / "src" / "schmidtgame" \
    / "numerics.py"


def reference_atanh(num, den, prec):
    """Integers lo <= 2**prec atanh(num/den) <= hi for 0 <= num/den <= 1/3."""
    z = (num << prec) // den
    z2 = z * z
    lo, power, k = 0, z, 0
    while power:
        lo += power // (2 * k + 1)
        power = power * z2 >> 2 * prec
        k += 1
    return lo, lo + 3 * k + 3


def reference_ln_bounds(x, bits):
    x = F(x)
    if x <= 0:
        raise ValueError("ln requires a positive argument")
    if x == 1:
        return F(0), F(0)
    if x < 1:
        lo, hi = reference_ln_bounds(1 / x, bits)
        return -hi, -lo
    n, d = x.numerator, x.denominator
    e = n.bit_length() - d.bit_length()
    if n < d << e:
        e -= 1
    guard = 1
    while (2 * e + 2) * (bits + guard + 6) > 1 << guard:
        guard += 1
    prec = bits + guard
    alo, ahi = reference_atanh(n - (d << e), n + (d << e), prec)
    llo, lhi = reference_atanh(1, 3, prec)
    one = 1 << prec
    return F(2 * (alo + e * llo), one), F(2 * (ahi + e * lhi), one)


def reference_log_sign(terms):
    terms = [(F(c), [F(x) for x in xs]) for c, xs in terms]
    distinct = {x for _, xs in terms for x in xs}
    bits = 32
    while True:
        logs = {x: reference_ln_bounds(x, bits) for x in distinct}
        lo = hi = F(0)
        for c, xs in terms:
            tlo = thi = c
            for x in xs:
                xlo, xhi = logs[x]
                ps = (tlo * xlo, tlo * xhi, thi * xlo, thi * xhi)
                tlo, thi = min(ps), max(ps)
            lo += tlo
            hi += thi
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        if lo == hi:
            return 0
        if bits >= MAX_BITS:
            raise PrecisionCapExceeded("reference")
        bits = min(2 * bits, MAX_BITS)


def outcome(sign, terms):
    try:
        return sign(terms)
    except PrecisionCapExceeded:
        return "cap"


xs = st.one_of(st.just(F(1)), st.fractions(min_value=F(1, 50), max_value=50,
                                           max_denominator=50))
coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=20)
sums = st.lists(st.tuples(coefficients, st.lists(xs, max_size=3)),
                min_size=1, max_size=4)
# a rational within 2**-64 below ln 2: the first levels straddle 0
NEAR_LN2 = reference_ln_bounds(2, 64)[0]


@settings(max_examples=300, deadline=None)
@given(terms=sums)
@example(terms=[(F(1), [F(2)]), (-NEAR_LN2, [])])
@example(terms=[(F(1, 3), [F(1, 2), F(3), F(50)]), (F(-2), [F(7, 5)]),
                (F(5, 7), [])])
@example(terms=[(F(1), [F(2), F(3)]), (F(-1), [F(3), F(2)])])
def test_sign_matches_reference(terms):
    assert outcome(log_sign, terms) == outcome(reference_log_sign, terms)


@settings(max_examples=60, deadline=None)
@given(x=st.fractions(min_value=F(1, 50), max_value=50, max_denominator=50))
@example(x=F(1))
@example(x=F(3 ** 500, 2 ** 700))
@example(x=1 + F(1, 10 ** 300))
def test_ln_bounds_match_reference(x):
    for bits in (32, 64, 128, 256, 512, 1024):
        assert ln_bounds(x, bits) == reference_ln_bounds(x, bits)


@pytest.mark.parametrize("terms", [
    [(1, [4]), (-2, [2])],  # ln 4 = 2 ln 2: a tie no enclosure separates
    [(1, [2]), (-reference_ln_bounds(2, 2048)[0], [])],  # past the cap
], ids=["tie", "within_2**-2048"])
def test_cap_on_both_sides(terms):
    with pytest.raises(PrecisionCapExceeded):
        reference_log_sign(terms)
    with pytest.raises(PrecisionCapExceeded):
        log_sign(terms)


def test_empty_and_exact_zero_terms():
    for terms in ([], [(0, [2, 3])], [(F(5, 3), [1, 7]), (0, [])]):
        assert log_sign(terms) == reference_log_sign(terms) == 0


@pytest.mark.parametrize("terms", [[(1, [0])], [(1, [2, F(-1, 2)])],
                                   [(0, [-3])], [(1, [1, 0])]])
def test_nonpositive_x_raises(terms):
    # even in a term that is 0 for its coefficient or its factor ln 1
    with pytest.raises(ValueError, match="positive"):
        reference_log_sign(terms)
    with pytest.raises(ValueError, match="positive"):
        log_sign(terms)


@pytest.mark.parametrize("x", [0, F(-1, 2)])
def test_ln_bounds_refuses_nonpositive(x):
    with pytest.raises(ValueError, match="positive"):
        ln_bounds(x, 32)


def fraction_calls(tree, name):
    """Lines of each `Fraction(...)` call the refinement loop (the `while`)
    of module function `name` makes, directly or in any module function it
    calls, at any depth."""
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    loop = next(n for n in ast.walk(funcs[name]) if isinstance(n, ast.While))
    seen, todo, lines = set(), [loop], []
    while todo:
        for node in ast.walk(todo.pop()):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                callee = node.func.id
                if callee == "Fraction":
                    lines.append(node.lineno)
                elif callee in funcs and callee not in seen:
                    seen.add(callee)
                    todo.append(funcs[callee])
    return sorted(lines)


def test_guard_sees_each_kind():
    code = ("def helper(n):\n    return Fraction(n)\n"
            "def kernel(x):\n    y = Fraction(x)\n    while True:\n"
            "        z = helper(x) + Fraction(1, 2) + int(x)\n"
            "def unused():\n    return Fraction(3)\n")
    assert fraction_calls(ast.parse(code), "kernel") == [2, 6]


def test_refinement_loop_builds_no_fraction():
    tree = ast.parse(NUMERICS.read_text(encoding="utf-8"), str(NUMERICS))
    assert fraction_calls(tree, "log_sign") == []
