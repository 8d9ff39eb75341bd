"""The integer cylinder kernel of `FractalSupport` against a Fraction
reference.

`Reference` walks the IFS tree with (r, a) Fraction pairs, one recursive
walk per query; it is the straightforward reading of each definition and
exists only here.  Hypothesis draws open-set-condition systems of 2-4 maps
with negative ratios, hulls other than [0, 1] and canonical points inside
the hull; every query must give the same value, the same list in the same
order, the same word.
"""

import itertools
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from schmidtgame.fractal import (IFS, FractalMeasure, FractalSupport,
                                 SimilarityMap, find_point_in_gap)


class Reference:
    def __init__(self, support: FractalSupport):
        self.maps = support.ifs.maps
        self.weights = support.ifs.weights
        self.hlo, self.hhi = support.hull
        self.p0 = support.canonical_point

    def compose(self, word):
        r, a = F(1), F(0)
        for i in word:
            m = self.maps[i]
            r, a = r * m.r, r * m.a + a
        return r, a

    def point(self, word):
        r, a = self.compose(word)
        return r * self.p0 + a

    def span(self, r, a):
        p, q = r * self.hlo + a, r * self.hhi + a
        return (p, q) if p <= q else (q, p)

    def cylinder(self, word):
        """(word, lo, hi, mass) of the word's cylinder."""
        lo, hi = self.span(*self.compose(word))
        mass = F(1)
        for i in word:
            mass *= self.weights[i]
        return tuple(word), lo, hi, mass

    def children(self, word, r, a):
        for i, m in enumerate(self.maps):
            yield word + (i,), r * m.r, r * m.a + a

    def cylinders_meeting(self, lo, hi, depth):
        out = []

        def rec(word, r, a):
            clo, chi = self.span(r, a)
            if chi < lo or clo > hi:
                return
            if len(word) == depth:
                out.append(self.cylinder(word))
                return
            for child in self.children(word, r, a):
                rec(*child)

        rec((), F(1), F(0))
        return out

    def locate(self, x, max_depth):
        def rec(word, r, a):
            clo, chi = self.span(r, a)
            if not clo <= x <= chi:
                return None
            if x == r * self.p0 + a:
                return word
            if len(word) == max_depth:
                return None
            for child in self.children(word, r, a):
                got = rec(*child)
                if got is not None:
                    return got
            return None

        return rec((), F(1), F(0))

    def interval_mass(self, lo, hi, depth):
        def rec(word, r, a):
            clo, chi = self.span(r, a)
            if chi <= lo or clo >= hi:
                return F(0), F(0)
            mass = self.cylinder(word)[3]
            if lo <= clo and chi <= hi:
                return mass, mass
            if len(word) == depth:
                return F(0), mass
            sums = [rec(*child) for child in self.children(word, r, a)]
            return sum(s[0] for s in sums), sum(s[1] for s in sums)

        return rec((), F(1), F(0))

    def find_point_in_gap(self, inside, forbidden, max_depth):
        ilo, ihi = inside
        forbidden = [(min(f), max(f)) for f in forbidden]

        def rec(word, r, a):
            clo, chi = self.span(r, a)
            if chi < ilo or clo > ihi:
                return None
            if any(flo <= clo and chi <= fhi for flo, fhi in forbidden):
                return None
            x = r * self.p0 + a
            if ilo <= x <= ihi and not any(flo <= x <= fhi
                                           for flo, fhi in forbidden):
                return x, word
            if len(word) == max_depth:
                return None
            for child in self.children(word, r, a):
                got = rec(*child)
                if got is not None:
                    return got
            return None

        return rec((), F(1), F(0))


@st.composite
def supports(draw, p0_at_end=False):
    """An IFS whose hull images are laid out left to right with gaps of
    zero or more, each map's image placed in a random slot.  The canonical
    point p0 lies strictly inside the hull, or with `p0_at_end` at its low
    end, as in the Cantor set: then cylinder ends are canonical points,
    and where images touch a point can have two addresses."""
    k = draw(st.integers(2, 4))
    lengths = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    gaps = draw(st.lists(st.integers(0, 2), min_size=k + 1, max_size=k + 1))
    signs = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    slots = draw(st.permutations(range(k)))
    if p0_at_end:  # map 0 fixes the hull's low end
        slots = [0] + [j for j in slots if j != 0]
        gaps[0], signs[0] = 0, False
        if draw(st.booleans()):  # touching images share their ends
            gaps[1:k] = [0] * (k - 1)
    lo = F(draw(st.integers(-7, 7)), draw(st.integers(1, 5)))
    width = F(draw(st.integers(1, 9)), draw(st.integers(1, 4)))
    hi = lo + width
    unit = width / (sum(lengths) + sum(gaps))
    starts, at = [], lo
    for j in range(k):
        at += gaps[j] * unit
        starts.append(at)
        at += lengths[j] * unit
    maps = []
    for i in range(k):
        j = slots[i]
        s, e = starts[j], starts[j] + lengths[j] * unit
        negative = signs[i] or (not p0_at_end and i == 0
                                and (s == lo or e == hi))
        r = -lengths[j] * unit / width if negative else lengths[j] * unit / width
        maps.append(SimilarityMap(r, (e if negative else s) - r * lo))
    raw = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
    weights = [F(w, sum(raw)) for w in raw]
    return FractalSupport(IFS(maps, weights), (lo, hi))


def words(k, max_len, min_len=0):
    return st.lists(st.integers(0, k - 1), min_size=min_len,
                    max_size=max_len).map(tuple)


def cylinders(K, lo, hi, depth):
    """(word, lo, hi, mass) of each depth-`depth` node of `K._walk` over
    [lo, hi]; `cylinders_meeting` must list the same words and ends."""
    got = [(tuple(n.word), F(n.lo, n.scale), F(n.hi, n.scale),
            F(n.mass, K._V ** depth))
           for n in K._walk(F(lo), F(hi), depth) if n.depth == depth]
    assert [(c.word, c.lo, c.hi) for c in K.cylinders_meeting(lo, hi, depth)] \
        == [c[:3] for c in got]
    return got


def cylinder(K, word):
    """(word, lo, hi, mass) of `word`'s node in the walk over its point."""
    x = K.point(word)
    (got,) = [c for c in cylinders(K, x, x, len(word)) if c[0] == tuple(word)]
    return got


def queries(support, data, depth):
    """A point near the hull: a depth-`depth` cylinder end, or a rational."""
    ends = [e for c in support.cylinders_meeting(*support.hull, depth)
            for e in (c.lo, c.hi)]
    hlo, hhi = support.hull
    spread = st.integers(-2, 34).map(lambda n: hlo + (hhi - hlo) * F(n, 32))
    return data.draw(st.sampled_from(ends) | spread)


def interval(support, data, depth):
    a, b = queries(support, data, depth), queries(support, data, depth)
    return min(a, b), max(a, b)


SETTINGS = settings(max_examples=40, deadline=None)


@SETTINGS
@given(supports(), st.data())
def test_points_and_cylinders(K, data):
    ref = Reference(K)
    assert K.hull[0] < ref.p0 < K.hull[1]
    k = len(K.ifs.maps)
    word = data.draw(words(k, 12))
    x = K.point(word)
    assert x == ref.point(word)
    assert K.verify_point(x, word)
    for off in (F(x.numerator + 1, x.denominator),
                F(x.numerator - 1, x.denominator)):
        assert not K.verify_point(off, word)
    assert cylinder(K, word) == ref.cylinder(word)
    depth = data.draw(st.integers(0, 3))
    assert cylinders(K, *K.hull, depth) == [
        ref.cylinder(w) for w in itertools.product(range(k), repeat=depth)]
    lo, hi = interval(K, data, 2)
    depth = data.draw(st.integers(0, 4))
    assert cylinders(K, lo, hi, depth) == ref.cylinders_meeting(lo, hi, depth)


def next_word(data, k, word):
    """A word related to the last one the kernel folded, in every way its
    memo has to tell apart: the same word, an extension, a shorter prefix,
    an unrelated word, or the same word with its last letter changed."""
    how = data.draw(st.sampled_from(["same", "extend", "prefix", "other",
                                     "last_letter"]))
    if how == "extend":
        return word + data.draw(words(k, 6))
    if how == "prefix":
        return word[:data.draw(st.integers(0, len(word)))]
    if how == "other":
        return data.draw(words(k, 30))
    if how == "last_letter" and word:
        bump = data.draw(st.integers(1, k - 1))
        return word[:-1] + ((word[-1] + bump) % k,)
    return word


@SETTINGS
@given(supports(), st.data())
def test_fold_sequences(K, data):
    """`point`, `verify_point` and a cylinder's ends in sequences that
    reuse, extend and abandon the kernel's last fold, against a fresh fold
    every time."""
    ref = Reference(K)
    k = len(K.ifs.maps)
    word = data.draw(words(k, 20))
    last_point = ref.point(word)
    for _ in range(data.draw(st.integers(1, 12))):
        word = next_word(data, k, word)
        arg = list(word) if data.draw(st.booleans()) else word
        call = data.draw(st.sampled_from(["point", "verify", "verify_last",
                                          "cylinder"]))
        if call == "point":
            assert K.point(arg) == ref.point(word)
        elif call == "verify":
            assert K.verify_point(ref.point(word), arg)
        elif call == "verify_last":  # the previous point under this word
            assert K.verify_point(last_point, arg) == \
                (ref.point(word) == last_point)
        else:
            lo, hi = K._span(*K._affine(arg))
            scale = K._H * K._Q ** len(word)
            assert (F(lo, scale), F(hi, scale)) == ref.cylinder(word)[1:3]
            assert cylinder(K, word) == ref.cylinder(word)
        last_point = ref.point(word)


@SETTINGS
@given(supports(), st.data())
def test_depth_below(K, data):
    """The integer depth search against the `size *= contraction` loop, on
    bounds that hit a power of the contraction exactly."""
    d = data.draw(st.integers(0, 40))
    size = K.diameter * K.contraction ** d
    bound = data.draw(st.sampled_from([size, size * F(1001, 1000),
                                       size * F(999, 1000)]))
    strict = data.draw(st.booleans())

    def loop(cap):
        depth, size = 0, K.diameter
        while (cap is None or depth < cap) and (size >= bound if strict
                                                else size > bound):
            depth += 1
            size *= K.contraction
        return depth

    free = loop(None)
    cap = data.draw(st.none() | st.integers(-1, 45)
                    | st.sampled_from([free - 1, free, free + 1]))
    assert K.depth_below(bound, strict, cap) == loop(cap)


@SETTINGS
@given(supports(), st.data())
def test_locate_and_mass(K, data):
    ref = Reference(K)
    k = len(K.ifs.maps)
    max_depth = data.draw(st.integers(0, 5))
    x = data.draw(st.sampled_from([K.point(data.draw(words(k, 6))),
                                   queries(K, data, 2)]))
    assert K.locate(x, max_depth) == ref.locate(x, max_depth)
    lo, hi = interval(K, data, 2)
    depth = data.draw(st.integers(0, 4))
    assert FractalMeasure(K).interval_mass(lo, hi, depth) == \
        ref.interval_mass(lo, hi, depth)


@settings(max_examples=200, deadline=None)
@given(st.booleans().flatmap(lambda end: supports(p0_at_end=end)), st.data())
def test_locate_sequences(K, data):
    """`locate` on one support over a sequence of points, against the walk
    from the root every time: resuming from the last word found must not
    change an answer.  The points are those of a word, its extensions, its
    siblings, prefixes of the last word found padded with 0-letters (the
    same point as a shorter word, located after a longer one), the ends of
    the last word found's cylinder (shared by two cylinders where images
    touch), and points near the hull, on K or off it; the depth cap may
    drop below the last word found.  The canonical point may be a hull
    end, and then cylinder ends are points of K."""
    ref = Reference(K)
    k = len(K.ifs.maps)
    word = found = ()
    for step in range(8):
        how = "extend" if step == 0 else data.draw(st.sampled_from(
            ["extend", "sibling", "prefix", "end", "off"]))
        if how == "extend":
            word += data.draw(words(k, 6, min_len=1))
        elif how == "sibling" and word:
            word = word[:-1] + ((word[-1] + data.draw(st.integers(1, k - 1)))
                                % k,)
        elif how == "prefix":
            cut = data.draw(st.integers(0, len(found)))
            word = found[:cut] + (0,) * data.draw(st.integers(0, 3))
        x = K.point(word)
        if how == "end":
            _, lo, hi, _ = cylinder(K, found)
            x = data.draw(st.sampled_from([lo, hi]))
        elif how == "off":
            x = queries(K, data, 3)
        max_depth = len(word) + data.draw(st.integers(0, 3))
        if found and data.draw(st.integers(0, 3)) == 0:
            max_depth = data.draw(st.integers(0, len(found) - 1))
        got = K.locate(x, max_depth)
        assert got == ref.locate(x, max_depth)
        if got is not None:
            found = got


@SETTINGS
@given(supports(), st.data())
def test_find_point_in_gap(K, data):
    ref = Reference(K)
    inside = interval(K, data, 2)
    forbidden = [interval(K, data, 2)
                 for _ in range(data.draw(st.integers(0, 3)))]
    max_depth = data.draw(st.integers(0, 5))
    got = find_point_in_gap(K, inside, forbidden, max_depth)
    if inside[0] == inside[1]:
        x = inside[0]
        covered = any(min(f) <= x <= max(f) for f in forbidden)
        word = None if covered else ref.locate(x, 512)
        assert got == (None if word is None else (x, word))
    else:
        assert got == ref.find_point_in_gap(inside, forbidden, max_depth)


@settings(max_examples=150, deadline=None)
@given(supports(), st.data())
def test_find_point_in_gap_from_a_word(K, data):
    """The gap search started from a word's cylinder returns the point and
    word of the search from the root, on `supports()` systems (touching
    images and negative ratios among them): on windows around the word's
    point at every scale, windows that leave the hull or miss the point,
    words ending in 0s, a forbidden interval over the point, and depth caps
    shorter than the word."""
    k = len(K.ifs.maps)
    word = data.draw(words(k, 10)) + (0,) * data.draw(st.integers(0, 3))
    c = K.point(word)
    if data.draw(st.booleans()):
        inside = interval(K, data, 2)
    else:
        m = len(word) + data.draw(st.integers(-len(word), 6))
        _, clo, chi, _ = cylinder(K, (word + (0,) * 6)[:m])
        unit = chi - clo
        left, right = (F(data.draw(st.integers(-1, 12)), 16) for _ in "lr")
        inside = (c - left * unit, c + right * unit)
        if inside[0] > inside[1]:
            inside = inside[::-1]
    ilo, ihi = inside
    forbidden = [interval(K, data, 2)
                 for _ in range(data.draw(st.integers(0, 2)))]
    if data.draw(st.booleans()):  # the avoidance move's three anchors
        margin = (ihi - ilo) * F(data.draw(st.integers(0, 8)), 16)
        forbidden += [(a - margin, a + margin) for a in (ilo, c, ihi)]
    max_depth = len(word) + 8 - data.draw(st.integers(0, len(word) + 8))
    assert find_point_in_gap(K, inside, forbidden, max_depth, word=word) == \
        find_point_in_gap(K, inside, forbidden, max_depth)
