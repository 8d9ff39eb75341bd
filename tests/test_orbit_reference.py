"""The midpoint orbit kernel (`alice.orbit_near`) and its two consumers
against a Fraction reference.

`reference_near`, `reference_verify` and `reference_danger` form t_n*u as
a Fraction for every term and measure it with `circle_dist_range`; they
are the straightforward reading of the kernel's skip rule, of the
separation claim and of the danger list, and exist only here.  Hypothesis
draws integer and rational bases, rational scales and explicit term
lists, crossed with const, periodic and list targets, windows that start
or end exactly on a translate, and reaches and constants c equal to a
term's exact distance, so that every boundary case is reached.  Fixed
cases add midpoints with large denominators, an orbit point on its target,
a distance exactly t_n*R, where the kernel's bound on t_n*R is exact, and
a midpoint 2*t_n*R out, which the filter skips.  A tightness check bounds
how far out a kept term's midpoint may lie, so that the filter cannot
loosen unnoticed.
"""

import json
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidtgame import alice, certify
from schmidtgame.alice import (IDENTITY, BiLipschitzMap, ConstTargets,
                               GeometricTerms, LacunarySpec, LacunaryStrategy,
                               ListTargets, ListTerms, PeriodicTargets,
                               lacunary_constants, orbit_near)
from schmidtgame.certify import (ORBIT_SEPARATION, Certificate,
                                 VerificationResult, _orbit_witness,
                                 _schedule_inputs, verify)
from schmidtgame.cli import bundled_spec_path, main
from schmidtgame.errors import HorizonMismatch
from schmidtgame.fractal import DecayParams, cantor_support
from schmidtgame.game import Ball, GameParams

from circle_reference import circle_dist_range

LOOSE = DecayParams(C=F(1, 4), gamma=F(1), rho0=F(1))
QUARTER = GameParams(F(1, 4), F(1, 4))
PHIS = [IDENTITY,
        BiLipschitzMap((), (F(-3, 2),), (F(0), F(1, 5))),
        BiLipschitzMap((F(0), F(1, 3)), (F(2), F(1, 2), F(3)),
                       (F(0), F(1, 7)))]


def reference_near(terms, targets, u, v, indices, reach):
    """The n in ``indices`` whose window t_n*[u, v] - y_n comes within
    ``reach`` of an integer."""
    return [n for n in indices
            if circle_dist_range(terms.term(n) * u, terms.term(n) * v,
                                 targets.target(n))[0] <= reach]


def check_near(terms, targets, u, v, indices, reach=F(0)):
    """orbit_near yields, in order, every term the reference finds near;
    the n it yields."""
    ns = list(orbit_near(terms, targets, (u + v) / 2, (v - u) / 2, indices,
                         reach))
    assert ns == sorted(set(ns)) and set(ns) <= set(indices)
    assert set(reference_near(terms, targets, u, v, indices, reach)) <= set(ns)
    return ns


def check_tight(terms, targets, u, v, ns, reach):
    """Every kept n has its midpoint within reach + t_n*R of Z, up to the
    kernel's rounding: a relative 2^-40 on t_n*R, and 1/(t.den*c.den*
    y.den) for reach and t_n*R rounded to that denominator."""
    c, R = (u + v) / 2, (v - u) / 2
    for n in ns:
        t, y = terms.term(n), targets.target(n)
        d = abs(t * c - y)
        d = min(d % 1, -d % 1)
        assert d <= reach + t * R * (1 + F(1, 2 ** 40)) + \
            F(1, t.denominator * c.denominator * y.denominator)


def reference_verify(cert: Certificate) -> VerificationResult:
    snap = cert.snapshot
    spec = LacunarySpec.from_json(snap["spec"])
    if "alpha" in snap:
        phi, alpha, beta, rho_prime, rho0 = _schedule_inputs(snap)
        r = lacunary_constants(spec.lacunarity, phi.lipschitz, alpha, beta,
                               rho_prime, rho0)[1]
        top = (1 / (alpha * beta)) ** (r * cert.horizon)

        def covered(n, t):
            return t < top
    else:
        phi = BiLipschitzMap.from_json(snap["phi"])

        def covered(n, t):
            return n <= cert.horizon
    u, v = sorted(map(phi.inverse, cert.interval))
    checked = 0
    for n in range(1, (spec.terms.horizon or 10 ** 6) + 1):
        t = spec.terms.term(n)
        if not covered(n, t):
            break
        y = spec.targets.target(n)
        dmin, _ = circle_dist_range(t * u, t * v, y)
        checked += 1
        if dmin < cert.c:
            return VerificationResult(
                False, checked, "separation fails at term %d" % n,
                witness=_orbit_witness(phi, u, v, t, y, n))
    return VerificationResult(
        True, checked,
        "all %d covered terms stay %s-separated" % (checked, cert.c))


def reference_danger(strategy, k, lo, hi):
    spec, phi = strategy.spec, strategy.phi
    u, v = sorted(map(phi.inverse, (lo, hi)))
    entries = []
    for n in strategy.index_block(k):
        t = spec.terms.term(n)
        y = spec.targets.target(n)
        for m in range(math.ceil(t * u - y), math.floor(t * v - y) + 1):
            entries.append((n, m, phi.apply((y + m) / t)))
    return entries


def outcome(fn, *args):
    """The result, or the type of the error raised."""
    try:
        return fn(*args)
    except HorizonMismatch as exc:
        return type(exc)


small = st.fractions(min_value=0, max_value=1, max_denominator=60)
wide = st.builds(F, st.integers(-2 ** 70, 2 ** 70), st.integers(1, 2 ** 70))


@st.composite
def term_rules(draw):
    kind = draw(st.sampled_from(["integer", "rational", "list"]))
    scale = draw(st.sampled_from([F(1), F(1, 7), F(5, 3), F(1, 1000)]))
    if kind == "integer":
        return GeometricTerms(F(draw(st.integers(2, 10))), scale)
    if kind == "rational":
        return GeometricTerms(draw(st.sampled_from([F(3, 2), F(5, 2),
                                                    F(7, 4)])), scale)
    t, values = scale + 1, []
    for _ in range(draw(st.integers(1, 40))):
        values.append(t)
        t *= draw(st.sampled_from([F(3, 2), F(2), F(7, 3), F(10)]))
    return ListTerms(tuple(values), F(3, 2))


@st.composite
def target_rules(draw):
    kind = draw(st.sampled_from(["const", "periodic", "list"]))
    if kind == "const":
        return ConstTargets(draw(small))
    values = tuple(draw(st.lists(st.one_of(small, wide), min_size=1,
                                 max_size=5 if kind == "periodic" else 50)))
    return PeriodicTargets(values) if kind == "periodic" else \
        ListTargets(values)


def translate(draw, spec, ns, near):
    """(y_n + m)/t_n for an n drawn from ns and m = near(t, y) + 0..3."""
    n = draw(st.sampled_from(ns))
    try:
        t = spec.terms.term(n)
    except HorizonMismatch:
        t = F(1)
    # past the targets' horizon keep t_n: a window whole units wide holds
    # too many translates of a large term to list as danger entries
    try:
        y = spec.targets.target(n)
    except HorizonMismatch:
        y = F(0)
    return (y + near(t, y) + draw(st.integers(0, 3))) / t


@st.composite
def windows(draw, spec, left, right, unit):
    """[u, v]: u drawn freely or put on a translate of a term in ``left``,
    v at u plus a few ``unit``s or on the next translates of a term in
    ``right``."""
    u = draw(st.one_of(small, wide))
    if draw(st.booleans()):
        u = translate(draw, spec, left, lambda t, y: -2)
    if draw(st.booleans()):
        v = translate(draw, spec, right, lambda t, y: math.ceil(t * u - y))
        if v >= u:
            return u, v
    return u, u + unit * draw(st.integers(0, 8)) / draw(st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_verifier_matches_reference(data):
    spec = LacunarySpec(data.draw(term_rules()), data.draw(target_rules()))
    phi = data.draw(st.sampled_from(PHIS))
    horizon = data.draw(st.integers(0, 60))
    # a window about one turn of the circle wide at a drawn term m, so
    # that separation tends to fail near m
    m = data.draw(st.integers(1, max(horizon, 1)))
    unit = 1 / spec.terms.term(m) if m <= (spec.terms.horizon or m) else F(1)
    ns = list(range(m, max(horizon, 1) + 1))
    u, v = data.draw(windows(spec, ns, ns, unit))
    lo, hi = sorted((phi.apply(u), phi.apply(v)))
    c = F(1, 2 ** data.draw(st.integers(3, 60)))
    # c at a covered term's exact distance, or a hair above it, reaches
    # both boundaries of the verifier's integer test
    j = data.draw(st.integers(0, horizon))
    if j:
        try:
            t = spec.terms.term(j)
            dmin, _ = circle_dist_range(t * u, t * v, spec.targets.target(j))
        except HorizonMismatch:
            dmin = 0
        c = dmin + data.draw(st.sampled_from([0, F(1, 2 ** 2000)])) or c
    cert = Certificate(ORBIT_SEPARATION, (lo, hi), c, horizon, "terms",
                       {"spec": spec.to_json(), "phi": phi.to_json()})
    assert outcome(verify, cert) == \
        outcome(reference_verify, cert)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_danger_entries_match_reference(data):
    spec = LacunarySpec(data.draw(term_rules()), data.draw(target_rules()))
    phi = data.draw(st.sampled_from(PHIS))
    strategy = LacunaryStrategy(spec, phi, LOOSE).plan(QUARTER,
                                                        Ball(F(0), F(1)))
    k = data.draw(st.integers(1, 3))
    block = strategy.index_block(k)
    # widths of a few of the block's smallest translate spacings
    top = (1 / strategy.ab) ** (strategy.r * k)
    ns = block or [1]
    u, v = data.draw(windows(spec, ns, ns[-1:], 1 / top))
    lo, hi = sorted((phi.apply(u), phi.apply(v)))
    assert outcome(strategy._danger_entries, k, (lo + hi) / 2,
                   (hi - lo) / 2) == outcome(reference_danger, strategy, k,
                                             lo, hi)


@pytest.fixture(scope="module")
def lacunary_100(tmp_path_factory):
    out = tmp_path_factory.mktemp("lacunary_100")
    assert main(["play", "--spec", bundled_spec_path("cantor_lacunary.json"),
                 "--rounds", "100", "--out", str(out)]) == 0
    bundle = json.loads((out / "certificates.json").read_text())
    return Certificate.from_json(bundle["certificates"][0]["certificate"])


def test_bundled_certificate_matches_reference(lacunary_100):
    got = verify(lacunary_100)
    assert got.passed and got.checked == 958
    assert got == reference_verify(lacunary_100)


@pytest.mark.parametrize("doublings", [600, 900])
def test_widened_interval_fails_deep(lacunary_100, doublings):
    # widened 2^doublings times, the orbit window first comes within c of an
    # integer hundreds of stepped terms in
    lo, hi = lacunary_100.interval
    cert = replace(lacunary_100, interval=(lo, lo + (hi - lo) * 2 ** doublings))
    got = verify(cert)
    assert not got.passed and got.checked >= 200
    assert got.reason == "separation fails at term %d" % got.checked
    assert got == reference_verify(cert)


@st.composite
def kernel_cases(draw):
    """(terms, targets, u, v, indices, reach) for `orbit_near`."""
    terms, targets = draw(term_rules()), draw(target_rules())
    last = min(terms.horizon or 80, len(targets.values)
               if isinstance(targets, ListTargets) else 80)
    spec = LacunarySpec(terms, targets)
    # consecutive indices step the midpoint residue, others restart it
    if draw(st.booleans()):
        indices = range(draw(st.integers(1, last)), last + 1)
    else:
        indices = sorted(draw(st.sets(st.integers(1, last), max_size=30)))
    ns = list(indices) or [1]
    m = draw(st.sampled_from(ns))
    u, v = draw(windows(spec, ns, ns, 1 / terms.term(m)))
    reach = draw(st.sampled_from([F(0), F(1, 64), F(1, 2 ** 40)]))
    # a reach at a term's exact distance, or a hair either side of it
    if draw(st.booleans()):
        t = terms.term(m)
        dmin, _ = circle_dist_range(t * u, t * v, targets.target(m))
        reach = max(dmin + draw(st.sampled_from(
            [0, F(1, 2 ** 2000), -F(1, 2 ** 2000)])), F(0))
    return terms, targets, u, v, indices, reach


@settings(max_examples=150, deadline=None)
@given(case=kernel_cases())
def test_kernel_matches_reference(case):
    check_near(*case)


@settings(max_examples=150, deadline=None)
@given(case=kernel_cases())
def test_kernel_keeps_only_near_midpoints(case):
    terms, targets, u, v, indices, reach = case
    ns = list(orbit_near(terms, targets, (u + v) / 2, (v - u) / 2, indices,
                         reach))
    check_tight(terms, targets, u, v, ns, reach)


def test_kernel_on_a_window_straddling_a_breakpoint():
    # phi's slopes 2 and 1/2 meet at 1/3, so the preimage of a window
    # centred on phi(1/3) is lopsided: its midpoint has the radius's
    # denominator, not the center's.  The terms run on until t_n*R passes
    # 1, so some are near and some far
    phi = PHIS[2]
    for radius in (F(1, 3 ** 400), F(5, 7 ** 200)):
        u, v = sorted(phi.inverse(phi.apply(F(1, 3)) + s * radius)
                      for s in (-1, 1))
        assert ((u + v) / 2).denominator.bit_length() > 500
        for terms, targets in ((GeometricTerms(F(2)), ConstTargets(F(0))),
                               (GeometricTerms(F(3, 2)), ConstTargets(F(1, 3))),
                               (ListTerms(tuple(F(5) ** n for n in
                                                range(1, 1200)), F(5)),
                                PeriodicTargets((F(0), F(1, 2))))):
            for reach in (F(0), F(1, 10)):
                ns = check_near(terms, targets, u, v, range(1, 1200), reach)
                assert 0 < len(ns) < 1199


@pytest.mark.parametrize("base, target", [(3, F(1, 2)), (2, F(0)),
                                          (3, F(1, 4))],
                         ids=["base3_half", "base2_zero", "base3_quarter"])
def test_kernel_on_a_long_word_center(base, target):
    # a Cantor point of a 1,000-letter word has a 1,585-bit denominator,
    # past the 1,544 bits the bundled triple game reaches
    rng = random.Random(base)
    center = cantor_support().point([rng.randrange(2) for _ in range(1000)])
    assert center.denominator.bit_length() == 1585
    for radius in (F(1, 3 ** 1100), F(1, 2 ** 40)):
        for reach in (F(0), F(1, 6)):
            check_near(GeometricTerms(F(base)), ConstTargets(target),
                       center - radius, center + radius, range(1, 1200), reach)


def test_kernel_keeps_an_orbit_point_on_its_target():
    # t_n*c - y_n = 5 exactly: a zero distance is never skipped, however
    # small the window and the reach
    terms, targets = GeometricTerms(F(2), F(1, 7)), ConstTargets(F(2, 9))
    for n in (1, 30, 300):
        c = (targets.target(n) + 5) / terms.term(n)
        for radius in (F(0), F(1, 2 ** 4000)):
            for reach in (F(0), F(1, 2 ** 10)):
                assert n in check_near(terms, targets, c - radius, c + radius,
                                       range(1, 320), reach)


def test_kernel_keeps_a_distance_of_exactly_t_n_R():
    # u on a translate of t_n = 2^n: the midpoint's distance is t_n*R, and
    # R = 3/2^45 makes the kernel's bound on t_n*R exact, so only a strict
    # comparison keeps the term
    terms, targets = GeometricTerms(F(2)), ConstTargets(F(0))
    R = F(3, 2 ** 45)
    for n in (10, 20, 40):
        u = F(7) / terms.term(n)
        assert n in check_near(terms, targets, u, u + 2 * R, range(1, 60))
        # with the window one part in 2^100 narrower the term is far
        narrow = 2 * R * (1 - F(1, 2 ** 100))
        assert n not in reference_near(terms, targets, u + 2 * R - narrow,
                                       u + 2 * R, [n], F(0))


def test_kernel_keeps_a_reach_at_the_exact_distance():
    # reach equal to a term's exact distance keeps the term; the verifier
    # then decides it passes
    terms, targets = GeometricTerms(F(3)), ConstTargets(F(1, 2))
    center = cantor_support().point([0, 1] * 50)
    u, v = center - F(1, 3 ** 120), center + F(1, 3 ** 120)
    for n in (1, 17, 60):
        t = terms.term(n)
        dmin, _ = circle_dist_range(t * u, t * v, F(1, 2))
        assert dmin > 0
        assert n in check_near(terms, targets, u, v, range(1, 100), dmin)


def test_kernel_skips_a_midpoint_two_t_n_R_out():
    # the midpoint 2*t_n*R past reach from the target: the window keeps
    # t_n*R clear, and the kernel's one threshold, reach + t_n*R rounded
    # up, skips the term; both consumers still agree with the reference
    terms, targets = GeometricTerms(F(2)), ConstTargets(F(0))
    spec = LacunarySpec(terms, targets)
    strategy = LacunaryStrategy(spec, IDENTITY, LOOSE).plan(QUARTER,
                                                            Ball(F(0), F(1)))
    R, c = F(3, 2 ** 45), F(1, 2 ** 50)
    for k, n in ((1, 19), (2, 39)):
        t = terms.term(n)
        for reach in (F(0), c):
            mid = (7 + reach + 2 * t * R) / t
            u, v = mid - R, mid + R
            assert n not in check_near(terms, targets, u, v, [n], reach)
        cert = Certificate(ORBIT_SEPARATION, (u, v), c, n, "terms",
                           {"spec": spec.to_json(), "phi": IDENTITY.to_json()})
        assert verify(cert) == reference_verify(cert)
        mid = (7 + 2 * t * R) / t
        assert strategy._danger_entries(k, mid, R) == \
            reference_danger(strategy, k, mid - R, mid + R)


def test_full_width_residues_are_few(tmp_path, monkeypatch):
    # a 400-round play's danger lists and certificate cover 8,868 terms;
    # the midpoint filter keeps block 1's 79 exact hits at the opening
    # center 0, which any correct filter keeps, and none for the verifier
    kept = Counter()
    real = alice.orbit_near

    def counted(module):
        def near(*args):
            for item in real(*args):
                kept[module.__name__] += 1
                yield item
        return near
    for module in (alice, certify):
        monkeypatch.setattr(module, "orbit_near", counted(module))
    assert main(["play", "--spec", bundled_spec_path("cantor_lacunary.json"),
                 "--rounds", "400", "--out", str(tmp_path)]) == 0
    assert kept == {alice.__name__: 79}


def test_kept_windows_build_no_fraction_ends(tmp_path, monkeypatch):
    # the danger list reads each kept term's translates off its integer
    # window: no Fraction subtraction, ceil or floor during a 400-round play
    ops, inside, entries = Counter(), [False], []
    for name in ("__sub__", "__rsub__", "__ceil__", "__floor__"):
        def counted(*args, name=name, op=getattr(F, name)):
            if inside[0]:
                ops[name] += 1
            return op(*args)
        monkeypatch.setattr(F, name, counted)
    real = LacunaryStrategy._danger_entries

    def watched(self, *args):
        inside[0] = True
        try:
            got = real(self, *args)
            entries.extend(got)
            return got
        finally:
            inside[0] = False
    monkeypatch.setattr(LacunaryStrategy, "_danger_entries", watched)
    assert main(["play", "--spec", bundled_spec_path("cantor_lacunary.json"),
                 "--rounds", "400", "--out", str(tmp_path)]) == 0
    assert len(entries) == 79 and ops == {}


@pytest.mark.parametrize("phi", PHIS[::2], ids=["identity", "two_breaks"])
def test_danger_entries_at_a_long_word_center(phi):
    # a Cantor point of a 1,000-letter word, 1,585 bits over its
    # denominator, with a reach of a few translate spacings of the block's
    # largest term: kept terms' windows match the Fraction reference
    spec = LacunarySpec(GeometricTerms(F(3)), ConstTargets(F(1, 2)))
    strategy = LacunaryStrategy(spec, phi, LOOSE).plan(QUARTER,
                                                        Ball(F(0), F(1)))
    rng = random.Random(7)
    center = cantor_support().point([rng.randrange(2) for _ in range(1000)])
    for k in (1, 2):
        t = spec.terms.term(strategy.index_block(k)[-1])
        reach = 3 * phi.lipschitz / t
        c, _ = phi.preimage_ball(center, reach)
        assert c.denominator.bit_length() > 1000
        got = strategy._danger_entries(k, center, reach)
        assert got and got == reference_danger(strategy, k, center - reach,
                                               center + reach)
