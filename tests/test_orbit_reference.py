"""The integer orbit walk (`alice.orbit_residues`) against a Fraction
reference.

`reference_verify` and `reference_danger` form t_n*u as a Fraction for
every term and measure it with `circle_dist_range`; they are the
straightforward reading of the separation claim and of the danger list and
exist only here.  Hypothesis draws integer and rational bases, rational
scales and explicit term lists, crossed with const, periodic and list
targets, windows that start or end exactly on a translate, and constants c
equal to a term's exact distance, so that every boundary case is reached.
"""

import json
import math
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidtgame.alice import (BiLipschitzMap, ConstTargets, GeometricTerms,
                               LacunarySpec, ListTargets, ListTerms,
                               PeriodicTargets, _danger_entries,
                               index_block, lacunary_constants, plan_lacunary)
from schmidtgame.certify import (ORBIT_SEPARATION, Certificate,
                                 VerificationResult, _orbit_witness,
                                 _schedule_inputs, verify_orbit_separation)
from schmidtgame.cli import bundled_spec_path, main
from schmidtgame.errors import HorizonMismatch
from schmidtgame.fractal import DecayParams
from schmidtgame.game import Ball, GameParams

from circle_reference import circle_dist_range

LOOSE = DecayParams(C=F(1, 4), gamma=F(1), rho0=F(1))
QUARTER = GameParams(F(1, 4), F(1, 4))
PHIS = [BiLipschitzMap.identity(),
        BiLipschitzMap((), (F(-3, 2),), (F(0), F(1, 5))),
        BiLipschitzMap((F(0), F(1, 3)), (F(2), F(1, 2), F(3)),
                       (F(0), F(1, 7)))]


def reference_verify(cert: Certificate) -> VerificationResult:
    snap = cert.snapshot
    spec = LacunarySpec.from_json(snap["spec"])
    if "alpha" in snap:
        phi, alpha, beta, rho_prime, rho0 = _schedule_inputs(snap)
        r = lacunary_constants(spec.M, phi.lipschitz, alpha, beta,
                               rho_prime, rho0)[1]
        top = (1 / (alpha * beta)) ** (r * cert.horizon)

        def covered(n, t):
            return t < top
    else:
        phi = BiLipschitzMap.from_json(snap["phi"])

        def covered(n, t):
            return n <= cert.horizon
    u, v = phi.preimage_interval(*cert.interval)
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


def reference_danger(state, spec, phi, k, lo, hi):
    u, v = phi.preimage_interval(lo, hi)
    entries = []
    for n in index_block(state, spec, k):
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
    lo, hi = phi.apply_interval(u, v)
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
    assert outcome(verify_orbit_separation, cert) == \
        outcome(reference_verify, cert)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_danger_entries_match_reference(data):
    spec = LacunarySpec(data.draw(term_rules()), data.draw(target_rules()))
    phi = data.draw(st.sampled_from(PHIS))
    state = plan_lacunary(spec, phi, QUARTER, LOOSE, Ball(F(0), F(1)))
    k = data.draw(st.integers(1, 3))
    block = index_block(state, spec, k)
    # widths of a few of the block's smallest translate spacings
    top = (1 / state.ab) ** (state.r * k)
    ns = block or [1]
    u, v = data.draw(windows(spec, ns, ns[-1:], 1 / top))
    lo, hi = phi.apply_interval(u, v)
    args = (state, spec, phi, k, lo, hi)
    assert outcome(_danger_entries, *args) == outcome(reference_danger, *args)


@pytest.fixture(scope="module")
def lacunary_100(tmp_path_factory):
    out = tmp_path_factory.mktemp("lacunary_100")
    assert main(["play", "--spec", bundled_spec_path("cantor_lacunary.json"),
                 "--rounds", "100", "--out", str(out)]) == 0
    bundle = json.loads((out / "certificates.json").read_text())
    return Certificate.from_json(bundle["certificates"][0]["certificate"])


def test_bundled_certificate_matches_reference(lacunary_100):
    got = verify_orbit_separation(lacunary_100)
    assert got.passed and got.checked == 958
    assert got == reference_verify(lacunary_100)


@pytest.mark.parametrize("doublings", [600, 900])
def test_widened_interval_fails_deep(lacunary_100, doublings):
    # widened 2^doublings times, the orbit window first comes within c of an
    # integer hundreds of stepped terms in
    lo, hi = lacunary_100.interval
    cert = replace(lacunary_100, interval=(lo, lo + (hi - lo) * 2 ** doublings))
    got = verify_orbit_separation(cert)
    assert not got.passed and got.checked >= 200
    assert got.reason == "separation fails at term %d" % got.checked
    assert got == reference_verify(cert)
