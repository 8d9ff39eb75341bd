"""Command-line front end: seeded runs, measure audits, certificate
re-verification, and digit construction, all driven by JSON game specs.

Exit codes are a stable contract: 0 success, 1 a run or verification
failed, 2 the input was malformed or violates a validation rule.
"""

import argparse
import csv
import json
import os
import sys
from fractions import Fraction
from importlib import resources
from typing import List, Optional, Tuple

from .alice import (ALPHA_DIAGNOSTIC, BAStrategy, BiLipschitzMap,
                    ExcludeCountable, InterleaveStrategy, LacunarySpec,
                    LacunaryStrategy, affine_to_sequence)
from .bob import AdversaryConfig, make_bob
from .certify import (DEFAULT_MAX_Q, Certificate, ba_certificate,
                      dimension_report, exponent_from_json, orbit_certificate,
                      verify)
from .errors import (HorizonMismatch, IllegalMove, InvalidAlpha,
                     InvariantViolation, NoPointFound, PrecisionCapExceeded,
                     ScheduleOverlap, SpecError, StrategyFailure)
from .fractal import (IFS, AuditGrid, DecayParams, FractalMeasure,
                      FractalSupport, audit_measure,
                      binary_support, cantor_support, check_alpha,
                      decay_from_federer_efd, efd_to_exponent,
                      federer_to_exponent, lower_pointwise_dimension,
                      max_alpha)
from .game import (Ball, GameParams, HoldCenter, Variant, outcome_interval,
                   run_game, validate_transcript)
from .numerics import parse_rational


def bundled_spec_path(name: str) -> str:
    """Filesystem path of a spec shipped inside the package."""
    return str(resources.files(__package__) / "specs" / name)


# ---------------------------------------------------------------------------
# document -> objects


def load_document(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise SpecError("spec document must be a JSON object")
    return doc


def build_support(cfg) -> FractalSupport:
    if cfg == "cantor":
        return cantor_support()
    if cfg in ("interval", "binary"):
        return binary_support()
    if not isinstance(cfg, dict):
        raise SpecError("unknown support %r" % (cfg,))
    ifs = IFS.from_json(cfg)
    hull = (parse_rational(cfg["hull"][0]), parse_rational(cfg["hull"][1]))
    return FractalSupport(ifs, hull)


def build_decay(cfg: dict) -> Optional[DecayParams]:
    if "decay" in cfg:
        d = cfg["decay"]
        return DecayParams(parse_rational(d["C"]),
                           exponent_from_json(d["gamma"]),
                           parse_rational(d["rho0"]))
    if "federer" in cfg and "efd" in cfg:
        c1, g1 = federer_to_exponent(*(parse_rational(v) for v in cfg["federer"]))
        c2, g2 = efd_to_exponent(*(parse_rational(v) for v in cfg["efd"]))
        rho0 = parse_rational(cfg.get("rho0", "1"))
        return decay_from_federer_efd(c1, g1, c2, g2, rho0)
    return None


def build_phi(cfg) -> BiLipschitzMap:
    if cfg is None:
        return BiLipschitzMap.identity()
    if isinstance(cfg, dict) and "anchor" in cfg:
        return BiLipschitzMap.from_json(cfg)
    kind = cfg.get("kind", "identity")
    if kind == "identity":
        return BiLipschitzMap.identity()
    if kind == "affine":
        return BiLipschitzMap.affine(parse_rational(cfg["slope"]),
                                     parse_rational(cfg.get("intercept", "0")))
    if kind == "piecewise":
        return BiLipschitzMap.from_slopes(
            [parse_rational(b) for b in cfg["breakpoints"]],
            [parse_rational(s) for s in cfg["slopes"]],
            parse_rational(cfg["value_at_first"]))
    raise SpecError("unknown phi kind %r" % kind)


def build_strategy(cfg: dict, decay: Optional[DecayParams]):
    name = cfg.get("strategy")
    if name == "hold":
        return HoldCenter()
    if name == "exclude":
        rho0 = parse_rational(cfg["rho0"]) if "rho0" in cfg else None
        return ExcludeCountable([parse_rational(p) for p in cfg["points"]], rho0)
    if name == "lacunary":
        return LacunaryStrategy(LacunarySpec.from_json(cfg),
                                build_phi(cfg.get("phi")), decay)
    if name == "affine_orbit":
        spec = affine_to_sequence(parse_rational(cfg["b"]),
                                  parse_rational(cfg["c"]),
                                  parse_rational(cfg["y"]),
                                  int(cfg["n_max"]))
        return LacunaryStrategy(spec, build_phi(cfg.get("phi")), decay)
    if name == "ba":
        return BAStrategy(build_phi(cfg.get("phi")), decay)
    if name == "interleave":
        parts = [build_strategy(p, decay) for p in cfg["parts"]]
        schedule = [(int(s), int(d)) for s, d in cfg["schedule"]]
        return InterleaveStrategy(parts, schedule)
    raise SpecError("unknown strategy %r" % name)


def build_bob(cfg: dict, alice, seed_override: Optional[int]):
    seed = cfg.get("seed", 0) if seed_override is None else seed_override
    targets = [parse_rational(p) for p in cfg.get("targets", [])]
    config = AdversaryConfig(cfg.get("kind", "keep"), seed=seed,
                             target_points=targets)
    return make_bob(config, alice=alice)


def build_opening(support: FractalSupport, cfg) -> Optional[Ball]:
    if cfg is None:
        return None
    center = parse_rational(cfg["center"])
    word = support.locate(center)
    if word is None:
        raise SpecError("opening center %s has no constructive membership"
                        % center)
    return Ball(center, parse_rational(cfg["radius"]), word)


def build_game(doc: dict, args) -> Tuple[FractalSupport, GameParams,
                                         Optional[DecayParams], object,
                                         object, int, Optional[Ball]]:
    support = build_support(doc["support"])
    decay = build_decay(doc.get("measure", {}))
    g = doc["game"]
    if g.get("alpha") == "max":
        if decay is None:
            raise SpecError("alpha \"max\" needs measure decay data")
        alpha = max_alpha(decay)
    else:
        alpha = parse_rational(g["alpha"])
    params = GameParams(alpha, parse_rational(g["beta"]),
                        Variant(g.get("variant", "classical")))
    if decay is not None and not check_alpha(alpha, decay):
        raise InvalidAlpha(ALPHA_DIAGNOSTIC)
    rounds = args.rounds if args.rounds else int(g.get("rounds", 20))
    opening = build_opening(support, g.get("opening"))
    alice = build_strategy(doc["alice"], decay)
    bob = build_bob(doc.get("bob", {}), alice, args.seed)
    return support, params, decay, alice, bob, rounds, opening


# ---------------------------------------------------------------------------
# certificates out of finished strategies


def emit_certificates(strategy, interval) -> List[Tuple[str, Certificate]]:
    out: List[Tuple[str, Certificate]] = []

    def rec(s, name):
        if isinstance(s, LacunaryStrategy) and s.state is not None:
            out.append((name or "orbit", orbit_certificate(s.state, s.spec,
                                                           s.phi, interval)))
        elif isinstance(s, BAStrategy) and s.state is not None:
            out.append((name or "bad_approx", ba_certificate(s.state, s.phi,
                                                             interval)))
        elif isinstance(s, InterleaveStrategy):
            for i, part in enumerate(s.strategies):
                rec(part, "part%d" % (i + 1))

    rec(strategy, "")
    return out


def _verify_and_report(entries, max_q: int) -> Tuple[list, bool]:
    bundle, ok = [], True
    for name, cert in entries:
        result = verify(cert, max_q)
        ok = ok and result.passed
        bundle.append({"name": name, "certificate": cert.to_json(),
                       "verification": result.to_json()})
        print("certificate %s: %s (%s)" % (name,
                                           "PASS" if result.passed else "FAIL",
                                           result.reason))
    return bundle, ok


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands


def cmd_play(args) -> int:
    doc = load_document(args.spec)
    support, params, decay, alice, bob, rounds, opening = build_game(doc, args)
    transcript = run_game(support, params, alice, bob, rounds, opening)
    validate_transcript(transcript, support)
    os.makedirs(args.out, exist_ok=True)
    tpath = os.path.join(args.out, "transcript.jsonl")
    with open(tpath, "w", encoding="utf-8") as fh:
        fh.write(transcript.to_jsonl())
    print("transcript: %s (%d moves)" % (tpath, len(transcript.moves)))
    entries = emit_certificates(alice, outcome_interval(transcript))
    bundle, ok = _verify_and_report(entries, args.max_q or DEFAULT_MAX_Q)
    _write_json(os.path.join(args.out, "certificates.json"),
                {"certificates": bundle})
    return 0 if ok else 1


def cmd_audit(args) -> int:
    doc = load_document(args.spec)
    support = build_support(doc["support"])
    measure = FractalMeasure(support)
    mcfg = doc.get("measure", {})
    acfg = doc.get("audit", {})
    explicit = build_decay(mcfg) if "decay" in mcfg else None
    rho0 = parse_rational(acfg["rho0"]) if "rho0" in acfg else \
        (explicit.rho0 if explicit else parse_rational(mcfg.get("rho0", "1")))
    grid = AuditGrid.default(
        support, rho0,
        x_depth=int(acfg.get("x_depth", 3)),
        rho_count=int(acfg.get("rho_count", 5)),
        depths=tuple(int(d) for d in acfg.get("depths", (6, 9, 12))))
    kwargs = {}
    if "federer" in mcfg:
        kwargs["federer"] = tuple(parse_rational(v) for v in mcfg["federer"])
    if "efd" in mcfg:
        kwargs["efd"] = tuple(parse_rational(v) for v in mcfg["efd"])
    if explicit is not None:
        kwargs["decay"] = explicit
    elif "federer" in mcfg and "efd" in mcfg:
        kwargs["derive_decay_rho0"] = parse_rational(mcfg.get("rho0", "1"))
    if "power_law" in mcfg:
        k1, k2, gamma = mcfg["power_law"]
        kwargs["power_law"] = (parse_rational(k1), parse_rational(k2),
                               exponent_from_json(gamma))
    report = audit_measure(measure, grid, **kwargs)
    os.makedirs(args.out, exist_ok=True)
    cpath = os.path.join(args.out, "audit.csv")
    with open(cpath, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(report.csv_rows())
    for o in report.outcomes:
        print("audit %s: %s" % (o.check, o.verdict.value))
    if "dimension" in acfg:
        d = acfg["dimension"]
        x = parse_rational(d.get("x", "0"))
        k_max = int(d.get("k_max", 12))
        base = parse_rational(d["rho_base"]) if "rho_base" in d \
            else support.contraction
        ests = lower_pointwise_dimension(measure, x,
                                         [base ** k for k in range(1, k_max + 1)])
        rep = dimension_report(decay=report.decay, estimates=ests,
                               audit=report)
        _write_json(os.path.join(args.out, "dimension.json"), rep.to_json())
        print("dimension: analytic bound with margin %s"
              % ("none" if rep.margin is None else rep.margin))
    print("audit report: %s" % cpath)
    return 0 if report.all_passed else 1


def cmd_certify(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if isinstance(payload, dict) and "certificates" in payload:
        items = [(e.get("name", "cert%d" % i), Certificate.from_json(e["certificate"]))
                 for i, e in enumerate(payload["certificates"], start=1)]
    else:
        items = [("certificate", Certificate.from_json(payload))]
    ok = True
    for name, cert in items:
        result = verify(cert, args.max_q or DEFAULT_MAX_Q)
        ok = ok and result.passed
        print("certificate %s: %s (%s)" % (name,
                                           "PASS" if result.passed else "FAIL",
                                           result.reason))
        if result.witness:
            print("  witness: %s" % json.dumps(result.witness, sort_keys=True))
    return 0 if ok else 1


def _digit_alphabet(support: FractalSupport) -> Tuple[int, List[int]]:
    """(base, digit of each IFS letter) when the attractor is base-b coded."""
    if support.hull != (Fraction(0), Fraction(1)):
        raise SpecError("digit construction needs the unit-interval hull")
    ratios = {m.r for m in support.ifs.maps}
    if len(ratios) != 1:
        raise SpecError("digit construction needs one common contraction")
    r = ratios.pop()
    if r <= 0 or (1 / r).denominator != 1:
        raise SpecError("contraction is not the reciprocal of a base")
    base = int(1 / r)
    digits = []
    for m in support.ifs.maps:
        d = m.a * base
        if d.denominator != 1 or not 0 <= d < base:
            raise SpecError("translations are not digit-aligned")
        digits.append(int(d))
    return base, digits


def cmd_construct(args) -> int:
    doc = load_document(args.spec)
    support, params, decay, alice, bob, rounds, opening = build_game(doc, args)
    base, alphabet = _digit_alphabet(support)
    digits_wanted = args.digits
    # rounds needed so the final ball is far smaller than a target cylinder
    open_radius = opening.radius if opening else support.diameter
    ab = params.alpha * params.beta
    need, radius = 0, Fraction(open_radius)
    limit = Fraction(1, base) ** digits_wanted / 4
    while radius > limit:
        need += 1
        radius *= ab
    rounds = max(rounds, need)
    transcript = run_game(support, params, alice, bob, rounds, opening)
    validate_transcript(transcript, support)
    lo, hi = outcome_interval(transcript)
    cyls = [c for c in support.cylinders_meeting(lo, hi, digits_wanted)
            if min(hi, c.hi) > max(lo, c.lo)]
    if len(cyls) != 1:
        print("error: %d cylinders overlap the outcome interval" % len(cyls),
              file=sys.stderr)
        return 1
    word = cyls[0].word
    digit_string = [alphabet[i] for i in word]
    print("base-%d digits: %s" % (base,
                                  " ".join(str(d) for d in digit_string)))
    entries = emit_certificates(alice, (lo, hi))
    bundle, ok = _verify_and_report(entries, args.max_q or DEFAULT_MAX_Q)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "transcript.jsonl"), "w",
              encoding="utf-8") as fh:
        fh.write(transcript.to_jsonl())
    _write_json(os.path.join(args.out, "construct.json"),
                {"base": base, "digits": digit_string,
                 "interval": [str(lo), str(hi)], "rounds": rounds,
                 "certificates": bundle})
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="schmidtgame",
        description="Schmidt-game runs on fractal supports, with exact "
                    "outcome certificates")
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn in (("play", cmd_play), ("audit", cmd_audit),
                     ("certify", cmd_certify), ("construct", cmd_construct)):
        q = sub.add_parser(name)
        q.add_argument("--spec", required=True)
        q.add_argument("--out", default=".")
        q.add_argument("--rounds", type=int, default=None)
        q.add_argument("--max-q", type=int, default=None, dest="max_q")
        q.add_argument("--seed", type=int, default=None)
        if name == "construct":
            q.add_argument("--digits", type=int, default=20)
        q.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (IllegalMove, StrategyFailure, InvariantViolation, NoPointFound,
            HorizonMismatch, PrecisionCapExceeded) as exc:
        print("run failed: %s" % exc, file=sys.stderr)
        return 1
    except (SpecError, InvalidAlpha, ScheduleOverlap, ValueError, KeyError,
            TypeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
