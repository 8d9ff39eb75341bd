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
                    LacunaryStrategy, ListTargets, affine_to_sequence)
from .bob import GreedyBob, KeepCenterBob, RandomBob
from .certify import (DEFAULT_MAX_Q, Certificate, ba_certificate,
                      dimension_report, exponent_from_json, orbit_certificate,
                      verify)
from .errors import (HorizonMismatch, IllegalMove, InvalidAlpha,
                     InvariantViolation, NoPointFound, PrecisionCapExceeded,
                     ScheduleOverlap, SpecError, StrategyFailure)
from .fractal import (IFS, AuditGrid, DecayParams, FractalMeasure,
                      FractalSupport, SimilarityMap, audit_measure,
                      binary_support, cantor_support, check_alpha,
                      decay_from_federer_efd, lower_pointwise_dimension,
                      max_alpha)
from .game import (Ball, GameParams, HoldCenter, Variant, outcome_interval,
                   run_game, validate_transcript)
from .numerics import json_array, json_int, json_rationals, parse_rational


def bundled_spec_path(name: str) -> str:
    """Filesystem path of a spec shipped inside the package."""
    return str(resources.files(__package__) / "specs" / name)


# ---------------------------------------------------------------------------
# document -> objects


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise SpecError("%s must be a JSON object" % what)
    return value


def _section(doc: dict, key: str, default=None):
    """doc[key], which must be a JSON object, or `default` when absent."""
    return _object(doc[key], key) if key in doc else default


def load_document(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return _object(json.load(fh), "spec document")


def build_support(cfg) -> FractalSupport:
    if cfg == "cantor":
        return cantor_support()
    if cfg == "interval":
        return binary_support()
    if not isinstance(cfg, dict):
        raise SpecError("unknown support %r" % (cfg,))
    ifs = IFS([SimilarityMap(parse_rational(m["r"]), parse_rational(m["a"]))
               for m in cfg["maps"]],
              json_rationals(cfg["weights"], "weights"))
    return FractalSupport(ifs, tuple(json_rationals(cfg["hull"], "hull", 2)))


def build_measure(cfg: dict) -> Tuple[dict, Fraction]:
    """The measure's constants as `audit_measure` keywords (None when
    absent) and the radius they are claimed up to: the explicit decay's
    rho0, else the measure's own (the decay derived from both doubling
    pairs claims a third of it).  An explicit decay wins over a derived one."""
    pairs = {key: tuple(json_rationals(cfg[key], key, 2))
             for key in ("federer", "efd") if key in cfg}
    power_law = None
    if "power_law" in cfg:
        k1, k2, gamma = json_array(cfg["power_law"], "power_law", 3)
        power_law = (parse_rational(k1), parse_rational(k2),
                     exponent_from_json(gamma))
    rho0 = parse_rational(cfg.get("rho0", "1"))
    d = _section(cfg, "decay")
    if d is not None:
        decay = DecayParams(parse_rational(d["C"]),
                            exponent_from_json(d["gamma"]),
                            parse_rational(d["rho0"]))
        rho0 = decay.rho0
    elif len(pairs) == 2:
        decay = decay_from_federer_efd(pairs["federer"], pairs["efd"], rho0)
    else:
        decay = None
    return dict(pairs, decay=decay, power_law=power_law), rho0


def build_strategy(cfg: dict, decay: Optional[DecayParams], path="alice"):
    """Alice's strategy from its spec section, found at JSON ``path``."""
    name = cfg.get("strategy")
    phi = BiLipschitzMap.from_json(_section(cfg, "phi"))
    if name == "hold":
        return HoldCenter()
    if name == "exclude":
        rho0 = parse_rational(cfg["rho0"]) if "rho0" in cfg else None
        return ExcludeCountable(json_rationals(cfg["points"], "points"), rho0)
    if name == "lacunary":
        spec = LacunarySpec.from_json(cfg)
        if spec.terms.horizon is None and isinstance(spec.targets, ListTargets):
            raise SpecError("%s.targets: a target list ends, geometric terms "
                            "do not" % path)
        return LacunaryStrategy(spec, phi, decay)
    if name == "affine_orbit":
        spec = affine_to_sequence(parse_rational(cfg["b"]),
                                  parse_rational(cfg["c"]),
                                  parse_rational(cfg["y"]),
                                  json_int(cfg["n_max"], "n_max"))
        return LacunaryStrategy(spec, phi, decay)
    if name == "ba":
        return BAStrategy(phi, decay)
    if name == "interleave":
        parts = [build_strategy(_object(p, "interleave part"), decay,
                                "%s.parts[%d]" % (path, i))
                 for i, p in enumerate(cfg["parts"])]
        schedule = [(json_int(s, "schedule start"), json_int(d, "schedule step"))
                    for s, d in cfg["schedule"]]
        return InterleaveStrategy(parts, schedule)
    raise SpecError("unknown strategy %r" % name)


def build_bob(cfg: dict, alice, seed_override: Optional[int]):
    kind = cfg.get("kind", "keep")
    if kind == "keep":
        return KeepCenterBob()
    if kind == "greedy":
        return GreedyBob(alice, json_rationals(cfg.get("targets", []),
                                               "targets"))
    if kind == "random":
        seed = json_int(cfg.get("seed", 0), "seed")
        return RandomBob(seed if seed_override is None else seed_override)
    raise SpecError("unknown adversary kind %r" % kind)


def build_opening(support: FractalSupport, cfg) -> Optional[Ball]:
    if cfg is None:
        return None
    center = parse_rational(cfg["center"])
    word = support.locate(center)
    if word is None:
        raise SpecError("opening center %s has no constructive membership"
                        % center)
    return Ball(center, parse_rational(cfg["radius"]), word)


def build_game(doc: dict, args) -> Tuple[FractalSupport, GameParams, object,
                                         object, int, Optional[Ball]]:
    support = build_support(doc["support"])
    decay = build_measure(_section(doc, "measure", {}))[0]["decay"]
    g = _object(doc["game"], "game")
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
    rounds = json_int(g.get("rounds", 20), "rounds")
    if args.rounds is not None:
        rounds = args.rounds
    if rounds < 1:
        raise SpecError("rounds must be at least 1, not %d" % rounds)
    opening = build_opening(support, _section(g, "opening"))
    alice = build_strategy(_object(doc["alice"], "alice"), decay)
    bob = build_bob(_section(doc, "bob", {}), alice, args.seed)
    return support, params, alice, bob, rounds, opening


# ---------------------------------------------------------------------------
# certificates out of finished strategies


def emit_certificates(strategy, interval) -> List[Tuple[str, Certificate]]:
    out: List[Tuple[str, Certificate]] = []

    def rec(s, name):
        if isinstance(s, LacunaryStrategy) and s.planned:
            out.append((name or "orbit", orbit_certificate(s, interval)))
        elif isinstance(s, BAStrategy) and s.planned:
            out.append((name or "bad_approx", ba_certificate(s, interval)))
        elif isinstance(s, InterleaveStrategy):
            for i, part in enumerate(s.strategies):
                rec(part, "part%d" % (i + 1))

    rec(strategy, "")
    return out


def _verify_and_report(entries, max_q: int) -> Tuple[list, bool]:
    """Verify each (name, certificate) and print its verdict, with the
    witness of a failure; returns the JSON bundle and whether all passed."""
    bundle, ok = [], True
    for name, cert in entries:
        result = verify(cert, max_q)
        ok = ok and result.passed
        bundle.append({"name": name, "certificate": cert.to_json(),
                       "verification": result.to_json()})
        print("certificate %s: %s (%s)" % (name,
                                           "PASS" if result.passed else "FAIL",
                                           result.reason))
        if result.witness:
            print("  witness: %s" % json.dumps(result.witness, sort_keys=True))
    return bundle, ok


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands


def cmd_play(args) -> int:
    doc = load_document(args.spec)
    support, params, alice, bob, rounds, opening = build_game(doc, args)
    transcript = run_game(support, params, alice, bob, rounds, opening)
    validate_transcript(transcript, support)
    text = transcript.to_jsonl()
    os.makedirs(args.out, exist_ok=True)
    tpath = os.path.join(args.out, "transcript.jsonl")
    with open(tpath, "w", encoding="utf-8") as fh:
        fh.write(text)
    print("transcript: %s (%d moves)" % (tpath, len(transcript.moves)))
    entries = emit_certificates(alice, outcome_interval(transcript))
    bundle, ok = _verify_and_report(entries, args.max_q)
    _write_json(os.path.join(args.out, "certificates.json"),
                {"certificates": bundle})
    return 0 if ok else 1


def cmd_audit(args) -> int:
    doc = load_document(args.spec)
    support = build_support(doc["support"])
    measure = FractalMeasure(support)
    constants, rho0 = build_measure(_section(doc, "measure", {}))
    acfg = _section(doc, "audit", {})
    grid = AuditGrid.default(
        support, parse_rational(acfg["rho0"]) if "rho0" in acfg else rho0,
        x_depth=json_int(acfg.get("x_depth", 3), "x_depth"),
        rho_count=json_int(acfg.get("rho_count", 5), "rho_count"),
        depths=tuple(json_int(d, "depths entry")
                     for d in acfg.get("depths", (6, 9, 12))))
    report = audit_measure(measure, grid, **constants)
    os.makedirs(args.out, exist_ok=True)
    cpath = os.path.join(args.out, "audit.csv")
    with open(cpath, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(report.csv_rows())
    for o in report.outcomes:
        print("audit %s: %s" % (o.check, o.verdict.value))
    d = _section(acfg, "dimension")
    if d is not None:
        x = parse_rational(d.get("x", "0"))
        k_max = json_int(d.get("k_max", 12), "k_max")
        base = parse_rational(d["rho_base"]) if "rho_base" in d \
            else support.contraction
        ests = lower_pointwise_dimension(measure, x,
                                         [base ** k for k in range(1, k_max + 1)])
        rep = dimension_report(estimates=ests, audit=report)
        _write_json(os.path.join(args.out, "dimension.json"), rep.to_json())
        margin = rep.margin
        if isinstance(margin, tuple):
            margin = "[%s, %s]" % margin
        print("dimension: analytic bound with margin %s"
              % ("none" if margin is None else margin))
    print("audit report: %s" % cpath)
    return 0 if report.all_passed else 1


def cmd_certify(args) -> int:
    payload = load_document(args.spec)
    if "certificates" in payload:
        items = [(_object(e, "bundle entry").get("name", "cert%d" % i),
                  Certificate.from_json(e["certificate"]))
                 for i, e in enumerate(payload["certificates"], start=1)]
    else:
        items = [("certificate", Certificate.from_json(payload))]
    _, ok = _verify_and_report(items, args.max_q)
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
    support, params, alice, bob, rounds, opening = build_game(doc, args)
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
    bundle, ok = _verify_and_report(entries, args.max_q)
    text = transcript.to_jsonl()
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "transcript.jsonl"), "w",
              encoding="utf-8") as fh:
        fh.write(text)
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
    flags = {"out": {"default": "."},
             "rounds": {"type": int, "default": None},
             "max-q": {"type": int, "default": DEFAULT_MAX_Q},
             "seed": {"type": int, "default": None},
             "digits": {"type": int, "default": 20}}
    game = ("out", "rounds", "max-q", "seed")
    for name, fn, names in (("play", cmd_play, game),
                            ("audit", cmd_audit, ("out",)),
                            ("certify", cmd_certify, ("max-q",)),
                            ("construct", cmd_construct, game + ("digits",))):
        q = sub.add_parser(name)
        q.add_argument("--spec", required=True)
        for flag in names:
            q.add_argument("--" + flag, **flags[flag])
        q.set_defaults(fn=fn)
    return p


def _check_args(args) -> None:
    """Reject out-of-range flags before any command runs."""
    if getattr(args, "max_q", 1) < 1:
        raise SpecError("max_q must be at least 1, not %d" % args.max_q)
    if getattr(args, "digits", 1) < 1:
        raise SpecError("digits must be at least 1, not %d" % args.digits)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_args(args)
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
