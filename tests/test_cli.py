import copy
import json
import time
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest

from schmidtgame import cli, fractal
from schmidtgame.alice import BiLipschitzMap
from schmidtgame.certify import (MAX_HORIZON, Certificate,
                                 VerificationResult)
from schmidtgame.cli import bundled_spec_path, main
from schmidtgame.fractal import (cantor_support, decay_from_federer_efd,
                                 max_alpha)
from schmidtgame.game import (GameParams, transcript_from_jsonl,
                              validate_transcript)


def write_spec(tmp_path, mutate, name="cantor_lacunary.json"):
    doc = json.loads(open(bundled_spec_path(name)).read())
    mutate(doc)
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(doc))
    return str(p)


class TestPlay:
    def test_bundled_lacunary(self, tmp_path, capsys):
        code = main(["play", "--spec", bundled_spec_path("cantor_lacunary.json"),
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        text = (tmp_path / "transcript.jsonl").read_text()
        assert len(text.splitlines()) == 101
        bundle = json.loads((tmp_path / "certificates.json").read_text())
        assert bundle["certificates"][0]["verification"]["passed"]

    def test_replay_round_trip(self, tmp_path):
        assert main(["play", "--spec", bundled_spec_path("cantor_ba.json"),
                     "--out", str(tmp_path)]) == 0
        text = (tmp_path / "transcript.jsonl").read_text()
        pair = (F(1, 3), F(1, 2))
        decay = decay_from_federer_efd(pair, pair, F(1))
        params = GameParams(max_alpha(decay), F(1, 4))
        K = cantor_support()
        t = transcript_from_jsonl(text, params)
        validate_transcript(t, K)
        assert t.to_jsonl() == text

    @pytest.mark.parametrize("name, rounds", [("cantor_triple.json", 100),
                                              ("cantor_lacunary.json", 400)])
    def test_replay_walks_only_new_letters(self, tmp_path, monkeypatch,
                                           name, rounds):
        # each center's word extends the last one's, and `locate` resumes
        # from the last word it found: walking from the root every time
        # built 51,433 and 80,317 nodes for these two replays
        spec = bundled_spec_path(name)
        assert main(["play", "--spec", spec, "--rounds", str(rounds),
                     "--out", str(tmp_path)]) == 0
        support, params = cli.build_game(
            cli.load_document(spec), SimpleNamespace(rounds=None, seed=None))[:2]
        t = transcript_from_jsonl((tmp_path / "transcript.jsonl").read_text(),
                                  params)
        built, node = [0], fractal._Node

        def counting(*args):
            built[0] += 1
            return node(*args)

        monkeypatch.setattr(fractal, "_Node", counting)
        validate_transcript(t, support)
        nodes = built[0]
        final = support.locate(t.last_ball.center)
        assert nodes <= 4 * len(t.moves) + len(final)

    def test_seeded_reproducibility(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        spec = bundled_spec_path("cantor_ba.json")
        assert main(["play", "--spec", spec, "--out", str(a)]) == 0
        assert main(["play", "--spec", spec, "--out", str(b)]) == 0
        assert (a / "transcript.jsonl").read_bytes() == \
            (b / "transcript.jsonl").read_bytes()
        c = tmp_path / "c"
        assert main(["play", "--spec", spec, "--out", str(c),
                     "--seed", "99"]) == 0
        assert (a / "transcript.jsonl").read_bytes() != \
            (c / "transcript.jsonl").read_bytes()

    @pytest.mark.parametrize("variant", ["strong", "Strong", 5, {}],
                             ids=["strong", "Strong", "int", "object"])
    def test_other_variant_exits_2(self, tmp_path, capsys, variant):
        # one rule is played: a "strong" spec with strategies that accepted
        # it used to play and exit 0, and other values exited 2 with
        # "'5' is not a valid Variant", naming no key
        def mutate(doc):
            doc["game"]["variant"] = variant
            doc["alice"], doc["bob"] = {"strategy": "hold"}, {"kind": "keep"}
        spec = write_spec(tmp_path, mutate, "cantor_triple.json")
        assert main(["play", "--spec", spec, "--out", str(tmp_path)]) == 2
        assert "game.variant" in capsys.readouterr().err
        assert not (tmp_path / "transcript.jsonl").exists()

    def test_hold_against_keep(self, tmp_path):
        def mutate(doc):
            doc["alice"], doc["bob"] = {"strategy": "hold"}, {"kind": "keep"}
        spec = write_spec(tmp_path, mutate, "cantor_triple.json")
        assert main(["play", "--spec", spec, "--rounds", "5",
                     "--out", str(tmp_path)]) == 0
        lines = [json.loads(line) for line in
                 (tmp_path / "transcript.jsonl").read_text().splitlines()]
        assert len(lines) == 11
        assert all(line["center"] == prev["center"]
                   for prev, line in zip(lines, lines[1:])
                   if line["player"] == "alice")
        bundle = json.loads((tmp_path / "certificates.json").read_text())
        assert bundle == {"certificates": []}

    @pytest.mark.parametrize("name", ["cantor_lacunary.json", "cantor_ba.json",
                                      "cantor_triple.json"])
    def test_variant_key_is_optional(self, tmp_path, name):
        def drop(doc):
            assert doc["game"].pop("variant") == "classical"
        spec = write_spec(tmp_path, drop, name)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["play", "--spec", spec, "--rounds", "5",
                     "--out", str(a)]) == 0
        assert main(["play", "--spec", bundled_spec_path(name), "--rounds",
                     "5", "--out", str(b)]) == 0
        text = (a / "transcript.jsonl").read_bytes()
        assert len(text.splitlines()) == 11
        assert text == (b / "transcript.jsonl").read_bytes()

    def test_alpha_violation_exits_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path,
                          lambda d: d["game"].__setitem__("alpha", "1/4"))
        assert main(["play", "--spec", spec, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "alpha exceeds 1/4(1/(3C))^(1/gamma)" in err

    def test_zero_denominator_exits_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path,
                          lambda d: d["game"].__setitem__("beta", "1/0"))
        assert main(["play", "--spec", spec, "--out", str(tmp_path)]) == 2
        assert "1/0" in capsys.readouterr().err

    @pytest.mark.parametrize("mutate", [
        lambda d: d["game"].__setitem__("beta", 0.25),
        lambda d: d["alice"].__setitem__("lacunarity", None),
    ], ids=["float_beta", "null_lacunarity"])
    def test_non_string_rational_exits_2(self, tmp_path, capsys, mutate):
        spec = write_spec(tmp_path, mutate)
        assert main(["play", "--spec", spec, "--out", str(tmp_path)]) == 2
        assert "not a rational" in capsys.readouterr().err

    @pytest.mark.parametrize("mutate", [
        lambda d: d.__setitem__("bob", None),
        lambda d: d.__setitem__("bob", "random"),
        lambda d: d.__setitem__("alice", "ba"),
        lambda d: d.__setitem__("game", []),
        lambda d: d["game"].__setitem__("opening", "0"),
        lambda d: d["alice"].__setitem__("phi", []),
        lambda d: d.__setitem__("measure", "federer"),
    ], ids=["null_bob", "string_bob", "string_alice", "list_game",
            "string_opening", "list_phi", "string_measure"])
    def test_non_object_section_exits_2(self, tmp_path, capsys, mutate):
        # `.get` on these raised AttributeError (exit 1), and "federer" in a
        # string measure was a substring test that read it as no measure
        spec = write_spec(tmp_path, mutate)
        assert main(["play", "--spec", spec, "--out", str(tmp_path)]) == 2
        assert "must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("name, section, key, value", [
        ("cantor_lacunary.json", "game", "rounds", 5.9),
        ("cantor_lacunary.json", "game", "rounds", True),
        ("cantor_lacunary.json", "game", "rounds", "7"),
        ("cantor_ba.json", "bob", "seed", 13.0),
        ("cantor_ba.json", "bob", "seed", True),
        ("cantor_triple.json", "alice", "schedule", [[1.0, 3], [2, 3], [3, 3]]),
    ])
    def test_non_integer_count_exits_2(self, tmp_path, capsys, name, section,
                                       key, value):
        # int() read these as 5, 1 or 7 rounds; a float or bool seed drew
        # another game than its integer
        spec = write_spec(tmp_path, lambda d: d[section].__setitem__(key, value),
                          name)
        assert main(["play", "--spec", spec, "--out", str(tmp_path)]) == 2
        assert "must be a JSON integer" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{not json")
        assert main(["play", "--spec", str(p), "--out", str(tmp_path)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["play", "--spec", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_unknown_strategy_exits_2(self, tmp_path):
        spec = write_spec(tmp_path,
                          lambda d: d["alice"].__setitem__("strategy", "psychic"))
        assert main(["play", "--spec", spec, "--out", str(tmp_path)]) == 2

    def test_rounds_flag_overrides(self, tmp_path):
        assert main(["play", "--spec", bundled_spec_path("cantor_lacunary.json"),
                     "--out", str(tmp_path), "--rounds", "12"]) == 0
        text = (tmp_path / "transcript.jsonl").read_text()
        assert len(text.splitlines()) == 25

    @pytest.mark.parametrize("rounds", ["0", "-3"])
    @pytest.mark.parametrize("command", ["play", "construct"])
    def test_nonpositive_rounds_exits_2(self, tmp_path, capsys, command,
                                        rounds):
        # 0 is a value, not "unset": it must not fall back to the spec's rounds
        assert main([command, "--spec", bundled_spec_path("cantor_triple.json"),
                     "--out", str(tmp_path), "--rounds", rounds]) == 2
        assert "rounds must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "transcript.jsonl").exists()

    def test_unwritable_transcript_leaves_no_file(self, tmp_path, capsys):
        # a 1,600-round lacunary transcript holds an integer past Python's
        # 4,300-digit string limit: the text is built before the file opens
        out = tmp_path / "out"
        assert main(["play", "--spec", bundled_spec_path("cantor_lacunary.json"),
                     "--out", str(out), "--rounds", "1600"]) == 2
        assert "4300 digits" in capsys.readouterr().err
        assert not (out / "transcript.jsonl").exists()

    def test_failing_certificate_prints_witness(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setattr(cli, "verify", lambda cert: VerificationResult(
            False, 1, "forced", {"n": 1}))
        assert main(["play", "--spec", bundled_spec_path("cantor_lacunary.json"),
                     "--out", str(tmp_path), "--rounds", "12"]) == 1
        out = capsys.readouterr().out
        assert "FAIL (forced)" in out and '  witness: {"n": 1}' in out

    def test_non_integer_affine_factor_exits_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, lambda d: d.__setitem__("alice", {
            "strategy": "affine_orbit", "b": "5/2", "c": "1/3", "y": "0",
            "n_max": 4}))
        assert main(["play", "--spec", spec, "--out", str(tmp_path)]) == 2
        assert "integer factor" in capsys.readouterr().err

    @pytest.mark.parametrize("n_max", [12, 40, 400])
    def test_affine_orbit_plays_past_n_max(self, tmp_path, capsys, n_max):
        # the terms stop with the n_max targets: terms that ran on asked
        # for a target beyond the list, and the play exited 1
        spec = write_spec(tmp_path, lambda d: d.__setitem__("alice", {
            "strategy": "affine_orbit", "b": "2", "c": "1/3", "y": "0",
            "n_max": n_max}))
        assert main(["play", "--spec", spec, "--rounds", "60",
                     "--out", str(tmp_path)]) == 0
        assert ("PASS (all %d covered terms" % n_max) in capsys.readouterr().out

    @pytest.mark.parametrize("name, part, where", [
        ("cantor_lacunary.json", lambda d: d["alice"], "alice.targets"),
        ("cantor_triple.json", lambda d: d["alice"]["parts"][2],
         "alice.parts[2].targets")], ids=["lacunary", "interleave_part"])
    def test_geometric_terms_with_target_list_exit_2(self, tmp_path, capsys,
                                                     name, part, where):
        # geometric terms never end, so once a block passes the fifth term
        # the list has no target: the play ran, then exited 1
        targets = {"kind": "list", "values": ["0", "1/3", "1/5", "1/7", "1/9"]}
        spec = write_spec(tmp_path, lambda d: part(d).__setitem__(
            "targets", targets), name)
        assert main(["play", "--spec", spec, "--rounds", "60",
                     "--out", str(tmp_path)]) == 2
        assert where in capsys.readouterr().err

    def test_non_integer_n_max_exits_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, lambda d: d.__setitem__("alice", {
            "strategy": "affine_orbit", "b": "2", "c": "1/3", "y": "0",
            "n_max": 4.0}))
        assert main(["play", "--spec", spec, "--out", str(tmp_path)]) == 2
        assert "n_max must be a JSON integer" in capsys.readouterr().err


class TestShortPlays:
    """Certificates of plays too short for every part to finish a block."""

    @pytest.mark.parametrize("name, rounds", [("cantor_ba.json", 1),
                                              ("cantor_ba.json", 2),
                                              ("cantor_triple.json", 1)])
    def test_no_block_done_passes(self, tmp_path, capsys, name, rounds):
        # no block has cleared the integers yet, so none is checked
        assert main(["play", "--spec", bundled_spec_path(name), "--rounds",
                     str(rounds), "--out", str(tmp_path)]) == 0
        assert "FAIL" not in capsys.readouterr().out
        bundle = json.loads((tmp_path / "certificates.json").read_text())
        entry = bundle["certificates"][0]
        assert entry["certificate"]["horizon"] == 0
        assert entry["verification"]["checked"] == 0

    @pytest.mark.parametrize("rounds, parts", [
        (1, [("part1", "bad_approx", 1)]),
        (20, [("part1", "bad_approx", 7), ("part2", "orbit_separation", 7),
              ("part3", "orbit_separation", 6)])])
    def test_interleave_certifies_each_planned_part(self, tmp_path, rounds,
                                                    parts):
        # a part that has not yet played a turn has no plan and no claim
        assert main(["play", "--spec", bundled_spec_path("cantor_triple.json"),
                     "--rounds", str(rounds), "--out", str(tmp_path)]) == 0
        bundle = json.loads((tmp_path / "certificates.json").read_text())
        got = [(e["name"], e["certificate"]["kind"],
                e["certificate"]["snapshot"]["turns"])
               for e in bundle["certificates"]]
        assert got == parts
        # every part plans with the effective beta*(alpha*beta)^2
        assert {e["certificate"]["snapshot"]["beta"]
                for e in bundle["certificates"]} == {"9/268435456"}

    def test_nested_parts_are_named_by_path(self, tmp_path):
        # by its index in its own interleave alone, the inner lacunary
        # part and the outer one would both be "part2"
        def lacunary(base, target):
            return {"strategy": "lacunary",
                    "terms": {"kind": "geometric", "base": base, "scale": "1"},
                    "targets": {"kind": "const", "value": target}}
        inner = {"strategy": "interleave", "schedule": [[1, 2], [2, 2]],
                 "parts": [{"strategy": "ba"}, lacunary("2", "0")]}
        spec = write_spec(tmp_path, _set(["alice"], {
            "strategy": "interleave", "schedule": [[1, 2], [2, 2]],
            "parts": [inner, lacunary("3", "1/2")]}), "cantor_triple.json")
        assert main(["play", "--spec", spec, "--rounds", "60",
                     "--out", str(tmp_path)]) == 0
        bundle = json.loads((tmp_path / "certificates.json").read_text())
        assert [(e["name"], e["certificate"]["kind"])
                for e in bundle["certificates"]] == [
            ("part1.1", "bad_approx"), ("part1.2", "orbit_separation"),
            ("part2", "orbit_separation")]


class TestSpecPhi:
    """A spec's phi is the anchor form certificates write, end to end."""

    PHI = {"breakpoints": ["1/2"], "slopes": ["1", "2"],
           "anchor": ["1/2", "1/2"]}

    @pytest.mark.parametrize("name", ["cantor_lacunary.json", "cantor_ba.json"])
    def test_play_and_certify(self, tmp_path, name):
        spec = write_spec(tmp_path,
                          lambda d: d["alice"].__setitem__("phi", self.PHI), name)
        out = tmp_path / "out"
        assert main(["play", "--spec", spec, "--out", str(out)]) == 0
        bundle = out / "certificates.json"
        assert main(["certify", "--spec", str(bundle)]) == 0
        certs = json.loads(bundle.read_text())["certificates"]
        want = BiLipschitzMap.from_json(self.PHI)
        assert want.lipschitz == 2 and certs
        for entry in certs:
            snap = entry["certificate"]["snapshot"]
            assert BiLipschitzMap.from_json(snap["phi"]) == want

    def test_kind_form_exits_2(self, tmp_path):
        spec = write_spec(tmp_path, lambda d: d["alice"].__setitem__(
            "phi", {"kind": "affine", "slope": "2"}))
        assert main(["play", "--spec", spec, "--out", str(tmp_path)]) == 2


CANTOR_IFS = {"maps": [{"r": "1/3", "a": "0"}, {"r": "1/3", "a": "2/3"}],
              "weights": ["1/2", "1/2"], "hull": ["0", "1"]}


def _set(path, value):
    """A mutation that sets doc[path[0]]...[path[-1]] to value."""
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return mutate


class TestJsonArrays:
    # a string in place of an array unpacked or iterated as its characters:
    # "points": "01" excluded 0 and 1, and "hull": "01" read as [0, 1]
    @pytest.mark.parametrize("command, name, mutate", [
        ("play", "cantor_lacunary.json",
         _set(["alice"], {"strategy": "exclude", "points": "01"})),
        ("play", "cantor_lacunary.json",
         _set(["bob"], {"kind": "greedy", "targets": "12"})),
        ("play", "cantor_lacunary.json",
         _set(["support"], dict(CANTOR_IFS, hull="01"))),
        ("play", "cantor_lacunary.json",
         _set(["support"], dict(CANTOR_IFS, weights="11"))),
        ("play", "cantor_lacunary.json",
         _set(["measure", "federer"], "12")),
        ("play", "cantor_lacunary.json",
         _set(["alice", "terms"], {"kind": "list", "values": "48"})),
        ("play", "cantor_lacunary.json",
         _set(["alice", "targets"], {"kind": "periodic", "values": "01"})),
        ("play", "cantor_lacunary.json",
         _set(["alice", "targets"], {"kind": "list", "values": "0"})),
        ("play", "cantor_lacunary.json",
         _set(["alice", "phi"], {"breakpoints": [], "slopes": ["1"],
                                 "anchor": "01"})),
        ("play", "cantor_lacunary.json",
         _set(["alice", "phi"], {"breakpoints": [], "slopes": "1",
                                 "anchor": ["0", "1"]})),
        ("audit", "cantor_audit.json", _set(["measure", "power_law"], "123")),
        ("audit", "lebesgue_audit.json",
         _set(["measure", "power_law"], ["1", "2", {"log": "23"}])),
        ("certify", None, _set(["interval"], "01")),
    ], ids=["points", "targets", "hull", "weights", "federer", "term_values",
            "periodic_values", "list_values", "anchor", "slopes", "power_law",
            "log", "interval"])
    def test_string_for_array_exits_2(self, tmp_path, capsys, command, name,
                                      mutate):
        if name is None:
            cert = Certificate("bad_approx", (F(1, 2), F(1, 2)), F(1, 5), 10,
                               "denominators").to_json()
            mutate(cert)
            spec = tmp_path / "cert.json"
            spec.write_text(json.dumps(cert))
            argv = [command, "--spec", str(spec)]
        else:
            argv = [command, "--spec", write_spec(tmp_path, mutate, name),
                    "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "must be a JSON array" in capsys.readouterr().err


class TestCertify:
    @pytest.fixture(scope="class")
    def claims(self, tmp_path_factory):
        """A passing certificate of each claim, scheduled and bare, as JSON."""
        out = {}
        for claim, name in (("orbit", "cantor_lacunary.json"),
                            ("ba", "cantor_ba.json")):
            d = tmp_path_factory.mktemp(claim)
            assert main(["play", "--spec", bundled_spec_path(name),
                         "--rounds", "50", "--out", str(d)]) == 0
            bundle = json.loads((d / "certificates.json").read_text())
            out[claim, "scheduled"] = bundle["certificates"][0]["certificate"]
        # 2^n/3 mod 1 alternates 2/3, 1/3; 13/21 is far from small q
        doubling = {"terms": {"kind": "geometric", "base": "2", "scale": "1"},
                    "targets": {"kind": "const", "value": "0"},
                    "lacunarity": "2"}
        out["orbit", "bare"] = Certificate(
            "orbit_separation", (F(1, 3), F(1, 3)), F(1, 3), 24, "terms",
            {"spec": doubling}).to_json()
        out["ba", "bare"] = Certificate(
            "bad_approx", (F(13, 21), F(13, 21)), F(1, 100), 20,
            "denominators").to_json()
        return out

    def certify(self, tmp_path, capsys, cert):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        capsys.readouterr()
        return main(["certify", "--spec", str(path)])

    @pytest.mark.parametrize("stated",
                             ["blocks", "terms", "denominators", None])
    @pytest.mark.parametrize("snapshot", ["scheduled", "bare"])
    @pytest.mark.parametrize("claim", ["orbit", "ba"])
    def test_horizon_kind_follows_claim_and_snapshot(self, claims, tmp_path,
                                                     capsys, claim, snapshot,
                                                     stated):
        # schedule inputs count blocks; a bare snapshot counts orbit terms
        # or BA denominators; an absent kind reads as "blocks"
        cert = dict(claims[claim, snapshot])
        del cert["horizon_kind"]
        if stated is not None:
            cert["horizon_kind"] = stated
        counts = "blocks" if snapshot == "scheduled" else \
            "terms" if claim == "orbit" else "denominators"
        code = self.certify(tmp_path, capsys, cert)
        if (stated or "blocks") == counts:
            assert code == 0
        else:
            assert code == 2
            assert "horizon kind" in capsys.readouterr().err

    @pytest.mark.parametrize("claim, snapshot", [
        ("orbit", "scheduled"), ("ba", "scheduled"), ("orbit", "bare")])
    @pytest.mark.parametrize("past", [0, 1])
    def test_horizon_past_the_cap_exits_2(self, claims, tmp_path, capsys,
                                          claim, snapshot, past):
        # the verifiers build (1/(alpha*beta))^(r*h) or the BA band top
        # before they check a term, so the horizon is bounded on load
        cert = copy.deepcopy(claims[claim, snapshot])
        cert["horizon"] = MAX_HORIZON + past
        if snapshot == "scheduled":
            cert["snapshot"]["turns"] = 100 * cert["horizon"]
        code = self.certify(tmp_path, capsys, cert)
        if past:
            assert code == 2
            assert "exceeds the verifiable" in capsys.readouterr().err
        else:
            assert code in (0, 1)

    def test_unfinished_block_exits_1(self, claims, tmp_path, capsys):
        # HorizonMismatch is a ValueError, yet a run failure, not bad input
        cert = copy.deepcopy(claims["orbit", "scheduled"])
        cert["horizon"] += 1  # 50 turns finish exactly the claimed blocks
        assert self.certify(tmp_path, capsys, cert) == 1
        assert capsys.readouterr().err.startswith(
            "run failed: certificate claims")

    @pytest.fixture()
    def bundle_path(self, tmp_path):
        assert main(["play", "--spec", bundled_spec_path("cantor_ba.json"),
                     "--out", str(tmp_path)]) == 0
        return tmp_path / "certificates.json"

    def test_bundle_reverifies(self, bundle_path):
        assert main(["certify", "--spec", str(bundle_path)]) == 0

    def test_doubled_c_exits_1_with_witness(self, bundle_path, tmp_path,
                                            capsys):
        bundle = json.loads(bundle_path.read_text())
        cert = bundle["certificates"][0]["certificate"]
        cert["c"] = str(F(cert["c"]) * 2)
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(cert))
        capsys.readouterr()
        assert main(["certify", "--spec", str(edited)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "witness" in out

    @pytest.mark.parametrize("command", ["play", "construct", "certify"])
    def test_max_q_flag_exits_2(self, command, bundle_path, tmp_path):
        # the denominator cap is certify.MAX_Q, which no flag lowers
        spec = str(bundle_path) if command == "certify" else \
            bundled_spec_path("cantor_ba.json")
        args = [command, "--spec", spec, "--max-q", "1000"]
        if command != "certify":
            args += ["--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_ba_window_past_fraction_cap_exits_2_at_once(self, tmp_path,
                                                        capsys):
        # Q = 10^6 over a window 1/50 wide: about 10^10 fractions, which
        # the verifier sorted in memory before checking the first
        cert = Certificate("bad_approx", (F(13, 21), F(13, 21)), F(1, 100),
                           10 ** 9, "denominators")
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"certificates": [
            {"name": "wide", "certificate": cert.to_json()}]}))
        start = time.perf_counter()
        assert main(["certify", "--spec", str(path)]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert "holds up to 10001010000 fractions" in err
        assert "more than the verifiable 2000000" in err

    @pytest.fixture()
    def failing_bare(self, tmp_path):
        # 1/2 itself lies within c/q^2 of the point interval {1/2}
        cert = Certificate("bad_approx", (F(1, 2), F(1, 2)), F(1, 5), 10,
                           "denominators")
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(cert.to_json()))
        return path

    def test_failing_bare_certificate_exits_1(self, failing_bare):
        assert main(["certify", "--spec", str(failing_bare)]) == 1

    @pytest.mark.parametrize("rho0", ["0", "-1/3"])
    def test_nonpositive_rho0_exits_2(self, tmp_path, capsys, rho0):
        # the warm-up loop never ends on such a snapshot if it gets through
        assert main(["play", "--spec",
                     bundled_spec_path("cantor_lacunary.json"),
                     "--out", str(tmp_path), "--rounds", "100"]) == 0
        path = tmp_path / "certificates.json"
        bundle = json.loads(path.read_text())
        bundle["certificates"][0]["certificate"]["snapshot"]["rho0"] = rho0
        path.write_text(json.dumps(bundle))
        capsys.readouterr()
        assert main(["certify", "--spec", str(path)]) == 2
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha, beta, field", [
        ("2", "3/16384", "alpha"), ("3/16384", "2", "beta"),
        ("-3/2048", "-1/4", "alpha")])
    def test_snapshot_ratio_outside_0_1_exits_2(self, tmp_path, capsys,
                                                 alpha, beta, field):
        # each edit keeps the bundled product alpha * beta = 3/8192, which
        # was all the verifier checked: the certificate passed with exit 0
        assert main(["play", "--spec",
                     bundled_spec_path("cantor_lacunary.json"),
                     "--out", str(tmp_path), "--rounds", "50"]) == 0
        path = tmp_path / "certificates.json"
        bundle = json.loads(path.read_text())
        snap = bundle["certificates"][0]["certificate"]["snapshot"]
        assert F(snap["alpha"]) * F(snap["beta"]) == F(alpha) * F(beta)
        snap["alpha"], snap["beta"] = alpha, beta
        path.write_text(json.dumps(bundle))
        capsys.readouterr()
        assert main(["certify", "--spec", str(path)]) == 2
        assert "snapshot %s must lie in (0, 1)" % field in \
            capsys.readouterr().err

    @pytest.mark.parametrize("field", ["horizon", "turns"])
    @pytest.mark.parametrize("value", [5.9, True, "5"])
    def test_non_integer_count_exits_2(self, tmp_path, capsys, field, value):
        # int() would read these as 5 or 1 blocks or turns and pass them
        assert main(["play", "--spec",
                     bundled_spec_path("cantor_lacunary.json"),
                     "--out", str(tmp_path), "--rounds", "100"]) == 0
        path = tmp_path / "certificates.json"
        bundle = json.loads(path.read_text())
        cert = bundle["certificates"][0]["certificate"]
        (cert if field == "horizon" else cert["snapshot"])[field] = value
        path.write_text(json.dumps(bundle))
        capsys.readouterr()
        assert main(["certify", "--spec", str(path)]) == 2
        assert "must be a JSON integer" in capsys.readouterr().err


class TestAudit:
    def test_lebesgue_pass_csv(self, tmp_path, capsys):
        code = main(["audit", "--spec", bundled_spec_path("lebesgue_audit.json"),
                     "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "audit.csv").read_text().splitlines()
        assert rows[0] == "check,params,grid_point,verdict"
        assert len(rows) > 1
        assert all(r.endswith(",pass") for r in rows[1:])

    def test_cantor_audit_with_dimension(self, tmp_path):
        code = main(["audit", "--spec", bundled_spec_path("cantor_audit.json"),
                     "--out", str(tmp_path)])
        assert code == 0
        dim = json.loads((tmp_path / "dimension.json").read_text())
        assert dim["analytic_bound"] == {"log": ["2", "3"]}
        assert dim["consistent"] is True
        assert dim["margin"] == "0"

    def test_rho_base_defaults_to_contraction(self, tmp_path):
        doc = json.loads(open(bundled_spec_path("cantor_audit.json")).read())
        assert doc["audit"]["dimension"].pop("rho_base") == "1/3"
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["audit", "--spec", str(p), "--out", str(out)]) == 0
        assert main(["audit", "--spec", bundled_spec_path("cantor_audit.json"),
                     "--out", str(tmp_path)]) == 0
        assert (out / "dimension.json").read_bytes() == \
            (tmp_path / "dimension.json").read_bytes()

    @pytest.mark.parametrize("check, delta", [("federer", "3/4"),
                                              ("efd", "1/4")])
    def test_failing_doubling_pair_exits_1(self, tmp_path, capsys, check,
                                           delta):
        # federer asks mu(B(x, rho/3)) >= delta mu(B(x, rho)) and efd
        # <= delta: the bundled delta = 1/2 passes both on the grid, and
        # each of these fails at some grid point
        doc = json.loads(open(bundled_spec_path("cantor_audit.json")).read())
        doc["measure"][check][1] = delta
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(doc))
        assert main(["audit", "--spec", str(p), "--out", str(tmp_path)]) == 1
        assert "audit %s: fail" % check in capsys.readouterr().out
        last = {}
        for row in (tmp_path / "audit.csv").read_text().splitlines()[1:]:
            last[row.split(",")[0]] = row.rsplit(",", 1)[1]
        expected = dict.fromkeys(("federer", "efd", "absolute_decay",
                                  "power_law"), "pass")
        expected[check] = "fail"
        assert last == expected

    def test_unread_flag_exits_2(self, tmp_path):
        # audit reads no rounds or seed, so it does not accept them
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--spec", bundled_spec_path("cantor_audit.json"),
                  "--out", str(tmp_path), "--rounds", "3"])
        assert exc.value.code == 2
        assert not (tmp_path / "audit.csv").exists()

    @staticmethod
    def audit_copy(tmp_path, measure):
        doc = json.loads(open(bundled_spec_path("cantor_audit.json")).read())
        doc["measure"] = measure
        del doc["audit"]["dimension"]
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(doc))
        return str(p)

    def test_lone_doubling_pair_out_of_range_exits_2(self, tmp_path, capsys):
        spec = self.audit_copy(tmp_path, {"federer": ["1/3", "3/2"]})
        out = tmp_path / "out"
        assert main(["audit", "--spec", spec, "--out", str(out)]) == 2
        assert "conversion requires" in capsys.readouterr().err

    def test_explicit_decay_beside_doubling_pairs(self, tmp_path):
        spec = self.audit_copy(tmp_path, {
            "federer": ["1/3", "1/2"], "efd": ["1/3", "1/2"],
            "decay": {"C": "9", "gamma": {"log": ["2", "3"]}, "rho0": "1/3"}})
        assert main(["audit", "--spec", spec, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "audit.csv").read_text().splitlines()
        decay_rows = [r for r in rows if r.startswith("absolute_decay,")]
        assert decay_rows and all("C=9 " in r for r in decay_rows)

    def test_failing_decay_exits_1(self, tmp_path):
        doc = json.loads(open(bundled_spec_path("lebesgue_audit.json")).read())
        # C = 1/2 makes even eps = 1 fail the decay inequality
        doc["measure"]["decay"]["C"] = "1/2"
        del doc["measure"]["power_law"]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert main(["audit", "--spec", str(p), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("measure, rho0", [
        ({"decay": {"C": "9", "gamma": {"log": ["2", "3"]}, "rho0": "1/9"},
          "rho0": "1"}, "1/9"),
        ({"federer": ["1/3", "1/2"], "efd": ["1/3", "1/2"], "rho0": "1/3"},
         "1/3"),
        ({"federer": ["1/3", "1/2"]}, "1"),
    ], ids=["explicit_decay", "measure_rho0", "default"])
    def test_grid_rho0_without_audit_rho0(self, tmp_path, measure, rho0):
        # the explicit decay's rho0, else the measure's (the decay derived
        # from the doubling pairs claims only a third of it)
        spec = Path(self.audit_copy(tmp_path, measure))
        doc = json.loads(spec.read_text())
        del doc["audit"]["rho0"]
        spec.write_text(json.dumps(doc))
        assert main(["audit", "--spec", str(spec), "--out", str(tmp_path / "a")]) == 0
        doc["audit"]["rho0"] = rho0
        spec.write_text(json.dumps(doc))
        assert main(["audit", "--spec", str(spec), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "audit.csv").read_bytes() == \
            (tmp_path / "b" / "audit.csv").read_bytes()

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d.__setitem__("audit", []), "audit must be a JSON object"),
        (lambda d: d["audit"].__setitem__("dimension", None),
         "dimension must be a JSON object"),
        (lambda d: d["measure"].__setitem__("decay", "8"),
         "decay must be a JSON object"),
        (lambda d: d["audit"].__setitem__("x_depth", 3.0),
         "x_depth must be a JSON integer"),
        (lambda d: d["audit"].__setitem__("rho_count", True),
         "rho_count must be a JSON integer"),
        (lambda d: d["audit"].__setitem__("depths", [6, "9", 12]),
         "depths entry must be a JSON integer"),
        (lambda d: d["audit"]["dimension"].__setitem__("k_max", 12.0),
         "k_max must be a JSON integer"),
        # no radius shrinks to rho0 <= 0: the grid never filled
        (_set(["audit", "rho0"], "0"), "audit rho0 must be positive, not 0"),
        (lambda d: d.update(
            support="interval", audit={"rho0": "-1/2"},
            measure={"decay": {"C": "2", "gamma": "1", "rho0": "1"},
                     "power_law": ["1", "2", "1"]}),
         "audit rho0 must be positive, not -1/2"),
        (lambda d: d.update(audit={}, measure={
            "power_law": ["1/4", "4", {"log": ["2", "3"]}], "rho0": "0"}),
         "audit rho0 must be positive, not 0"),
        # counts in the millions would build Fractions for minutes
        (_set(["audit", "rho_count"], fractal.AUDIT_MAX_SCALES + 1),
         "rho_count %d is more than" % (fractal.AUDIT_MAX_SCALES + 1)),
        (_set(["audit", "dimension", "k_max"], fractal.AUDIT_MAX_SCALES + 1),
         "k_max %d is more than" % (fractal.AUDIT_MAX_SCALES + 1)),
        # k_max < 1 wrote an empty estimate list and exit 0; a scale or x
        # out of range was refused only after audit.csv was written
        (_set(["audit", "dimension", "k_max"], 0),
         "k_max must be at least 1, not 0"),
        (_set(["audit", "dimension", "k_max"], -3),
         "k_max must be at least 1, not -3"),
        (_set(["audit", "dimension", "rho_base"], "2"),
         "dimension scales need 0 < rho < 1"),
        (_set(["audit", "dimension", "rho_base"], "0"),
         "dimension scales need 0 < rho < 1"),
        (_set(["audit", "dimension", "rho_base"], "-1/3"),
         "dimension scales need 0 < rho < 1"),
        (_set(["audit", "dimension", "x"], "2"), "x outside the hull"),
        # millions of contractions by 999/1000 down to rho0 would loop for
        # minutes; the first radius is searched, and refused past the cap
        (lambda d: d.update(support={
            "maps": [{"r": "999/1000", "a": "0"},
                     {"r": "1/1000", "a": "999/1000"}],
            "weights": ["1/2", "1/2"], "hull": ["0", "1"]},
            audit=dict(d["audit"], rho0="1/%d" % 10 ** 3000)),
         "audit rho0 is more than %d contractions below"
         % fractal.AUDIT_MAX_SCALES),
        # a negative x_depth failed in itertools, naming no key; a negative
        # rho_count wrote a header-only audit.csv and exit 1; depth -1 made
        # a float mass bound, and [6, -2] passed every check
        (_set(["audit", "x_depth"], -1),
         "audit x_depth must be at least 0, not -1"),
        (_set(["audit", "rho_count"], -2),
         "audit rho_count must be at least 0, not -2"),
        (_set(["audit", "depths"], [-1]),
         "audit depths entry must be at least 0, not -1"),
        (_set(["audit", "depths"], [6, -2]),
         "audit depths entry must be at least 0, not -2"),
    ], ids=["list_audit", "null_dimension", "string_decay", "float_x_depth",
            "bool_rho_count", "string_depth", "float_k_max", "zero_rho0",
            "negative_rho0_lebesgue", "zero_measure_rho0", "huge_rho_count",
            "huge_k_max", "zero_k_max", "negative_k_max", "rho_base_above_1",
            "zero_rho_base", "negative_rho_base", "x_outside_hull",
            "deep_rho0", "negative_x_depth", "negative_rho_count",
            "negative_depth", "negative_second_depth"])
    def test_malformed_audit_exits_2(self, tmp_path, capsys, mutate, message):
        spec = write_spec(tmp_path, mutate, "cantor_audit.json")
        out = tmp_path / "out"
        assert main(["audit", "--spec", spec, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and "audit " not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("key", ["x_depth", "rho_count"])
    def test_empty_grid_exits_1(self, tmp_path, capsys, key):
        # a check that judged no grid point has not passed
        doc = json.loads(open(bundled_spec_path("cantor_audit.json")).read())
        doc["audit"][key] = 0
        p = tmp_path / "empty.json"
        p.write_text(json.dumps(doc))
        assert main(["audit", "--spec", str(p), "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert out.count(": inconclusive") == 4 and ": pass" not in out
        assert (tmp_path / "audit.csv").read_text().splitlines() == [
            "check,params,grid_point,verdict"]

    def test_huge_grid_exits_2(self, tmp_path, capsys):
        # 2**30 grid words would take months; the cap refuses them at once
        doc = json.loads(open(bundled_spec_path("lebesgue_audit.json")).read())
        doc["audit"]["x_depth"] = 30
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["audit", "--spec", str(p), "--out", str(out)]) == 2
        assert "grid words" in capsys.readouterr().err
        assert not out.exists()


class TestConstruct:
    @pytest.mark.parametrize("digits", ["0", "-3"])
    def test_nonpositive_digits_exits_2(self, tmp_path, capsys, digits):
        out = tmp_path / "out"
        assert main(["construct", "--spec",
                     bundled_spec_path("cantor_triple.json"),
                     "--out", str(out), "--digits", digits]) == 2
        assert "digits must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_twenty_digits_in_cantor_alphabet(self, tmp_path, capsys):
        code = main(["construct", "--spec",
                     bundled_spec_path("cantor_triple.json"),
                     "--out", str(tmp_path), "--digits", "20"])
        assert code == 0
        doc = json.loads((tmp_path / "construct.json").read_text())
        assert doc["base"] == 3
        assert len(doc["digits"]) == 20
        assert set(doc["digits"]) <= {0, 2}
        assert len(doc["certificates"]) == 3
        assert all(c["verification"]["passed"] for c in doc["certificates"])
        out = capsys.readouterr().out
        assert out.count("PASS") == 3

    def test_digit_interval_agrees(self, tmp_path):
        assert main(["construct", "--spec",
                     bundled_spec_path("cantor_triple.json"),
                     "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "construct.json").read_text())
        lo = F(doc["interval"][0])
        # the claimed digits are the base-3 expansion of the cylinder start
        acc = F(0)
        for i, d in enumerate(doc["digits"], start=1):
            acc += F(d, 3 ** i)
        assert acc <= lo < acc + F(1, 3 ** len(doc["digits"]))

    def test_interval_support_has_no_gap_digits(self, tmp_path):
        doc = json.loads(open(bundled_spec_path("cantor_triple.json")).read())
        doc["support"] = "interval"
        doc["measure"] = {"decay": {"C": "2", "gamma": "1", "rho0": "1"}}
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(doc))
        code = main(["construct", "--spec", str(p), "--out", str(tmp_path)])
        assert code == 0  # binary digits are legitimate too
        out = json.loads((tmp_path / "construct.json").read_text())
        assert out["base"] == 2
