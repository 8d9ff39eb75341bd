import json
from fractions import Fraction as F

import pytest

from schmidtgame.bob import ReplayPlayer
from schmidtgame.cli import bundled_spec_path, main
from schmidtgame.fractal import (cantor_support, decay_from_federer_efd,
                                 efd_to_exponent, federer_to_exponent,
                                 max_alpha)
from schmidtgame.game import (GameParams, run_game, transcript_from_jsonl,
                              validate_transcript)


def write_spec(tmp_path, mutate):
    doc = json.loads(open(bundled_spec_path("cantor_lacunary.json")).read())
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
        c1, g1 = federer_to_exponent(F(1, 3), F(1, 2))
        c2, g2 = efd_to_exponent(F(1, 3), F(1, 2))
        decay = decay_from_federer_efd(c1, g1, c2, g2, F(1))
        params = GameParams(max_alpha(decay), F(1, 4))
        K = cantor_support()
        t = transcript_from_jsonl(text, params)
        validate_transcript(t)
        rounds = (len(t.moves) - 1) // 2
        replayed = run_game(K, params, ReplayPlayer(t, "alice"),
                            ReplayPlayer(t, "bob"), rounds=rounds,
                            opening=t.moves[0][1])
        assert replayed.to_jsonl() == text

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


class TestCertify:
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

    def test_max_q_flag(self, bundle_path):
        assert main(["certify", "--spec", str(bundle_path),
                     "--max-q", "1000"]) == 0


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

    def test_failing_decay_exits_1(self, tmp_path):
        doc = json.loads(open(bundled_spec_path("lebesgue_audit.json")).read())
        # C = 1/2 makes even eps = 1 fail the decay inequality
        doc["measure"]["decay"]["C"] = "1/2"
        del doc["measure"]["power_law"]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert main(["audit", "--spec", str(p), "--out", str(tmp_path)]) == 1


class TestConstruct:
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
