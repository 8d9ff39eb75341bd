"""Behaviour lock: the bundled specs' output files, byte for byte.

`play` runs every bundled play spec at its default rounds and `audit` both
bundled audit specs; the sha256 of every file they write must match
`golden_hashes.json`.  A change that alters output on purpose regenerates
that file with `python tests/test_golden.py` and says why.
"""

import hashlib
import json
import os

import pytest

from schmidtgame.cli import bundled_spec_path, main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_hashes.json")
RUNS = [("play", "cantor_lacunary.json"), ("play", "cantor_ba.json"),
        ("play", "cantor_triple.json"), ("audit", "cantor_audit.json"),
        ("audit", "lebesgue_audit.json")]


def run_hashes(command, spec, out):
    assert main([command, "--spec", bundled_spec_path(spec),
                 "--out", str(out)]) == 0
    return {name: hashlib.sha256(open(os.path.join(out, name), "rb").read())
            .hexdigest() for name in sorted(os.listdir(out))}


@pytest.mark.parametrize("command,spec", RUNS)
def test_output_hashes(command, spec, tmp_path, capsys):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert run_hashes(command, spec, tmp_path) == golden[f"{command} {spec}"]


if __name__ == "__main__":
    import tempfile
    doc = {}
    for command, spec in RUNS:
        with tempfile.TemporaryDirectory() as out:
            doc[f"{command} {spec}"] = run_hashes(command, spec, out)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
