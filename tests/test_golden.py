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
BENCH_GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                            "golden.json")
RUNS = [("play", "cantor_lacunary.json"), ("play", "cantor_ba.json"),
        ("play", "cantor_triple.json"), ("audit", "cantor_audit.json"),
        ("audit", "lebesgue_audit.json")]
# one run hashed twice: a key of golden_hashes.json and a (workload,
# operation) of bench/golden.json, or two operations of bench/golden.json
SAME_RUNS = [
    (("tests", "play cantor_triple.json"), ("bench", "triple_long", "play_100")),
    (("tests", "audit cantor_audit.json"), ("bench", "check", "audit_cantor")),
    (("tests", "audit lebesgue_audit.json"),
     ("bench", "check", "audit_lebesgue")),
    (("bench", "check", "setup.lacunary_100"),
     ("bench", "lacunary_greedy", "play_100")),
    (("bench", "check", "setup.lacunary_400"),
     ("bench", "lacunary_greedy", "play_400")),
    (("bench", "check", "setup.triple_200"), ("bench", "triple_long", "play_200")),
]


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


@pytest.mark.parametrize("one,other", SAME_RUNS,
                         ids=["/".join(one[1:]) for one, _ in SAME_RUNS])
def test_golden_files_agree(one, other):
    # an output change regenerates both files, or this fails
    docs = {}
    for name, path in (("tests", GOLDEN), ("bench", BENCH_GOLDEN)):
        with open(path, encoding="utf-8") as fh:
            docs[name] = json.load(fh)

    def hashes(where):
        doc = docs[where[0]]
        for key in where[1:]:
            doc = doc[key]
        return doc
    assert hashes(one) == hashes(other)


if __name__ == "__main__":
    import tempfile
    doc = {}
    for command, spec in RUNS:
        with tempfile.TemporaryDirectory() as out:
            doc[f"{command} {spec}"] = run_hashes(command, spec, out)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
