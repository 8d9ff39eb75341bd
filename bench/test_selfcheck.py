"""Smoke checks of the benchmark harness itself.

    python3 -m pytest bench/test_selfcheck.py

Short games only: these check that the harness notices wrong output and
failed operations, not how fast anything is.
"""

import json
import time

import pytest

import probe
import run as bench
import spans


@pytest.fixture(scope="module")
def pkg():
    return bench.load_package()


def play_op(pkg, rounds=3):
    return bench.Op("play_%d" % rounds, "game",
                    ["play", "--spec", bench.spec(pkg, "cantor_lacunary.json"),
                     "--rounds", str(rounds)])


def test_flipped_byte_in_golden_artifact_is_caught(pkg, tmp_path):
    op = play_op(pkg)
    first = bench.run_op(pkg, op, tmp_path / "first")
    assert first.error is None and set(first.hashes) == {
        "transcript.jsonl", "certificates.json"}
    golden = {op.name: dict(first.hashes)}

    again = bench.run_op(pkg, op, tmp_path / "again")
    bench.Lock(golden).check(again)
    assert again.error is None

    path = tmp_path / "again" / "transcript.jsonl"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))
    flipped = bench.Result(op.name, hashes=bench.hash_dir(tmp_path / "again"))
    lock = bench.Lock(golden)
    lock.first[op.name] = flipped.hashes     # same as an earlier pass
    lock.check(flipped)
    assert flipped.wrong and "golden" in flipped.error


def test_forced_failure_raises_failed_ratio(pkg, tmp_path):
    good = play_op(pkg)
    made = bench.run_op(pkg, good, tmp_path / "made")
    text = (tmp_path / "made" / "transcript.jsonl").read_text()
    lines = text.splitlines(keepends=True)
    move = json.loads(lines[3])
    move["radius"] = "1/2"                      # breaks the classical ratio
    lines[3] = json.dumps(move, sort_keys=True, separators=(",", ":")) + "\n"
    bad_path = tmp_path / "tampered.jsonl"
    bad_path.write_text("".join(lines))
    support, params = bench.parse(pkg, "cantor_lacunary.json")
    replay = bench.Op("replay_tampered", "replay", path=bad_path,
                      game=(support, params))
    ok = bench.Op("replay_made", "replay",
                  path=tmp_path / "made" / "transcript.jsonl",
                  game=(support, params))
    assert made.error is None

    clean = bench.run_pass(pkg, [good, ok], tmp_path / "p1", bench.Lock(None))
    assert bench.failures([clean]) == (2, 0)
    forced = bench.run_pass(pkg, [good, ok, replay], tmp_path / "p2",
                            bench.Lock(None))
    assert bench.failures([forced]) == (3, 1)
    error = forced.op("replay_tampered").error
    assert error.startswith("IllegalMove at move 3 by alice")


def test_traced_self_times_add_up_to_the_pass(pkg, tmp_path):
    wl = bench.PlayWorkload("tiny", "cantor_lacunary.json", (2, 5), False)
    tracer = spans.Tracer()
    tracer.install(spans.patch_targets(pkg))
    try:
        p = bench.run_pass(pkg, [play_op(pkg, 2), play_op(pkg, 5)], tmp_path,
                           bench.Lock(None), tracer)
    finally:
        tracer.restore()
    layers = bench.per_layer(wl, tracer, [p], p.seconds, [])
    self_total = sum(v for k, (v, _) in layers.items() if k.endswith("_self_s"))
    assert self_total + layers["trace.unattributed_s"][0] == pytest.approx(
        layers["trace.run_s"][0], rel=1e-9)
    assert layers["cli.main_calls"][0] == 2
    assert layers["fractal.verify_point_calls"][0] == (2 * (2 * 2 + 1)
                                                        + 2 * (2 * 5 + 1))
    assert layers["rounds_slope"][0] > 0
    assert pkg.cli.main.__name__ == "main"       # patches were undone


def test_sampler_takes_its_probes_out_of_the_time():
    with probe.Sampler(interval=0.05) as clock:
        end = time.perf_counter() + 0.4
        while time.perf_counter() < end:
            pass
    assert len(clock.samples) >= 2 + 3          # around, and inside
    assert clock.spent > 0
    assert clock.seconds == pytest.approx(0.4 - clock.spent, abs=0.02)
    assert clock.slowness > 0
