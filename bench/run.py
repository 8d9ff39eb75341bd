"""End-to-end benchmark of schmidtgame, with a traced per-layer split.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
`src/`.  One process, one operation in flight (a closed loop with one
client).  Each operation is a `schmidtgame` CLI command run in-process, or
a reload of a stored transcript through `transcript_from_jsonl` plus
`validate_transcript`.  A pass runs the workload's operation list once;
passes repeat while another one fits in `--seconds` (at least one runs).

Workloads:

  triple_long      play cantor_triple.json at 100 and 200 rounds against
                   the spec's seeded random Bob, then construct --digits 20
                   with Bob's seed set by `--seed`.  Long cylinder words
                   (past 512 letters at 200 rounds); random Bob's cylinder
                   search; BA.  The scaling case.  The 400-round game takes
                   22-40 s on a 2-vCPU host, too long to time often enough
                   in one run.
  lacunary_greedy  play cantor_lacunary.json at 100 and 400 rounds against
                   white-box greedy Bob.  Short words; no cylinder search
                   or BA, so a membership-kernel change should leave it
                   unchanged.
  check            the reader's side: reload and re-referee transcripts
                   that `play` wrote during set-up (lacunary at 100 and 400
                   rounds, triple at 200 rounds), re-verify their
                   certificate bundles with `certify`, and run both bundled
                   audits.  The triple transcript has centers past
                   `locate`'s 512-letter cap; its replay fails today and is
                   counted as a failed operation, not left out.

`--seed` becomes Bob's seed only in `construct`.  Random Bob's first moves
pick one of many game trajectories: at 400 rounds their costs differ by a
quarter and their peak memory by a factor of two, more than one game per
run can average out.  So the `play` games keep the bundled specs' own
seeds, and only construct's 100-round game, a few percent of the pass,
varies with `--seed`.

Every artifact an operation writes is hashed with sha256.  The hashes must
repeat across passes and set-ups, and at the default seed match
`bench/golden.json` (rewrite it with `--write-golden` when output changes
on purpose).  A hash mismatch, a replay that does not re-serialize
byte-for-byte, a certificate FAIL, a nonzero exit code or an exception
fails the operation, with its reason printed.  The first three also make
`correct` false.

Host speed: a small shared host changes speed by up to 1.8x, from second
to second and for minutes at a time.  So every operation and set-up runs
under a `probe.Sampler`, which times a fixed exact-arithmetic computation
outside the program before, after and every 0.3 s during it; the
operation's seconds, less the probes', are divided by the host's mean
slowness over it (see probe.py).  The time metrics are therefore seconds
at the probe's reference speed; the raw seconds (`raw.*`) and the host's
slowness are printed beside them.  Traced passes probe only before and
after each operation, so that no probe lands inside a span.

End-to-end metrics, each a median over the run's passes:

  setup_s       s        import time (median of fresh interpreters) plus
                         the median of several set-ups in this process
                         (spec parsing; check also writes its transcripts)
  run_s         s        one pass over the operation list
  game_s        s        one game to a verified result: `play` (plan, play,
                         validate, write, certify) at 200 rounds on
                         triple_long and 400 on lacunary_greedy, or for
                         check the reload, re-referee and `certify` of the
                         400-round lacunary transcript
  moves_per_s   moves/s  refereed (play) or replayed (check) moves per second
  peak_rss_mb   MB       peak resident memory of the process

replay_s, verify_s and audit_s (check only), failed_ratio and rounds_slope
(the log-log slope of game time, or replay time, over the workload's two
round counts) are printed as well, but stay out of the JSON line of
`--trace 0`; rounds_slope is in that of `--trace 1`.

The last stdout line is one JSON object: with `--trace 0` the end-to-end
metrics, with `--trace 1` the per-layer metrics of a separate traced run
(one untraced reference pass, then traced passes; see spans.py).
Human-readable lines come before it.  Reports and spans go to
`bench/_out/`.  The harness checks itself with
`python3 -m pytest bench/test_selfcheck.py`.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import probe
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 2026
LONG_WORD = 512  # `locate`'s max_depth: longer words cannot be replayed
MODULES = ("cli", "game", "fractal", "alice", "bob", "certify", "numerics")
IMPORT_REPS = 9
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import schmidtgame.cli; "
                "print(time.perf_counter() - start)")
# ROADMAP Baseline rows for cantor_triple.json, one sample each; context only
BASELINE_TRIPLE = {100: 1.27, 200: 4.27, 400: 22.33}


# ---------------------------------------------------------------------------
# the package under test


def import_seconds():
    """Median time to import the package in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPS):
        done = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE,
                               str(SRC)], capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            raise RuntimeError("importing schmidtgame failed: "
                               + done.stderr.strip()[-500:])
        times.append(float(done.stdout))
    return statistics.median(times)


def load_package():
    """Import schmidtgame from this checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = SimpleNamespace(**{m: importlib.import_module("schmidtgame." + m)
                             for m in MODULES})
    where = Path(pkg.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError("schmidtgame came from %s, not %s" % (where, SRC))
    pkg.played = []
    run_game = pkg.cli.run_game

    def keep_transcript(*args, **kwargs):
        transcript = run_game(*args, **kwargs)
        pkg.played.append(transcript)
        return transcript

    pkg.cli.run_game = keep_transcript
    return pkg


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    name: str
    group: str                 # game, replay, verify or audit
    argv: list = None          # CLI command; --out is added when it writes
    path: Path = None          # replay: the transcript file
    game: tuple = None         # replay: (support, params)


@dataclass
class Result:
    name: str
    seconds: float = 0.0
    moves: int = 0
    hashes: dict = field(default_factory=dict)
    error: str = None
    wrong: bool = False        # an output check failed, not just the run
    words: list = field(default_factory=list)   # (word length, center bits)
    slowness: float = 1.0      # the host's, over this operation

    @property
    def norm(self):
        """Seconds at the probe's reference host speed."""
        return self.seconds / self.slowness


def hash_dir(path):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir())}


def _cli(pkg, op, out):
    argv = list(op.argv)
    if op.argv[0] != "certify":
        argv += ["--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = pkg.cli.main(argv)
        except SystemExit as exc:      # argparse rejects bad arguments
            rc = exc.code
    return rc, stdout.getvalue(), stderr.getvalue()


def _replay(pkg, op):
    text = op.path.read_text(encoding="utf-8")
    support, params = op.game
    transcript = pkg.game.transcript_from_jsonl(text, params)
    try:
        pkg.game.validate_transcript(transcript, support)
    except pkg.game.IllegalMove as exc:
        index = next((i for i, (_, ball) in enumerate(transcript.moves)
                      if ball is exc.ball), None)
        reason = re.sub(r"\d{16,}", lambda m: "<%d digits>" % len(m.group()),
                        exc.reason)
        exc.args = ("at move %s by %s: %s" % (index, exc.player, reason),)
        raise
    same = transcript.to_jsonl() == text
    return len(transcript.moves), same


def run_op(pkg, op, out, clock=None):
    """Run one operation; its time covers only the program's own work.

    `clock` (a probe.Sampler by default) times it and measures the host
    meanwhile.
    """
    res = Result(op.name)
    clock = clock or probe.Sampler()
    pkg.played.clear()
    gc.collect()     # start each operation from the same collector state
    try:
        with clock:
            if op.path is None:
                rc, stdout, stderr = _cli(pkg, op, out)
            else:
                res.moves, same = _replay(pkg, op)
    except Exception as exc:   # a failed operation is counted, not fatal
        res.error = "%s %s" % (type(exc).__name__, exc)
        res.moves = 0
    res.seconds, res.slowness = clock.seconds, clock.slowness
    if res.error:
        return res
    if op.path is not None:
        if not same:
            res.error, res.wrong = "replay does not re-serialize byte-for-byte", True
        return res
    failed = re.findall(r"^certificate \S+: FAIL.*$", stdout, re.M)
    if failed:
        res.error, res.wrong = "; ".join(failed), True
    elif rc != 0:
        res.error = "exit code %s: %s" % (rc, stderr.strip())
    if out.is_dir():
        res.hashes = hash_dir(out)
    for transcript in pkg.played:
        res.moves += len(transcript.moves)
        res.words += [(len(ball.word), max(ball.center.numerator.bit_length(),
                                           ball.center.denominator.bit_length()))
                      for _, ball in transcript.moves]
    pkg.played.clear()
    return res


class Lock:
    """Artifact hashes must repeat across passes and match the golden file."""

    def __init__(self, golden):
        self.golden = golden
        self.first = {}

    def check(self, res):
        if not res.hashes or res.error:
            return
        want = self.first.setdefault(res.name, res.hashes)
        if res.hashes != want:
            res.error, res.wrong = "hashes differ from the first pass", True
        elif self.golden is not None and res.hashes != self.golden.get(res.name):
            res.error, res.wrong = "hashes differ from bench/golden.json", True


# ---------------------------------------------------------------------------
# workloads


def spec(pkg, name):
    return pkg.cli.bundled_spec_path(name)


def play_ops(pkg, name, rounds, construct_seed=None):
    ops = [Op("play_%d" % r, "game",
              ["play", "--spec", spec(pkg, name), "--rounds", str(r)])
           for r in rounds]
    if construct_seed is not None:
        ops.append(Op("construct_20", "game",
                      ["construct", "--spec", spec(pkg, name), "--digits", "20",
                       "--seed", str(construct_seed)]))
    return ops


def parse(pkg, name):
    """(support, params) of a bundled spec, through the CLI's own codec."""
    doc = pkg.cli.load_document(spec(pkg, name))
    support, params = pkg.cli.build_game(
        doc, SimpleNamespace(rounds=None, seed=None))[:2]
    return support, params


@dataclass
class Workload:
    why: str
    game_ops: tuple            # their summed time is game_s
    slope: tuple               # (op at fewer rounds, op at more, round ratio)
    setup_reps: int            # set-ups per run; setup_s takes their median

    def setup(self, pkg, seed, work, lock):
        """Parse the specs; return (operations, set-up results)."""
        raise NotImplementedError


class PlayWorkload(Workload):
    def __init__(self, why, spec_name, rounds, construct):
        small, big = rounds
        super().__init__(why, ("play_%d" % big,),
                         ("play_%d" % small, "play_%d" % big, big / small), 7)
        self.spec_name, self.rounds = spec_name, rounds
        self.construct = construct

    def setup(self, pkg, seed, work, lock):
        parse(pkg, self.spec_name)
        return play_ops(pkg, self.spec_name, self.rounds,
                        seed if self.construct else None), []


class CheckWorkload(Workload):
    STORED = (("lacunary", "cantor_lacunary.json", 100),
              ("lacunary", "cantor_lacunary.json", 400),
              ("triple", "cantor_triple.json", 200))

    def setup(self, pkg, seed, work, lock):
        games = {short: parse(pkg, name) for short, name, _ in self.STORED}
        made, replays, certs = [], [], []
        for short, name, rounds in self.STORED:
            (op,) = play_ops(pkg, name, (rounds,))
            op.name = "setup.%s_%d" % (short, rounds)
            out = work / op.name
            # set-up is probed as a whole, by the caller
            res = run_op(pkg, op, out, probe.Stopwatch())
            lock.check(res)
            made.append(res)
            tag = "%s_%d" % (short, rounds)
            replays.append(Op("replay_" + tag, "replay",
                              path=out / "transcript.jsonl", game=games[short]))
            certs.append(Op("certify_" + tag, "verify",
                            ["certify", "--spec", str(out / "certificates.json")]))
        audits = [Op("audit_" + a, "audit",
                     ["audit", "--spec", spec(pkg, a + "_audit.json")])
                  for a in ("cantor", "lebesgue")]
        return replays + certs + audits, made


WORKLOADS = {
    "triple_long": PlayWorkload(
        "long cylinder words, random Bob's cylinder search and BA; the "
        "scaling case", "cantor_triple.json", (100, 200), construct=True),
    "lacunary_greedy": PlayWorkload(
        "short words, greedy Bob; bypasses the membership kernel and the "
        "cylinder search", "cantor_lacunary.json", (100, 400),
        construct=False),
    "check": CheckWorkload(
        "reload, re-referee, re-certify and audit; replays go through "
        "locate, including centers past its 512-letter cap",
        ("replay_lacunary_400", "certify_lacunary_400"),
        ("replay_lacunary_100", "replay_lacunary_400", 4), 2),
}


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Pass:
    seconds: float             # raw seconds of the operations
    results: list
    traced: bool = False
    spans: tuple = (0, 0)
    counts: dict = None

    @property
    def norm(self):
        """The operations' seconds at the reference host speed."""
        return sum(r.norm for r in self.results)

    def op(self, name):
        return next(r for r in self.results if r.name == name)


def run_pass(pkg, ops, work, lock, tracer=None):
    """Run the operations once, probing the host around and during each."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if tracer is not None:
        tracer.counts.clear()
        first = len(tracer.spans)
    # no probe may land inside a traced span
    clock = probe.Sampler(None if tracer else probe.INTERVAL)
    results = []
    for op in ops:
        res = run_op(pkg, op, work / op.name, clock)
        lock.check(res)
        results.append(res)
    seconds = sum(r.seconds for r in results)
    shutil.rmtree(work, ignore_errors=True)
    if tracer is None:
        return Pass(seconds, results)
    return Pass(seconds, results, True, (first, len(tracer.spans)),
                dict(tracer.counts))


def failures(passes):
    """(attempted, failed) operations over the given passes."""
    results = [r for p in passes for r in p.results]
    return len(results), sum(1 for r in results if r.error)


def rounds_slope(wl, passes):
    """Median over passes of the log-log slope of time against rounds."""
    small, big, ratio = wl.slope
    return (statistics.median(math.log(p.op(big).norm / p.op(small).norm)
                              / math.log(ratio) for p in passes), "1")


def end_to_end(wl, ops, passes, setup_s):
    med = statistics.median
    groups = {op.name: op.group for op in ops}
    m = {
        "setup_s": (setup_s, "s"),
        "run_s": (med(p.norm for p in passes), "s"),
        "game_s": (med(sum(p.op(n).norm for n in wl.game_ops)
                       for p in passes), "s"),
        "moves_per_s": (med(sum(r.moves for r in p.results) /
                            sum(r.norm for r in p.results
                                if groups[r.name] in ("game", "replay"))
                            for p in passes), "moves/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    # check-only phases and the failure share stay out of the JSON line,
    # whose metrics must be defined and nonzero on every workload.  So does
    # rounds_slope: a ratio of two timings, it spread 12-18% of its median
    # over five seeds on check, and trimming a fixed cost per game raises
    # it though every game got faster; the traced run reports it.
    extra = {"rounds_slope": rounds_slope(wl, passes)}
    for group, key in (("replay", "replay_s"), ("verify", "verify_s"),
                       ("audit", "audit_s")):
        if group in groups.values():
            extra[key] = (med(sum(r.norm for r in p.results
                                  if groups[r.name] == group)
                              for p in passes), "s")
    attempted, failed = failures(passes)
    extra["failed_ratio"] = (failed / attempted, "1")
    # what a stopwatch read, and how slow the host ran meanwhile
    extra["raw.run_s"] = (med(p.seconds for p in passes), "s")
    extra["raw.game_s"] = (med(sum(p.op(n).seconds for n in wl.game_ops)
                               for p in passes), "s")
    extra["host.slowness"] = (med(r.slowness for p in passes
                                  for r in p.results), "1")
    return m, extra


def input_properties(words):
    lengths = [n for n, _ in words] or [0]
    return {
        "fractal.word_len_max": (max(lengths), "letters"),
        "input.long_word_share": (sum(n > LONG_WORD for n in lengths)
                                  / len(lengths), "1"),
        "input.center_bits_max": (max((b for _, b in words), default=0), "bits"),
    }


def per_layer(wl, tracer, traced, untraced_s, words):
    """Breakdown of the traced pass with the median duration.

    Times are raw seconds, so that self times and the unattributed time add
    up to trace.run_s; the overhead compares reference-speed seconds.
    """
    p = sorted(traced, key=lambda q: q.seconds)[(len(traced) - 1) // 2]
    totals, covered = spans.summarize(tracer.spans, *p.spans)
    m = {}
    for name in sorted(tracer.names):
        t = totals.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        m[name + "_s"] = (t["s"], "s")
        m[name + "_self_s"] = (t["self_s"], "s")
        m[name + "_calls"] = (t["calls"], "count")
    for name in spans.COUNTERS:
        m[name] = (p.counts.get(name, 0), "count")
    m.update(input_properties(words))
    m["rounds_slope"] = rounds_slope(wl, traced)
    m["trace.run_s"] = (p.seconds, "s")
    m["trace.unattributed_s"] = (p.seconds - covered, "s")
    m["trace.untraced_run_s"] = (untraced_s, "s")
    m["trace.overhead_s"] = (p.norm - untraced_s, "s")
    m["trace.spans"] = (p.spans[1] - p.spans[0], "count")
    return m


# ---------------------------------------------------------------------------
# report


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def header(args):
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "cpu": cpu_model(), "commit": git_commit()}


def fmt(value):
    return "%.6g" % value if isinstance(value, float) else str(value)


def print_table(title, metrics, notes=None):
    print("%s:" % title)
    for name, (value, unit) in metrics.items():
        note = (notes or {}).get(name, "")
        print("  %-40s %14s %-8s %s" % (name, fmt(value), unit, note))


# ---------------------------------------------------------------------------
# entry point


def probed(fn, *args):
    """fn(*args), and the probe.Sampler that timed it."""
    with probe.Sampler() as clock:
        result = fn(*args)
    return result, clock


def setup(args, wl, golden, work):
    """Time the import, then set up wl.setup_reps times; the last is used.

    The import is timed in fresh interpreters: re-imported modules stay
    alive in typing's caches and would inflate this process's memory.
    Both are timed at the reference host speed.
    """
    import_s, clock = probed(import_seconds)
    import_s /= clock.slowness
    pkg = load_package()
    times, made = [], []
    for rep in range(wl.setup_reps):
        (ops, again), clock = probed(
            wl.setup, pkg, args.seed, work / ("setup%d" % rep), Lock(golden))
        times.append(clock.seconds / clock.slowness)
        for a, b in zip(made, again):
            if a.hashes != b.hashes and not b.error:
                b.error, b.wrong = "hashes differ between set-ups", True
        made = again
    bad = ["%s: %s" % (r.name, r.error) for r in made if r.error]
    if bad:
        raise RuntimeError("set-up failed: " + "; ".join(bad))
    return pkg, ops, made, import_s, times


def measure(args, pkg, ops, lock, work):
    """Untraced passes; with --trace 1, one untraced pass then traced ones."""
    passes, traced, tracer = [], [], None
    start = time.perf_counter()
    while True:
        if args.trace and passes and tracer is None:
            tracer = spans.Tracer()
            tracer.install(spans.patch_targets(pkg))
        if tracer is None:
            passes.append(run_pass(pkg, ops, work, lock))
        else:
            traced.append(run_pass(pkg, ops, work, lock, tracer))
        done = passes + traced
        elapsed = time.perf_counter() - start
        if (bool(traced) == bool(args.trace)
                and elapsed * (1 + 1 / len(done)) > args.seconds):
            break
    if tracer is not None:
        tracer.restore()
    return passes, traced, tracer


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-golden", action="store_true",
                   help="store this run's artifact hashes as the golden "
                        "ones (default seed only)")
    args = p.parse_args(argv)
    if args.write_golden and args.seed != DEFAULT_SEED:
        p.error("--write-golden needs the default seed %d" % DEFAULT_SEED)
    if not (SRC / "schmidtgame").is_dir():
        print("error: no schmidtgame sources under %s" % SRC, file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    all_golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden = None
    if args.seed == DEFAULT_SEED and not args.write_golden:
        golden = all_golden.get(args.workload)
        if golden is None:
            print("error: bench/golden.json has no %s entry" % args.workload,
                  file=sys.stderr)
            return 2
    work = HERE / "_work" / ("%s-%d" % (args.workload, os.getpid()))
    try:
        pkg, ops, made, import_s, setup_times = setup(args, wl, golden, work)
        passes, traced, tracer = measure(args, pkg, ops, Lock(golden),
                                         work / "pass")
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_passes = passes + traced
    attempted, failed = failures(all_passes)
    results = [r for q in all_passes for r in q.results]
    correct = not any(r.wrong for r in results + made)
    # the inputs: transcripts the passes play, or those set-up made to replay
    words = [w for r in (made or all_passes[0].results) for w in r.words]
    e2e, extra = end_to_end(wl, ops, passes,
                            import_s + statistics.median(setup_times))
    head = header(args)
    print("# schmidtgame benchmark: " + json.dumps(head, sort_keys=True))
    print("# workload %s: %s" % (args.workload, wl.why))
    print("# import %.4g s (median of %d), %d set-ups (%.4g to %.4g s), %d untraced and %d "
          "traced passes, %d operations, %d failed, outputs %s"
          % (import_s, IMPORT_REPS, len(setup_times), min(setup_times), max(setup_times),
             len(passes), len(traced), attempted, failed,
             "locked" if correct else "WRONG"))
    for number, q in enumerate(all_passes, start=1):
        for r in q.results:
            if r.error:
                print("# failed: pass %d %s: %s" % (number, r.name, r.error[:300]))
    notes = {"peak_rss_mb": "whole process, set-up included"}
    if args.workload == "triple_long":
        notes["raw.game_s"] = (
            "ROADMAP Baseline, context only: " + ", ".join(
                "%d rounds %.2f s" % kv for kv in BASELINE_TRIPLE.items())
            + "; 100 rounds %.4g s here" % statistics.median(
                q.op("play_100").seconds for q in passes))
    print_table("end-to-end", {**e2e, **extra}, notes)
    print_table("input properties", input_properties(words))
    layers = {}
    if tracer is not None:
        layers = per_layer(wl, tracer, traced, e2e["run_s"][0], words)
        print_table("per-layer (traced pass of median length)", layers)
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    report = {"header": head, "correct": correct,
              "end_to_end": {**e2e, **extra}, "per_layer": layers,
              "import_s": import_s, "setup_times": setup_times,
              "passes": [{"seconds": q.seconds, "traced": q.traced,
                          "ops": [[r.name, r.seconds, r.slowness, r.moves,
                                   r.error] for r in q.results]}
                         for q in all_passes]}
    (out_dir / ("report-%s.json" % stem)).write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.dump(out_dir / ("spans-%s.json" % stem))
    if args.write_golden:
        all_golden[args.workload] = {
            r.name: r.hashes for r in made + all_passes[0].results if r.hashes}
        GOLDEN.write_text(json.dumps(all_golden, indent=1, sort_keys=True) + "\n")
        print("# wrote %s" % GOLDEN)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in (layers if args.trace else e2e).items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
