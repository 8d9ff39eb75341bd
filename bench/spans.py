"""Spans around schmidtgame's public calls, for the benchmark's traced run.

A `Tracer` replaces a name with a wrapper that records one span per call:
[name, start, end, parent], where parent is the index of the span that was
open when the call began (-1 at the top).  Spans stay in memory; `dump`
writes them out when the run ends.  A span's self time is its duration
minus the durations of its direct children.

A name must be patched where its caller looks it up: `alice` and `bob`
import `find_point_in_gap` by name and `cli` imports `verify`, so each of
those module bindings gets its own wrapper.
"""

import json
import time
from collections import defaultdict


def _letters(counts, args, result):
    counts["fractal.verify_point_letters"] += len(args[2])


def _locate_miss(counts, args, result):
    counts["fractal.locate_misses"] += result is None


def _gap_miss(counts, args, result):
    counts["fractal.find_point_in_gap_misses"] += result is None


def _returned(counts, args, result):
    counts["fractal.cylinders_meeting_returned"] += len(result)


def _terms(counts, args, result):
    counts["certify.terms_checked"] += result.checked


# counters recorded beside the spans, by the wrapper of the named span
COUNTERS = ("fractal.verify_point_letters", "fractal.locate_misses",
            "fractal.find_point_in_gap_misses",
            "fractal.cylinders_meeting_returned", "certify.terms_checked")


def patch_targets(pkg):
    """(owner, attribute, span name, counter) for every traced call site."""
    cli, game, fractal = pkg.cli, pkg.game, pkg.fractal
    alice, bob, certify, numerics = pkg.alice, pkg.bob, pkg.certify, pkg.numerics
    support, measure = fractal.FractalSupport, fractal.FractalMeasure
    return [
        (cli, "main", "cli.main", None),
        (cli, "build_game", "cli.build_game", None),
        (cli, "run_game", "game.run_game", None),
        (game, "run_game", "game.run_game", None),
        (cli, "validate_transcript", "game.validate", None),
        (game, "validate_transcript", "game.validate", None),
        (game, "is_legal", "game.is_legal", None),
        (game.Transcript, "to_jsonl", "game.to_jsonl", None),
        (game, "transcript_from_jsonl", "game.transcript_from_jsonl", None),
        (support, "verify_point", "fractal.verify_point", _letters),
        (support, "locate", "fractal.locate", _locate_miss),
        (support, "cylinders_meeting", "fractal.cylinders_meeting", _returned),
        (fractal, "find_point_in_gap", "fractal.find_point_in_gap", _gap_miss),
        (alice, "find_point_in_gap", "fractal.find_point_in_gap", _gap_miss),
        (bob, "find_point_in_gap", "fractal.find_point_in_gap", _gap_miss),
        (measure, "interval_mass", "fractal.interval_mass", None),
        (alice.LacunaryStrategy, "move", "alice.move", None),
        (alice.BAStrategy, "move", "alice.move", None),
        (alice.InterleaveStrategy, "move", "alice.move", None),
        (alice.ExcludeCountable, "move", "alice.move", None),
        (alice, "avoidance_step", "alice.avoidance_step", None),
        (numerics, "fractions_in_interval", "numerics.fractions_in_interval", None),
        (alice, "fractions_in_interval", "numerics.fractions_in_interval", None),
        (certify, "fractions_in_interval", "numerics.fractions_in_interval", None),
        (bob.GreedyBob, "move", "bob.move", None),
        (bob.RandomBob, "move", "bob.move", None),
        (bob.KeepCenterBob, "move", "bob.move", None),
        (certify, "verify", "certify.verify", _terms),
        (cli, "verify", "certify.verify", _terms),
    ]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []
        self.names = set()

    def _wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets):
        for owner, attr, name, count in targets:
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, original, count))
            self.names.add(name)
            self._patches.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def summarize(spans, lo, hi):
    """Per-name totals over spans[lo:hi], which must hold whole call trees.

    Returns ({name: {"s", "self_s", "calls"}}, covered seconds).  "s" counts
    only the outermost span of a name, so nested calls are not counted
    twice; "self_s" sums every span's self time; covered is the time the
    top-level spans take, which equals the sum of all self times.
    """
    child = [0.0] * (hi - lo)
    for i in range(lo, hi):
        parent = spans[i][3]
        if parent >= 0:
            child[parent - lo] += spans[i][2] - spans[i][1]
    out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    covered = 0.0
    for i in range(lo, hi):
        name, start, end, parent = spans[i]
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += end - start - child[i - lo]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += end - start
        if parent < 0:
            covered += end - start
    return dict(out), covered
