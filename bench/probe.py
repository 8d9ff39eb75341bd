"""A fixed reference computation that measures how fast the host runs now.

Small shared hosts change speed from second to second and for minutes at a
time.  On a 2-vCPU Xeon VM with Python 3.11.7 the same 100-round game took
1.0 s in one minute and 1.8 s in the next, so medians of raw seconds from
runs a few minutes apart spread by 20-50% of their value.

`probe()` times a fixed exact-arithmetic computation shaped like the
program's hot path: it maps the Cantor set's hull through 600-letter words
of the middle-thirds IFS in `Fraction`s, as `FractalSupport.point` does for
a long cylinder word.  It does not call `schmidtgame`, so no change to the
program moves it.  A `Sampler` probes before and after an operation and,
from a SIGALRM handler, every `INTERVAL` seconds while it runs; the mean
probe time over `REFERENCE_S` is the host's slowness over the operation.
Dividing the operation's seconds, less the handler's, by that slowness gives
its time on the host at reference speed.  Over a five-minute trace, that
held a 4-7 s game within 8-9% (quartile spread over median, one game
each) while its raw time spread 18-33%; probing only before and after
each game left 20-26%.
"""

import gc
import random
import signal
import time
from fractions import Fraction

_rng = random.Random(20260917)
WORDS = tuple(tuple(_rng.randrange(2) for _ in range(600)) for _ in range(16))
WARM_UP = WORDS[0][:100]
MAPS = ((Fraction(1, 3), Fraction(0)), (Fraction(1, 3), Fraction(2, 3)))
# seconds per word: about what probe() takes on the host above in a fast minute
REFERENCE_S = 0.06 / len(WORDS)
INTERVAL = 0.3           # seconds between probes inside an operation
TICK_WORDS = 3           # words one probe inside an operation maps


def _point(word):
    r, a = Fraction(1), Fraction(0)
    for i in word:
        mr, ma = MAPS[i]
        r, a = r * mr, r * ma + a
    return a


def probe(words=WORDS):
    """Seconds per word the reference computation takes now.

    A short untimed word first brings the code back into the caches the
    program used, so that a probe of three words and one of sixteen agree.
    The collector is off meanwhile: the probe makes no cycles, and a
    collection it set off would sweep the program's objects on its clock.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _point(WARM_UP)
        start = time.perf_counter()
        for word in words:
            _point(word)
        return (time.perf_counter() - start) / len(words)
    finally:
        if enabled:
            gc.enable()


class Stopwatch:
    """Times a block and probes nothing, for blocks inside a Sampler's.

        with Stopwatch() as clock:
            work()
        clock.seconds     # wall time of the block, less any probes in it
        clock.slowness    # the host's mean slowness (1 = reference speed)
    """

    slowness = 1.0

    def __enter__(self):
        self.spent = 0.0
        self._wall = None
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._wall = time.perf_counter() - self._start
        return False

    @property
    def seconds(self):
        return self._wall - self.spent


class Sampler(Stopwatch):
    """A Stopwatch that probes the host before, during and after the block.

    `Sampler(interval=None)` probes only before and after, never inside the
    block: use it where a probe must not land inside a traced span.  One
    Sampler may not run inside another: they share the process's timer.
    """

    def __init__(self, interval=INTERVAL):
        self.interval = interval

    def __enter__(self):
        self.samples = [probe()]
        super().__enter__()
        if self.interval:
            self._old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def _tick(self, signum, frame):
        if self._wall is not None:        # the block has ended
            return
        start = time.perf_counter()
        self.samples.append(probe(WORDS[:TICK_WORDS]))
        self.spent += time.perf_counter() - start

    def __exit__(self, *exc):
        super().__exit__(*exc)
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)
        self.samples.append(probe())
        return False

    @property
    def slowness(self):
        """Mean probe time over REFERENCE_S, each probe capped at twice the
        median: a probe the scheduler preempted for a few milliseconds would
        otherwise count that stall hundreds of times its share."""
        cap = 2 * sorted(self.samples)[len(self.samples) // 2]
        return (sum(min(s, cap) for s in self.samples) / len(self.samples)
                / REFERENCE_S)
