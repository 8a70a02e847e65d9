"""A fixed block of pure-Python reference work, run interleaved with every op.

Raw wall-clock seconds on a shared virtual machine drift by more than the
gains a change to the package will claim: the speed of this interpreter
moved by up to 2x between consecutive half-seconds here, with no steal
time and with CPU time tracking wall time. The benchmark therefore also
reports each op's time in units of a fixed reference block.

The block is not timed before and after the op, since the speed changes
faster than an op lasts; ``Meter`` runs it from a SIGALRM handler every
INTERVAL seconds while the op runs. The op's time between two blocks is
divided by the time of the block that ends that stretch, and the
quotients add up to the op's cost in reference units. Handler time is
taken out of the op's wall time. On a 650 ms repair op repeated in one
process, this gave a spread (interquartile range over median) of 2-5%,
against 11-39% for raw time and 14-19% for blocks run next to the op.

The block mixes integer arithmetic, tuple indexing and a short list
comprehension over a working set of a few hundred bytes, so its own time
reflects the interpreter's speed, not the cache state the op leaves. It
never imports ``rankmetric`` and must not change, or ``op_cost_ref``
stops being comparable across commits.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL = 0.01
# The reference speed: one block taken as 0.5 ms, a round figure within the block's
# median times seen here (about 0.45-0.7 ms). End-to-end times are reported as
# reference blocks times this, so they read as seconds on a machine running at that
# speed, whatever this machine's speed during the run.
BLOCK_S = 0.0005
_TABLE = tuple(range(64))
_ROUNDS = 2000


def reference_block() -> int:
    """One fixed unit of work (about 0.4 ms here); returns a checksum."""
    table = _TABLE
    x = 1
    acc = 0
    row = list(range(16))
    for i in range(_ROUNDS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc += table[x & 63]
        if i % 50 == 0:
            row = [table[(v + x) & 63] for v in row]
    return acc + sum(row)


_EXPECTED = reference_block()


class Meter:
    """Interleaves reference blocks with the code between ``start`` and ``stop``."""

    def __init__(self):
        self.blocks: list[float] = []
        self.busy = False

    def _block(self) -> float:
        t0 = time.perf_counter()
        got = reference_block()
        t1 = time.perf_counter()
        if got != _EXPECTED:
            raise RuntimeError("reference block gave a different result")
        self.spent += t1 - t0
        self.units += (t0 - self.last) / (t1 - t0)
        self.blocks.append(t1 - t0)
        self.last = t1
        return t1

    def _tick(self, signum, frame):
        if not self.busy:
            self.busy = True
            self._block()
            self.busy = False

    def start(self):
        self.spent = 0.0
        self.units = 0.0
        self.blocks = []
        self.t0 = self.last = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> tuple[float, float]:
        """(op seconds without the blocks, op cost in reference blocks)."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        # one closing block covers the stretch since the last tick
        t1 = self._block()
        return t1 - self.t0 - self.spent, self.units

    def median_block(self) -> float:
        return statistics.median(self.blocks)
