"""How fast the host runs Python right now, sampled while a child works.

On a shared VM the same operation can take 1.2-2x as long for seconds to
minutes at a time, because co-tenants take the physical core; process CPU
time slows just as much as wall time.  So each untraced child samples the
host's speed while it runs: every `PERIOD_S` of the process's CPU time a
signal handler runs one `burst`, a fixed piece of pure-Python work of the
kind kripkit does (bit masks, tuples, dicts, frozensets, small calls), and
times it.  The burst's time is taken out of whatever was running, and the
benchmark reports times scaled to the reference speed:

    reported = measured × REFERENCE_BURST_S / mean burst time

so a slow spell of the host scales the measured time and the bursts alike
and cancels out, while a change to kripkit moves only the measured time.
The burst never calls kripkit.
"""

from __future__ import annotations

import signal
import time

# One burst's time on a quiet 2-vCPU Intel Xeon VM at 2.1 GHz, Python
# 3.11.7: the speed that reported times are scaled to.
REFERENCE_BURST_S = 0.0011
PERIOD_S = 0.030
SETUP_MIN_BURSTS = 3

_MASKS = tuple((i * 2654435761) & 0xFFFF for i in range(64))


def _step(mask: int, i: int) -> int:
    return (mask >> (i & 7)) & _MASKS[i & 63]


def burst() -> int:
    """Fixed pure-Python work of about REFERENCE_BURST_S on a quiet host."""
    seen: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(1500):
        key = (i & 31, _step(i * 7, i))
        seen[key] = seen.get(key, 0) + 1
        total += bin(key[1] | i).count("1")
    base = frozenset(range(0, 96, 3))
    for i in range(120):
        total += len(base & frozenset(range(i % 40, i % 40 + 48)))
    return total + len(seen)


class Sampler:
    """Runs `burst` every PERIOD_S of process CPU time and keeps the count
    and total time of the bursts.  Times net of bursts are a clock reading
    minus `spent` over the same interval."""

    def __init__(self) -> None:
        self.count = 0
        self.spent = 0.0

    def _on_tick(self, signum, frame) -> None:
        self.run_one()

    def run_one(self) -> None:
        t0 = time.perf_counter()
        burst()
        self.spent += time.perf_counter() - t0
        self.count += 1

    def install(self) -> None:
        signal.signal(signal.SIGVTALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, PERIOD_S, PERIOD_S)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return self.count, self.spent


def mean_burst(start: tuple[int, float], end: tuple[int, float]) -> float:
    """Mean burst time between two `Sampler.mark` readings."""
    count = end[0] - start[0]
    if count <= 0:
        raise ValueError("no burst ran between the two marks")
    return (end[1] - start[1]) / count


def scale(seconds: float, burst_s: float) -> float:
    """`seconds` measured when a burst took `burst_s`, at the reference speed."""
    return seconds * REFERENCE_BURST_S / burst_s
