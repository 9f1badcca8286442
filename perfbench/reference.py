"""How fast the host runs right now, from a fixed piece of pure-Python work.

The host's speed drifts by up to 2x in stretches of seconds to tens of
minutes, and that drift moves every timing of so41inv with it. The harness
pins itself and its children to one CPU and times the reference work on
either side of every stretch of timed samples (`Scaler`); each sample is
reported scaled to a host on which the reference work takes REFERENCE_S:

    scaled = seconds * REFERENCE_S / (mean time of the nearest reference runs)

The reference work is what so41inv itself spends its time on (exact rational
sums in dicts keyed by tuples, dict building and sorting) but calls nothing
of the package, so a change to the program cannot move it. The raw, unscaled
figures are reported too.
"""
from __future__ import annotations

import os
import time
from fractions import Fraction

# About the median time of reference_work() on a 2-vCPU VM (Python 3.11.7), so
# that scaled figures read close to raw ones there.
REFERENCE_S = 0.1
# A reference run opens and closes every stretch of timed samples; a stretch
# is closed once it holds at least this much timed work.
STRETCH_S = 0.5
# The fewest reference runs that give the host's speed at a sample.
NEAREST = 4


def reference_work() -> int:
    """Kept small in memory (well under 1 MB), so that it moves neither the
    harness's nor a warm session's peak RSS."""
    total = 0
    for _ in range(20):
        acc: dict[tuple[int, ...], Fraction] = {}
        for i in range(375):
            word = tuple((i * j) % 9 for j in range(i % 6 + 2))
            acc[word] = acc.get(word, Fraction(0)) + Fraction(i % 13 - 6, 1 + i % 7)
        table = {(i, i % 97): str(i) for i in range(3000)}
        total += len(acc) + len(sorted(table.items(), key=lambda kv: kv[1]))
    return total


def pin_to_one_cpu() -> None:
    """Run this process, and every child it starts, on its lowest allowed CPU,
    so that the reference work runs where the timed work runs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Scaler:
    """Timed samples, each scaled by the reference runs nearest to it in time.

    Call `begin()` just before timing a sample and `add()` with its time just
    after; `end()` when the timed work stops for a while. A reference run
    opens and closes every stretch of timed work. The host's speed flips
    between a fast and a slow state every second or so, so a long sample
    averages over many flips and one reference run says little about it: each
    sample is scaled by the mean of the reference runs closest to its
    midpoint, taking at least NEAREST of them and as many as together last at
    least as long as the sample."""

    def __init__(self) -> None:
        self.references: list[tuple[float, float]] = []   # (midpoint, seconds)
        self.timed: list[tuple[str, float, float]] = []   # (key, midpoint, seconds)
        self._stretch = 0.0
        self._open = False

    def begin(self) -> None:
        if not self._open:
            self._reference()
            self._open, self._stretch = True, 0.0

    def add(self, key: str | None, seconds: float) -> None:
        """Record a sample that ended just now; with key None it only counts
        towards the stretch (untimed work that still gets reference runs)."""
        if key is not None:
            self.timed.append((key, time.perf_counter() - seconds / 2, seconds))
        self._stretch += seconds
        if self._stretch >= STRETCH_S:
            self.end()

    def end(self) -> None:
        if self._open:
            self._reference()
            self._open = False

    def _reference(self) -> None:
        start = time.perf_counter()
        reference_work()
        seconds = time.perf_counter() - start
        self.references.append((start + seconds / 2, seconds))

    def samples(self) -> dict[str, list[tuple[float, float]]]:
        """(scaled, raw) seconds of every sample, by key."""
        out: dict[str, list[tuple[float, float]]] = {}
        for key, mid, seconds in self.timed:
            count = total = 0.0
            for _, ref in sorted(self.references, key=lambda r: abs(r[0] - mid)):
                count, total = count + 1, total + ref
                if count >= NEAREST and total >= seconds:
                    break
            out.setdefault(key, []).append((seconds * REFERENCE_S * count / total, seconds))
        return out
