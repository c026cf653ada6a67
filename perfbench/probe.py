"""Speed probe for a shared machine.

The CPUs of a shared virtual machine switch between fast and slow
phases lasting seconds, and a slow phase can stretch memory-bound
Python code such as klocal's by half or more.  ``Probe.sample`` times a
fixed batch of random lookups into a dict of 400k big-int keys (tens of
MB, about the working set of the symbolic Pauli kernel), so its time
follows the speed of the CPU it runs on at that moment.  It does not
touch klocal.
"""

from __future__ import annotations

import random
import time

N_KEYS = 400_000
BATCH = 30_000


class Probe:
    """Fixed memory-bound work whose duration measures current machine speed."""

    def __init__(self) -> None:
        table: dict[tuple[int, int], complex] = {}
        x = 0x9E3779B97F4A7C15
        mask = (1 << 128) - 1
        for _ in range(N_KEYS):
            x = (x * 6364136223846793005 + 1442695040888963407) & mask
            table[(x >> 3, x & 0xFF)] = 1j
        self.table = table
        self.keys = list(table)
        random.Random(0).shuffle(self.keys)
        self.offset = 0

    def sample(self) -> float:
        """Seconds one batch of lookups takes now."""
        keys = self.keys[self.offset : self.offset + BATCH]
        self.offset = (self.offset + BATCH) % (N_KEYS - BATCH)
        table = self.table
        start = time.perf_counter()
        total = 0j
        for key in keys:
            total += table[key]
        elapsed = time.perf_counter() - start
        if total != BATCH * 1j:
            raise RuntimeError("speed probe lookups returned wrong values")
        return elapsed
