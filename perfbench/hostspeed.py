"""Host-speed calibration: scale measured host time to a reference speed.

The reference machine is a share of a host whose speed drifts by 15-30%
over seconds to minutes (co-tenants on the same cores and caches; the
process's own CPU time drifts as much as its wall time).  Raw host times
of the same code on the same seed therefore spread past any useful bound.

A timed run interleaves a fixed calibration kernel with its work -- after
every set-up and after every job (sweeps) or pass (service), until the
kernel has taken ``SHARE`` of the work's time -- and reports every host
time multiplied by
``(REFERENCE_S / mean kernel time) ** ELASTICITY``: the time the work would
have taken at the speed the host had when ``REFERENCE_S`` was measured.
The kernel is pure Python that belongs to the benchmark (a small
bank-timing simulation: slotted objects, a dict of counters, a heap), so
a change to the program moves the scaled times exactly as much as the raw
ones.

The kernel is cache-resident and slows down more than the program when
the host is busy, so the program's time follows the kernel's with an
elasticity below one.  ``ELASTICITY`` is that slope, measured on the
reference machine over runs of every workload on different seeds, minutes
apart: the spread (IQR/median) of the pass time was smallest at an
exponent of 0.66-0.8 on each -- 10 ``fig8_sweep`` runs: 15% unscaled, 7%
at 1.0, 4% at 0.75; 5 ``redteam_probes`` runs: 10%, 3%, 2%; 10
``service_cached`` runs: 25%, 13%, 9%.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, List

#: Mean kernel time on the reference machine (2 shared vCPUs of an Intel
#: Xeon host), in seconds.  Only the scale of the reported times depends on
#: it; never change it between two measurements that are compared.
REFERENCE_S = 0.008

#: How the program's host time follows the kernel's (see above).
ELASTICITY = 0.75

#: Calibration time kept up to, as a share of the calibrated work's time.
SHARE = 0.1

#: Accesses per kernel call, and banks and rows they spread over.
_ACCESSES = 6000
_BANKS = 2048
_ROWS = 40000


class _Bank:
    __slots__ = ("open_row", "next_act", "next_rd", "acts", "hits")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.open_row = -1
        self.next_act = 0
        self.next_rd = 0
        self.acts = 0
        self.hits = 0

    def access(self, row: int, cycle: int) -> int:
        if self.open_row == row:
            self.hits += 1
            self.next_rd = max(self.next_rd, cycle) + 4
            return self.next_rd
        self.acts += 1
        self.open_row = row
        self.next_act = max(self.next_act, cycle) + 45
        self.next_rd = self.next_act + 15
        return self.next_rd


def _access_stream() -> List[int]:
    """A fixed stream of bank, row pairs, flattened: mostly a few hot rows,
    some scattered."""
    stream = []
    state = 12345
    for _ in range(_ACCESSES):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        stream.append((state >> 8) % _BANKS)
        stream.append((state >> 3) % 97 if state & 3 else (state >> 5) % _ROWS)
    return stream


class _Kernel:
    """One calibration call does the same work every time.  It allocates no
    object the cyclic garbage collector tracks, so it neither triggers a
    collection nor depends on how large the process's heap is."""

    def __init__(self) -> None:
        self.stream = _access_stream()
        self.banks = [_Bank() for _ in range(_BANKS)]
        self.counters: Dict[int, int] = {}
        self.events: List[int] = []

    def __call__(self) -> int:
        banks = self.banks
        for bank in banks:
            bank.reset()
        counters = self.counters
        counters.clear()
        events = self.events
        events.clear()
        stream = self.stream
        cycle = 0
        done = 0
        for index in range(0, len(stream), 2):
            bank_id = stream[index]
            row = stream[index + 1]
            ready = banks[bank_id].access(row, cycle)
            key = bank_id * _ROWS + row
            counters[key] = counters.get(key, 0) + 1
            # Ready cycle and access index in one int: no tuple.
            heapq.heappush(events, ready * _ACCESSES * 2 + index)
            horizon = (cycle + 1) * _ACCESSES * 2
            while events and events[0] < horizon:
                heapq.heappop(events)
                done += 1
            cycle += 3
        return done + len(counters)


class HostSpeed:
    """Kernel timings interleaved with a run's work."""

    def __init__(self) -> None:
        self._kernel = _Kernel()
        self.samples: List[float] = []
        self.work_s = 0.0
        self._kernel()  # warm-up, not a sample

    def sample(self) -> float:
        start = time.perf_counter()
        self._kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def keep_up(self, work_s: float) -> float:
        """Count ``work_s`` more seconds of work, then sample the kernel
        until it has taken ``SHARE`` of all the work's time (at least once);
        returns the seconds spent sampling."""
        self.work_s += work_s
        spent = self.sample()
        while sum(self.samples) < SHARE * self.work_s:
            spent += self.sample()
        return spent

    def factor(self) -> float:
        """Multiply host times by this to scale them to the reference speed."""
        return (REFERENCE_S * len(self.samples) / sum(self.samples)) ** ELASTICITY
