"""Periodic refresh scheduling.

The memory controller must issue a REF command to every rank once per
refresh interval (tREFI) so that all rows are refreshed within the refresh
window (tREFW).  DDR5 allows the controller to postpone a bounded number of
REF commands; the paper notes that up to four REFs may be postponed, which is
why its security analysis does not rely on periodic refreshes.

:class:`RefreshScheduler` tracks, per rank, when the next REF is due and how
many REFs are pending (postponed).  Accrual is lazy and hint-driven: ``tick``
is O(1) unless a tREFI boundary has actually been crossed, and
:meth:`next_due_cycle` exposes the earliest upcoming boundary so the
event-horizon simulator can wake exactly on it (a time skip must never jump
past a tREFI boundary, or REFs would silently be postponed beyond the DDR5
limit).  The memory controller consults the scheduler every tick and issues
REF commands opportunistically, prioritising them once the postpone budget is
exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.dram.timing import TimingParams

#: Sentinel "no event" value (matches the simulator's FAR_FUTURE).
_FAR_FUTURE = 1 << 62


@dataclass(slots=True)
class RankRefreshState:
    """Book-keeping for one rank."""

    next_due_cycle: int = 0
    pending: int = 0
    issued: int = 0


class RefreshScheduler:
    """Tracks periodic refresh obligations for every rank."""

    #: Maximum number of REF commands that may be postponed (DDR5 allows 4).
    MAX_POSTPONED = 4

    def __init__(self, num_ranks: int, timing: TimingParams) -> None:
        if num_ranks <= 0:
            raise ValueError("num_ranks must be positive")
        self.timing = timing
        self.num_ranks = num_ranks
        self._ranks: Dict[int, RankRefreshState] = {
            rank: RankRefreshState(next_due_cycle=timing.tREFI) for rank in range(num_ranks)
        }
        self._states = list(self._ranks.values())
        #: Earliest next_due_cycle across ranks; tick is a no-op before it.
        self._next_accrual = timing.tREFI
        #: Cached ranks-with-pending tuple (None = needs rebuild).
        self._pending_ranks: Tuple[int, ...] = ()
        #: Cached exhausted-postpone-budget tuple (None = needs rebuild).
        self._urgent_ranks: Tuple[int, ...] = ()

    def tick(self, cycle: int) -> None:
        """Accrue newly due refreshes up to ``cycle`` (O(1) off-boundary)."""
        if cycle < self._next_accrual:
            return
        tREFI = self.timing.tREFI
        next_accrual = _FAR_FUTURE
        for state in self._states:
            due = state.next_due_cycle
            if cycle >= due:
                # How many whole tREFI boundaries did we cross?
                newly_due = (cycle - due) // tREFI + 1
                state.pending += newly_due
                due += newly_due * tREFI
                state.next_due_cycle = due
            if due < next_accrual:
                next_accrual = due
        self._next_accrual = next_accrual
        self._pending_ranks = None  # type: ignore[assignment]
        self._urgent_ranks = None  # type: ignore[assignment]

    def next_due_cycle(self) -> int:
        """Earliest upcoming tREFI boundary across all ranks.

        The event-horizon simulator includes this in every wake hint so a
        time skip can never jump past a refresh deadline.
        """
        return self._next_accrual

    def pending_refreshes(self, rank: int) -> int:
        """Number of REF commands currently owed to ``rank``."""
        return self._ranks[rank].pending

    def refresh_urgent(self, rank: int) -> bool:
        """True if the rank has exhausted its postpone budget."""
        return self._ranks[rank].pending >= self.MAX_POSTPONED

    def refresh_needed(self, rank: int) -> bool:
        """True if at least one REF is owed to ``rank``."""
        return self._ranks[rank].pending > 0

    def ranks_needing_refresh(self) -> Tuple[int, ...]:
        """Ranks that currently owe at least one REF (cached tuple).

        The tuple is rebuilt only when accrual or issue changes the pending
        set; callers must not mutate it (it is shared across calls).
        """
        if self._pending_ranks is None:
            self._pending_ranks = tuple(
                rank for rank, state in self._ranks.items() if state.pending > 0
            )
        return self._pending_ranks

    def urgent_ranks(self) -> Tuple[int, ...]:
        """Ranks whose postpone budget is exhausted (cached tuple).

        The urgent set only changes on accrual (``tick``) or issue
        (``refresh_issued``), so the controller kernels can
        probe it as a shared tuple -- almost always empty -- instead of
        re-deriving per-rank pending counts on every ACT-candidate serve.
        Callers must not mutate the returned tuple.
        """
        if self._urgent_ranks is None:
            self._urgent_ranks = tuple(
                rank
                for rank, state in self._ranks.items()
                if state.pending >= self.MAX_POSTPONED
            )
        return self._urgent_ranks

    def refresh_issued(self, rank: int) -> None:
        """Record that a REF command was issued to ``rank``."""
        state = self._ranks[rank]
        if state.pending <= 0:
            raise RuntimeError(f"rank {rank} has no pending refresh to issue")
        state.pending -= 1
        state.issued += 1
        # Issuing can drop the rank below MAX_POSTPONED (and to zero), so
        # both cached tuples may be stale now.
        self._urgent_ranks = None  # type: ignore[assignment]
        if state.pending == 0:
            self._pending_ranks = None  # type: ignore[assignment]

    def total_issued(self) -> int:
        """Total REF commands issued across all ranks."""
        return sum(state.issued for state in self._ranks.values())
