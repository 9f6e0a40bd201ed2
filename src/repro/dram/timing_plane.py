"""Structure-of-arrays storage for the per-bank timing registers.

:class:`BankArrayTiming` stores every bank's timing registers
(``next_act`` / ``next_pre`` / ``next_rd`` / ``next_wr``), its open row and
its last-ACT cycle as flat per-channel stdlib ``array("q")`` buffers indexed
by *flat bank id*.  The controller's readiness scans -- the demand scan, the
postponed-REF sweep, the back-off recovery probe, the event-horizon hint --
and the device's REF/RFM predicates read them as plain ints through
memoryview twins instead of walking 64 bank objects per channel.  Each
:class:`~repro.dram.bank.Bank` is a thin view over one slot of a plane; the
plane itself is owned by :class:`~repro.dram.device.DramDevice`.

Sentinels
---------

``open_row`` uses ``-1`` for "no open row" and ``last_act`` uses ``-1`` for
"never activated"; real rows and cycles are non-negative, so the encoding is
lossless.  Bank state needs no separate array: a bank is ACTIVE iff its
``open_row`` slot is non-negative.
"""

from __future__ import annotations

from array import array

#: ``open_row`` / ``last_act`` sentinel for "none".
NO_ROW = -1


class BankArrayTiming:
    """Flat per-channel timing registers for ``num_banks`` banks.

    Every buffer is a signed 64-bit ``array("q")`` of length ``num_banks``
    indexed by flat bank id.  The buffers are the single source of truth:
    bank views read and write them directly, and the controller kernels
    fold over them without touching bank objects.
    """

    __slots__ = (
        "num_banks", "next_act", "next_pre", "next_rd", "next_wr",
        "open_row", "last_act",
        "next_act_mv", "next_pre_mv", "next_rd_mv", "next_wr_mv",
        "open_row_mv", "last_act_mv",
    )

    def __init__(self, num_banks: int) -> None:
        if num_banks <= 0:
            raise ValueError("num_banks must be positive")
        self.num_banks = num_banks
        zeros = [0] * num_banks
        none = [NO_ROW] * num_banks
        #: Earliest cycle each command class may be issued (per bank).
        self.next_act = array("q", zeros)
        self.next_pre = array("q", zeros)
        self.next_rd = array("q", zeros)
        self.next_wr = array("q", zeros)
        #: Open row per bank (:data:`NO_ROW` = precharged).
        self.open_row = array("q", none)
        #: Cycle of the last ACT per bank (:data:`NO_ROW` = never).
        self.last_act = array("q", none)
        # Scalar-access twins sharing each array's buffer.  Exporting the
        # buffer pins the arrays' size, so the views stay valid for the
        # plane's lifetime.
        self.next_act_mv = memoryview(self.next_act)
        self.next_pre_mv = memoryview(self.next_pre)
        self.next_rd_mv = memoryview(self.next_rd)
        self.next_wr_mv = memoryview(self.next_wr)
        self.open_row_mv = memoryview(self.open_row)
        self.last_act_mv = memoryview(self.last_act)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        open_banks = sum(1 for row in self.open_row if row != NO_ROW)
        return f"BankArrayTiming(num_banks={self.num_banks}, open={open_banks})"
