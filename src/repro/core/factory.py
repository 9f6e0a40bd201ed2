"""Mechanism factory: build any evaluated mechanism by name.

The experiments sweep mechanisms by name (matching the paper's legends), so
this module centralises the secure-configuration logic: given a mechanism
name and a RowHammer threshold, it returns a :class:`MechanismSetup` with

* the on-DRAM-die component (PRAC / Chronus), if any,
* the memory-controller component (PRFM / Graphene / Hydra / PARA / ABACuS),
  if any,
* whether the PRAC timing parameters must be applied, and
* whether the resulting configuration is secure against the wave attack.

``PRAC+PRFM`` is the composite configuration from the specification: PRAC-4
on the DRAM die plus a controller-side periodic RFM with ``RFMth = 75``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.analysis.security import DEFAULT_PARAMETERS, SecurityParameters
from repro.core.abacus import ABACuS
from repro.core.chronus import Chronus, ChronusPB
from repro.core.graphene import Graphene
from repro.core.hydra import Hydra
from repro.core.mitigation import ControllerMitigation, OnDieMitigation
from repro.core.para import PARA
from repro.core.prac import PRAC
from repro.core.prfm import PRFM


#: RFM threshold of the PRAC+PRFM example configuration in JESD79-5c.
PRAC_PRFM_RFM_THRESHOLD = 75

#: All mechanism names accepted by :func:`build_mechanism`, in the order the
#: paper's figures list them.
MECHANISM_NAMES: Tuple[str, ...] = (
    "None",
    "Chronus",
    "Chronus-PB",
    "PRAC-4",
    "PRAC-2",
    "PRAC-1",
    "PRAC+PRFM",
    "PRFM",
    "Graphene",
    "Hydra",
    "PARA",
    "ABACuS",
)


@dataclass
class MechanismSetup:
    """Everything the system simulator needs to install a mechanism."""

    name: str
    on_die: Optional[OnDieMitigation]
    controller: Optional[ControllerMitigation]
    use_prac_timings: bool
    is_secure: bool

    @property
    def act_energy_multiplier(self) -> float:
        """Row-access energy multiplier of the installed mechanism(s)."""
        multiplier = 1.0
        if self.on_die is not None:
            multiplier = max(multiplier, self.on_die.act_energy_multiplier)
        if self.controller is not None:
            multiplier = max(multiplier, self.controller.act_energy_multiplier)
        return multiplier

    def mechanisms(self):
        """Iterate over the installed mechanism objects."""
        if self.on_die is not None:
            yield self.on_die
        if self.controller is not None:
            yield self.controller


def build_mechanism(
    name: str,
    nrh: int,
    num_banks: int,
    seed: int = 0,
    security_params: SecurityParameters = DEFAULT_PARAMETERS,
    allow_insecure: bool = True,
) -> MechanismSetup:
    """Build the mechanism configuration named ``name`` for threshold ``nrh``.

    Args:
        name: one of :data:`MECHANISM_NAMES` (case-sensitive).
        nrh: RowHammer threshold.
        num_banks: number of banks in the simulated channel.
        seed: random seed (used by PARA).
        security_params: physical parameters for secure-configuration search.
        allow_insecure: if True, mechanisms that cannot be configured
            securely at ``nrh`` fall back to their most aggressive
            configuration and are flagged insecure (mirroring the paper's
            red-edged bars); if False, a ``ValueError`` propagates.

    Returns:
        A :class:`MechanismSetup`.

    Raises:
        ValueError: for an unknown mechanism name.
    """
    if name == "None":
        return MechanismSetup(name, None, None, use_prac_timings=False, is_secure=True)

    if name == "PRFM":
        prfm = PRFM(nrh, num_banks, security_params=security_params,
                    allow_insecure=allow_insecure)
        return MechanismSetup(name, None, prfm, use_prac_timings=False,
                              is_secure=prfm.is_secure)

    if name in ("PRAC-1", "PRAC-2", "PRAC-4"):
        nref = int(name.split("-")[1])
        prac = PRAC(nrh, num_banks, nref=nref, security_params=security_params,
                    allow_insecure=allow_insecure)
        return MechanismSetup(name, prac, None, use_prac_timings=True,
                              is_secure=prac.is_secure)

    if name == "PRAC+PRFM":
        prac = PRAC(nrh, num_banks, nref=4, security_params=security_params,
                    allow_insecure=allow_insecure)
        prfm = PRFM(nrh, num_banks, rfm_threshold=PRAC_PRFM_RFM_THRESHOLD,
                    security_params=security_params)
        return MechanismSetup(name, prac, prfm, use_prac_timings=True,
                              is_secure=prac.is_secure)

    if name == "Chronus":
        chronus = Chronus(nrh, num_banks, security_params=security_params)
        return MechanismSetup(name, chronus, None, use_prac_timings=False,
                              is_secure=True)

    if name == "Chronus-PB":
        chronus_pb = ChronusPB(nrh, num_banks, security_params=security_params,
                               allow_insecure=allow_insecure)
        return MechanismSetup(name, chronus_pb, None, use_prac_timings=False,
                              is_secure=chronus_pb.is_secure)

    if name == "Graphene":
        graphene = Graphene(nrh, num_banks)
        return MechanismSetup(name, None, graphene, use_prac_timings=False,
                              is_secure=True)

    if name == "Hydra":
        hydra = Hydra(nrh, num_banks)
        return MechanismSetup(name, None, hydra, use_prac_timings=False,
                              is_secure=True)

    if name == "PARA":
        para = PARA(nrh, num_banks, seed=seed)
        return MechanismSetup(name, None, para, use_prac_timings=False,
                              is_secure=True)

    if name == "ABACuS":
        abacus = ABACuS(nrh, num_banks)
        return MechanismSetup(name, None, abacus, use_prac_timings=False,
                              is_secure=True)

    raise ValueError(f"unknown mechanism {name!r}; expected one of {MECHANISM_NAMES}")
