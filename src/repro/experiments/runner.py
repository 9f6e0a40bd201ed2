"""Experiment runner: a thin, metric-aware consumer of the sweep engine.

The runner aggregates the simulations behind the paper's evaluation figures:
for a set of workload mixes, mechanisms and RowHammer thresholds it needs

1. every application alone on the baseline (no mitigation) system to obtain
   the ``IPC_alone`` values the weighted-speedup metric needs,
2. every mix on the baseline system (the normalisation point), and
3. every (mix, mechanism, N_RH) combination.

All three kinds of run are expressed as :class:`~repro.experiments.sweep.SimJob`
objects and executed by a :class:`~repro.experiments.sweep.SweepEngine`, which
memoises each result -- keyed by the *full* system configuration, access
budget and seed -- in a :class:`~repro.experiments.cache.ResultCache` and can
fan the independent jobs out across worker processes.  Repeated sweeps (and
different figures sharing baselines) therefore re-simulate nothing.

Experiments are scaled by ``accesses_per_core``: the paper runs 100 M
instructions per core on a compute cluster; the default here is small enough
for a laptop while preserving the relative overheads (see docs/EXPERIMENTS.md
for the exact budgets used for the recorded results).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.cache import ResultCache
from repro.experiments.sweep import (
    SweepEngine,
    SweepSpec,
    alone_job,
    baseline_job,
    mechanism_job,
)
from repro.system.config import SystemConfig, paper_system_config
from repro.system.metrics import (
    SimulationResult,
    normalized_weighted_speedup,
)
from repro.workloads.mixes import WorkloadMix, workload_mixes


@dataclass
class MechanismComparison:
    """Aggregated results of one (mechanism, N_RH) sweep point."""

    mechanism: str
    nrh: int
    normalized_weighted_speedups: List[float] = field(default_factory=list)
    normalized_energies: List[float] = field(default_factory=list)
    backoffs_per_mcycle: List[float] = field(default_factory=list)
    is_secure: bool = True

    @property
    def mean_normalized_ws(self) -> float:
        values = self.normalized_weighted_speedups
        return sum(values) / len(values) if values else 0.0

    @property
    def mean_normalized_energy(self) -> float:
        values = self.normalized_energies
        return sum(values) / len(values) if values else 0.0

    @property
    def mean_performance_overhead(self) -> float:
        """Average slowdown versus the no-mitigation baseline (0..1)."""
        return max(0.0, 1.0 - self.mean_normalized_ws)

    @property
    def max_performance_overhead(self) -> float:
        values = self.normalized_weighted_speedups
        if not values:
            return 0.0
        return max(0.0, 1.0 - min(values))


class ExperimentRunner:
    """Builds jobs, delegates execution to the engine, aggregates metrics."""

    def __init__(
        self,
        base_config: Optional[SystemConfig] = None,
        accesses_per_core: int = 6000,
        seed: int = 0,
        cache: Optional[ResultCache] = None,
        workers: Optional[int] = None,
        engine: Optional[SweepEngine] = None,
    ) -> None:
        """Create a runner.

        Args:
            base_config: system configuration every job derives from.
            accesses_per_core: memory accesses generated per core.
            seed: base seed for trace generation.
            cache: result cache for a newly created engine (ignored when
                ``engine`` is given).
            workers: worker-process count for a newly created engine.
            engine: share an existing engine (and therefore its cache)
                across runners, e.g. between figures of one benchmark run.
        """
        self.base_config = base_config or paper_system_config()
        self.accesses_per_core = accesses_per_core
        self.seed = seed
        self.engine = engine if engine is not None else SweepEngine(
            cache=cache, workers=workers
        )

    # ------------------------------------------------------------------ #
    # Building blocks
    # ------------------------------------------------------------------ #
    def alone_ipc(self, application: str) -> float:
        """IPC of an application running alone on the baseline system."""
        job = alone_job(self.base_config, application, self.accesses_per_core, self.seed)
        return self.engine.run_job(job).core_ipcs[0]

    def baseline_result(self, applications: Sequence[str]) -> SimulationResult:
        """No-mitigation run of a mix (cached, keyed by the full config)."""
        job = baseline_job(self.base_config, applications, self.accesses_per_core, self.seed)
        return self.engine.run_job(job)

    def run_mix(
        self, applications: Sequence[str], mechanism: str, nrh: int
    ) -> SimulationResult:
        """Simulate a mix under one mechanism / threshold."""
        job = mechanism_job(
            self.base_config, applications, mechanism, nrh,
            self.accesses_per_core, self.seed,
        )
        return self.engine.run_job(job)

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def normalized_ws(
        self, applications: Sequence[str], result: SimulationResult
    ) -> float:
        """Normalised weighted speedup of ``result`` for a mix."""
        alone = [self.alone_ipc(app) for app in applications]
        baseline = self.baseline_result(applications)
        return normalized_weighted_speedup(result.core_ipcs, alone, baseline.core_ipcs)

    def normalized_energy(
        self, applications: Sequence[str], result: SimulationResult
    ) -> float:
        """Energy of ``result`` normalised to the no-mitigation baseline."""
        baseline = self.baseline_result(applications)
        if baseline.energy_nj <= 0:
            return 0.0
        return result.energy_nj / baseline.energy_nj

    # ------------------------------------------------------------------ #
    # Sweeps
    # ------------------------------------------------------------------ #
    def sweep_spec(
        self,
        mechanisms: Sequence[str],
        nrh_values: Sequence[int],
        mixes: Sequence[Sequence[str]],
    ) -> SweepSpec:
        """The declarative sweep this runner's parameters imply."""
        return SweepSpec(
            mechanisms=tuple(mechanisms),
            nrh_values=tuple(nrh_values),
            mixes=tuple(tuple(mix) for mix in mixes),
            accesses_per_core=self.accesses_per_core,
            seed=self.seed,
            base_config=self.base_config,
        )

    def compare(
        self,
        mechanisms: Sequence[str],
        nrh_values: Sequence[int],
        mixes: Sequence[Sequence[str]],
    ) -> List[MechanismComparison]:
        """Run the full (mechanism x N_RH x mix) sweep and aggregate."""
        spec = self.sweep_spec(mechanisms, nrh_values, mixes)
        # One batched engine call executes every missing job (in parallel if
        # the engine has workers); the per-point lookups below are all hits.
        self.engine.run(spec)
        return [
            self._comparison(mechanism, nrh, spec.mixes)
            for mechanism in spec.mechanisms
            for nrh in spec.nrh_values
        ]

    def _comparison(
        self, mechanism: str, nrh: int, mixes: Sequence[Sequence[str]]
    ) -> MechanismComparison:
        """Aggregate one (mechanism, N_RH) point over its mixes."""
        comparison = MechanismComparison(mechanism=mechanism, nrh=nrh)
        for applications in mixes:
            result = self.run_mix(applications, mechanism, nrh)
            comparison.normalized_weighted_speedups.append(
                self.normalized_ws(applications, result)
            )
            comparison.normalized_energies.append(
                self.normalized_energy(applications, result)
            )
            comparison.backoffs_per_mcycle.append(
                result.backoffs_per_million_cycles()
            )
            comparison.is_secure = comparison.is_secure and result.is_secure
        return comparison

    def single_core_sweep(
        self,
        mechanisms: Sequence[str],
        nrh: int,
        applications: Sequence[str],
    ) -> Dict[str, Dict[str, float]]:
        """Per-application normalised performance (Fig. 7 style).

        Returns ``{mechanism: {application: normalized speedup}}``.
        """
        spec = self.sweep_spec(mechanisms, [nrh], [(app,) for app in applications])
        self.engine.run(spec)
        return {
            mechanism: {
                application: self.normalized_ws(
                    [application], self.run_mix([application], mechanism, nrh)
                )
                for application in applications
            }
            for mechanism in mechanisms
        }


@functools.lru_cache(maxsize=8)
def _mix_table(seed: int) -> Tuple[WorkloadMix, ...]:
    """The paper's 60 mixes for ``seed``, built once per process."""
    return tuple(workload_mixes(mixes_per_type=10, seed=seed))


def default_mixes(count: int, mix_types: Optional[Sequence[str]] = None, seed: int = 42) -> List[WorkloadMix]:
    """A deterministic subset of the paper's 60 mixes, spread across types.

    Every call returns a fresh list (callers may mutate it); the shared
    :class:`WorkloadMix` entries are frozen.
    """
    all_mixes = list(_mix_table(seed))
    if mix_types is not None:
        all_mixes = [mix for mix in all_mixes if mix.mix_type in mix_types]
    if count >= len(all_mixes):
        return all_mixes
    # Round-robin across mix types so small counts stay representative.
    by_type: Dict[str, List[WorkloadMix]] = {}
    for mix in all_mixes:
        by_type.setdefault(mix.mix_type, []).append(mix)
    selected: List[WorkloadMix] = []
    index = 0
    while len(selected) < count:
        for mixes_of_type in by_type.values():
            if index < len(mixes_of_type) and len(selected) < count:
                selected.append(mixes_of_type[index])
        index += 1
    return selected
