"""The layer boundaries the traced run wraps, and the per-layer metrics.

Every boundary is a public entry point of one ``src/repro`` package, wrapped
from here on its class or module (see :mod:`perfbench.tracer`).  The wrappers
must be installed before any ``SystemSimulator`` is built: ``DramDevice``
binds its mitigation's ACT/PRE hooks, ``ChannelRouter`` its tick and drain
methods, and the simulator the oracle's ``on_activate`` at construction.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple, Type

from perfbench.tracer import Tracer
from repro.attacks import oracle as oracle_module
from repro.attacks.patterns import AttackSpec
from repro.controller.controller import MemoryController
from repro.controller.router import ChannelRouter
from repro.core.mitigation import MitigationMechanism
from repro.cpu.core import Core
from repro.dram.device import DramDevice
from repro.experiments import sweep as sweep_module
from repro.experiments.cache import ResultCache
from repro.system.simulator import SystemSimulator

#: DRAM command issue methods and their metric names.
DRAM_COMMANDS = (
    ("activate", "dram.act"),
    ("precharge", "dram.pre"),
    ("read", "dram.rd"),
    ("write", "dram.wr"),
    ("refresh", "dram.ref"),
    ("rfm", "dram.rfm"),
    ("victim_refresh", "dram.vref"),
)

#: DRAM readiness checks, all counted as ``dram.can``.
DRAM_CHECKS = (
    "can_activate",
    "can_precharge",
    "can_read",
    "can_write",
    "can_refresh",
    "can_rfm",
    "can_victim_refresh",
)

#: Mitigation hooks (``core`` package) and their metric names.
MITIGATION_HOOKS = (
    ("on_activate", "core.on_activate"),
    ("on_precharge", "core.on_precharge"),
    ("on_rfm", "core.on_rfm"),
)


def _subclasses(base: Type) -> List[Type]:
    """``base`` and every class derived from it, each once."""
    found = [base]
    for cls in found:
        for subclass in cls.__subclasses__():
            if subclass not in found:
                found.append(subclass)
    return found


def _is_true(result: object) -> bool:
    return bool(result)


def _issued(result: Tuple[bool, int]) -> bool:
    return result[0]


def _rejected(result: bool) -> bool:
    return not result


def _found(result: object) -> bool:
    return result is not None


class LayerProbe:
    """Wraps every layer boundary and turns the records into metrics."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.llc_hits = 0
        self.llc_misses = 0

    def boundaries(self) -> List[Tuple[object, str, str, Dict[str, object]]]:
        """``(owner, attribute, metric, wrap options)`` of every boundary."""
        found: List[Tuple[object, str, str, Dict[str, object]]] = [
            (sweep_module, "execute_job", "job", {
                "span": True, "job": lambda job: job.key[:12],
            }),
            (sweep_module, "build_mix_traces", "workloads.build_traces", {"span": True}),
            (AttackSpec, "compile", "attacks.compile", {"span": True}),
            (oracle_module.DisturbanceOracle, "on_activate", "attacks.oracle.on_activate", {}),
            (oracle_module.DisturbanceOracle, "on_victims_refreshed",
             "attacks.oracle.on_victims_refreshed", {}),
            (SystemSimulator, "__init__", "system.construct", {"span": True}),
            (SystemSimulator, "run", "system.run", {"span": True}),
            (SystemSimulator, "_build_result", "system.result", {
                "span": True, "after": self._observe_result,
            }),
            (Core, "try_issue", "cpu.try_issue", {"ok": _is_true}),
            (Core, "notify_completion", "cpu.notify_completion", {}),
            # Single-channel routers bind ``_tick_single`` as ``tick``.
            (ChannelRouter, "tick", "controller.router_tick", {}),
            (ChannelRouter, "_tick_single", "controller.router_tick", {}),
            (MemoryController, "tick", "controller.tick", {"ok": _issued}),
            (MemoryController, "enqueue", "controller.enqueue", {"ok": _rejected}),
            (MemoryController, "drain_completed", "controller.drain", {}),
            (ResultCache, "get", "experiments.cache.get", {"ok": _found}),
            (ResultCache, "put", "experiments.cache.put", {}),
            (sweep_module.SweepEngine, "run_jobs", "experiments.engine", {"span": True}),
        ]
        for method, metric in DRAM_COMMANDS:
            found.append((DramDevice, method, metric, {}))
        for method in DRAM_CHECKS:
            found.append((DramDevice, method, "dram.can", {"ok": _is_true}))
        for cls in _subclasses(MitigationMechanism):
            if not cls.__module__.startswith("repro.core."):
                continue
            for method, metric in MITIGATION_HOOKS:
                if method in cls.__dict__:
                    found.append((cls, method, metric, {}))
        return found

    def install(self) -> None:
        for owner, attr, metric, options in self.boundaries():
            self.tracer.wrap(owner, attr, metric, **options)

    def uninstall(self) -> None:
        self.tracer.uninstall()

    def _observe_result(self, args: tuple, result: object) -> None:
        simulator = args[0]
        self.llc_hits += simulator.llc.stats.hits
        self.llc_misses += simulator.llc.stats.misses

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def metrics(
        self, results: Mapping[str, object], service: Optional[Mapping[str, float]] = None
    ) -> Dict[str, float]:
        """Per-layer metrics of the traced pass.

        ``results`` are the ``SimulationResult`` objects the pass simulated
        (empty for the service, which simulates nothing); ``service`` holds
        the client-side ``service.*`` figures.
        """
        stats = self.tracer.stats

        def calls(name: str) -> int:
            return stats[name].calls

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        simulated = list(results.values())
        cycles = sum(result.cycles for result in simulated)
        requests = sum(
            result.controller_stats["reads_served"]
            + result.controller_stats["writes_served"]
            for result in simulated
        )
        row_hits = sum(result.controller_stats["row_hits"] for result in simulated)
        row_accesses = row_hits + sum(
            result.controller_stats["row_misses"] + result.controller_stats["row_conflicts"]
            for result in simulated
        )
        router_ticks = calls("controller.router_tick")
        metrics: Dict[str, float] = {
            "workloads.build_traces.s": stats["workloads.build_traces"].inclusive,
            "attacks.compile.s": stats["attacks.compile"].inclusive,
            "attacks.oracle.on_activate.calls": calls("attacks.oracle.on_activate"),
            "attacks.oracle.self_s": (
                stats["attacks.oracle.on_activate"].self_time
                + stats["attacks.oracle.on_victims_refreshed"].self_time
            ),
            "system.construct.s": stats["system.construct"].inclusive,
            "system.run.self_s": stats["system.run"].self_time,
            "system.result.s": stats["system.result"].inclusive,
            "system.sim_cycles": cycles,
            "system.skip_ratio": 1.0 - router_ticks / cycles if cycles else 0.0,
            "cpu.try_issue.calls": calls("cpu.try_issue"),
            "cpu.try_issue.self_s": stats["cpu.try_issue"].self_time,
            "cpu.try_issue.issue_ratio": ratio(
                stats["cpu.try_issue"].ok, calls("cpu.try_issue")
            ),
            "cpu.notify_completion.calls": calls("cpu.notify_completion"),
            "cpu.llc_miss_rate": ratio(self.llc_misses, self.llc_hits + self.llc_misses),
            "controller.router_tick.calls": router_ticks,
            "controller.router_tick.self_s": stats["controller.router_tick"].self_time,
            "controller.tick.calls": calls("controller.tick"),
            "controller.tick.self_s": stats["controller.tick"].self_time,
            "controller.tick.issue_ratio": ratio(
                stats["controller.tick"].ok, calls("controller.tick")
            ),
            "controller.ticks_per_request": ratio(calls("controller.tick"), requests),
            "controller.enqueue.calls": calls("controller.enqueue"),
            "controller.enqueue.rejected": stats["controller.enqueue"].ok,
            "controller.drain.calls": calls("controller.drain"),
            "controller.row_hit_rate": ratio(row_hits, row_accesses),
        }
        for _, metric in DRAM_COMMANDS:
            metrics[f"{metric}.calls"] = calls(metric)
        metrics["dram.cmd.self_s"] = sum(
            stats[metric].self_time for _, metric in DRAM_COMMANDS
        )
        metrics["dram.can.calls"] = calls("dram.can")
        metrics["dram.can.true_ratio"] = ratio(stats["dram.can"].ok, calls("dram.can"))
        metrics.update({
            "core.on_activate.calls": calls("core.on_activate"),
            "core.on_activate.self_s": stats["core.on_activate"].self_time,
            "core.on_precharge.self_s": stats["core.on_precharge"].self_time,
            "core.on_rfm.calls": calls("core.on_rfm"),
            "core.on_rfm.self_s": stats["core.on_rfm"].self_time,
            "core.backoffs": sum(
                r.controller_stats["backoffs_observed"] for r in simulated
            ),
            "core.rfms": sum(r.controller_stats["rfms"] for r in simulated),
            "core.preventive_rows": sum(
                r.controller_stats["preventive_refresh_rows"] for r in simulated
            ),
            "experiments.cache.get.calls": calls("experiments.cache.get"),
            "experiments.cache.get.s": stats["experiments.cache.get"].inclusive,
            "experiments.cache.put.calls": calls("experiments.cache.put"),
            "experiments.cache.put.s": stats["experiments.cache.put"].inclusive,
            "experiments.cache.hit_rate": ratio(
                stats["experiments.cache.get"].ok, calls("experiments.cache.get")
            ),
            "experiments.engine.self_s": stats["experiments.engine"].self_time,
        })
        service = service or {}
        for name in (
            "service.submit_ms",
            "service.watch_ms",
            "service.engine_ms",
            "service.events_per_job",
            "service.rejected",
        ):
            metrics[name] = service.get(name, 0)
        return metrics
