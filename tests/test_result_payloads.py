"""Full-simulation checks of what a finished run reports, per mechanism.

For all 12 mechanisms on one and two channels, two properties of a complete
:class:`~repro.system.metrics.SimulationResult` are pinned:

1. **Cache round trip** -- the result written to an on-disk
   :class:`~repro.experiments.cache.ResultCache` and read back by a fresh
   cache yields the identical payload, so every mechanism's statistics
   survive the JSON layer the sweep engine serves cached figures from.
2. **Command accounting** -- on every channel the device's command counts,
   the per-bank :class:`~repro.dram.bank.BankStats` totals (kept on the
   shared timing plane's bank views) and the result's per-channel record
   agree, and every ACT is matched by a PRE except on the banks still open
   when the run ends.
"""

import json

import pytest

from repro.core.factory import MECHANISM_NAMES
from repro.experiments.cache import ResultCache, result_to_dict
from repro.experiments.sweep import build_job_traces, mechanism_job
from repro.system.config import paper_system_config
from repro.system.simulator import SystemSimulator

APPS = ("429.mcf", "401.bzip2")
ACCESSES = 300

#: BankStats field -> the device command mnemonic it must total to.
BANK_STAT_COMMANDS = (
    ("activations", "ACT"),
    ("precharges", "PRE"),
    ("reads", "RD"),
    ("writes", "WR"),
    ("victim_refreshes", "VRR"),
)


def run_job(mechanism, channels):
    """Simulate the small two-core mix; return ``(job, simulator, result)``."""
    base = paper_system_config().with_overrides(channels=channels)
    job = mechanism_job(base, APPS, mechanism, 64, ACCESSES)
    simulator = SystemSimulator(
        job.config, build_job_traces(job), workload_name=job.workload_name
    )
    return job, simulator, simulator.run()


def payload(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


class TestCacheRoundTrip:
    @pytest.mark.parametrize("channels", (1, 2))
    @pytest.mark.parametrize("mechanism", MECHANISM_NAMES)
    def test_disk_entry_reproduces_payload(self, mechanism, channels, tmp_path):
        job, _, result = run_job(mechanism, channels)
        ResultCache(str(tmp_path)).put(job.key, result)
        reread = ResultCache(str(tmp_path)).get(job.key)
        assert reread is not None
        assert payload(reread) == payload(result)


class TestCommandAccounting:
    @pytest.mark.parametrize("channels", (1, 2))
    @pytest.mark.parametrize("mechanism", MECHANISM_NAMES)
    def test_device_banks_and_result_agree(self, mechanism, channels):
        _, simulator, result = run_job(mechanism, channels)
        assert len(simulator.devices) == len(result.channel_stats) == channels
        totals = {}
        for device, record in zip(simulator.devices, result.channel_stats):
            counts = device.command_counts
            assert record["command_counts"] == dict(counts)
            for field, mnemonic in BANK_STAT_COMMANDS:
                banked = sum(getattr(bank.stats, field) for bank in device.banks)
                assert banked == counts[mnemonic], (field, mnemonic)
            still_open = sum(bank.open_row is not None for bank in device.banks)
            assert counts["ACT"] - counts["PRE"] == still_open
            for mnemonic, value in counts.items():
                totals[mnemonic] = totals.get(mnemonic, 0) + value
        assert result.command_counts == totals
        assert result.command_counts["ACT"] > 0
