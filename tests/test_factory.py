"""Tests for the mechanism factory."""

import pytest

from repro.core.chronus import Chronus, ChronusPB
from repro.core.factory import MECHANISM_NAMES, PRAC_PRFM_RFM_THRESHOLD, build_mechanism
from repro.core.graphene import Graphene
from repro.core.hydra import Hydra
from repro.core.para import PARA
from repro.core.prac import PRAC
from repro.core.prfm import PRFM


class TestBuildMechanism:
    @pytest.mark.parametrize("name", MECHANISM_NAMES)
    def test_every_name_builds(self, name):
        setup = build_mechanism(name, nrh=128, num_banks=8)
        assert setup.name == name
        assert isinstance(setup.act_energy_multiplier, float)

    @pytest.mark.parametrize("name", MECHANISM_NAMES)
    def test_hooks_resolve_through_the_class(self, name):
        """Per-layer tracing wraps the mitigation hooks on their classes,
        so no built component may shadow one with an instance attribute."""
        setup = build_mechanism(name, nrh=128, num_banks=8)
        for mechanism in setup.mechanisms():
            shadowed = set(getattr(mechanism, "__dict__", {})) & {
                "on_activate", "on_precharge", "on_rfm",
                "on_periodic_refresh", "on_refresh_window",
            }
            assert not shadowed, (type(mechanism).__name__, shadowed)

    def test_none_has_no_components(self):
        setup = build_mechanism("None", nrh=128, num_banks=8)
        assert setup.on_die is None and setup.controller is None
        assert not setup.use_prac_timings
        assert list(setup.mechanisms()) == []

    def test_prac_variants(self):
        for name, nref in (("PRAC-1", 1), ("PRAC-2", 2), ("PRAC-4", 4)):
            setup = build_mechanism(name, nrh=1024, num_banks=8)
            assert isinstance(setup.on_die, PRAC)
            assert setup.on_die.nref == nref
            assert setup.use_prac_timings

    def test_prac_prfm_composite(self):
        setup = build_mechanism("PRAC+PRFM", nrh=1024, num_banks=8)
        assert isinstance(setup.on_die, PRAC)
        assert isinstance(setup.controller, PRFM)
        assert setup.controller.rfm_threshold == PRAC_PRFM_RFM_THRESHOLD
        assert setup.use_prac_timings
        assert len(list(setup.mechanisms())) == 2

    def test_chronus_keeps_baseline_timings(self):
        setup = build_mechanism("Chronus", nrh=1024, num_banks=8)
        assert isinstance(setup.on_die, Chronus)
        assert not setup.use_prac_timings
        assert setup.act_energy_multiplier > 1.0

    def test_chronus_pb(self):
        setup = build_mechanism("Chronus-PB", nrh=1024, num_banks=8)
        assert isinstance(setup.on_die, ChronusPB)
        assert not setup.use_prac_timings

    def test_controller_side_mechanisms(self):
        for name, cls in (("Graphene", Graphene), ("Hydra", Hydra), ("PARA", PARA), ("PRFM", PRFM)):
            setup = build_mechanism(name, nrh=256, num_banks=8)
            assert isinstance(setup.controller, cls)
            assert setup.on_die is None
            assert not setup.use_prac_timings

    def test_insecure_configurations_flagged(self):
        setup = build_mechanism("PRAC-1", nrh=4, num_banks=8, allow_insecure=True)
        assert not setup.is_secure

    def test_insecure_raises_when_not_allowed(self):
        with pytest.raises(ValueError):
            build_mechanism("PRAC-1", nrh=4, num_banks=8, allow_insecure=False)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            build_mechanism("TRR", nrh=128, num_banks=8)

    def test_chronus_secure_at_all_evaluated_thresholds(self):
        for nrh in (1024, 512, 256, 128, 64, 32, 20):
            setup = build_mechanism("Chronus", nrh=nrh, num_banks=8)
            assert setup.is_secure
