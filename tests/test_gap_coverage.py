"""Gap-filling tests for public API surface not hit elsewhere."""

import networkx as nx
import numpy as np
import pytest

from repro.accelerator import system_energy_gain, system_speedup
from repro.crosscut import relation_invariant_checker
from repro.crosscut.faults import execute_registers
from repro.memory import MemoryHierarchy, default_hierarchy
from repro.processor import generate_trace
from repro.workloads import population_graph


class TestSystemSpeedup:
    def test_same_algebra_as_energy_gain(self):
        assert system_speedup(50.0, 0.4) == pytest.approx(
            system_energy_gain(50.0, 0.4)
        )

    def test_bounds(self):
        assert system_speedup(10.0, 1.0) == pytest.approx(10.0)
        assert system_speedup(10.0, 0.0) == pytest.approx(1.0)


class TestRelationInvariantChecker:
    def test_clean_run_passes(self):
        trace = generate_trace(200, rng=0)
        checker = relation_invariant_checker(max_jump=1 << 22)
        _, detected = execute_registers(trace, checker=checker)
        assert not detected

    def test_big_jump_detected(self):
        trace = generate_trace(200, rng=0)
        checker = relation_invariant_checker(max_jump=1 << 22)
        # Flip a very high bit mid-trace: a huge state jump.
        _, detected = execute_registers(
            trace, flip=(100, 3, 30), checker=checker
        )
        # Detection depends on register liveness; at minimum it must
        # not crash and must return a boolean verdict.
        assert detected in (True, False)

    def test_validation(self):
        with pytest.raises(ValueError):
            relation_invariant_checker(max_jump=0)


class TestPopulationGraph:
    def test_structure(self):
        g = population_graph(1000, n_communities=10, rng=0)
        assert isinstance(g, nx.Graph)
        assert g.number_of_nodes() == 1000
        # Hubs exist: max degree well above the median community degree.
        degrees = np.array([d for _, d in g.degree])
        assert degrees.max() > 1.8 * np.median(degrees)

    def test_validation(self):
        with pytest.raises(ValueError):
            population_graph(10)
        with pytest.raises(ValueError):
            population_graph(100, hub_fraction=0.5)


class TestDefaultHierarchy:
    def test_three_levels_increasing_size_and_latency(self):
        specs = default_hierarchy()
        assert [s.name for s in specs] == ["l1", "l2", "l3"]
        sizes = [s.config.size_bytes for s in specs]
        latencies = [s.latency_cycles for s in specs]
        energies = [s.energy_per_access_j for s in specs]
        assert sizes == sorted(sizes)
        assert latencies == sorted(latencies)
        assert energies == sorted(energies)

    def test_usable_directly(self):
        h = MemoryHierarchy(default_hierarchy())
        res = h.run_trace(np.zeros(4, dtype=np.int64))
        assert res.accesses == 4
        assert res.level_hits["l1"] == 3  # one cold miss


class TestRetiredFastPathKnobs:
    """The kernel has one drain path and no mode to select."""

    def test_simulator_rejects_the_fastpath_argument(self):
        from repro.core.events import Simulator

        for mode in ("off", "auto"):
            with pytest.raises(TypeError):
                Simulator(fastpath=mode)

    def test_environment_variable_is_not_read(self, monkeypatch):
        from repro.core.events import Simulator

        monkeypatch.setenv("REPRO_FASTPATH", "bogus")
        sim = Simulator()
        sim.schedule_at(1.0, lambda s, p: None)
        assert sim.run().events_executed == 1


class TestTransportChaosConfig:
    """repro.exec.backends.chaos — spec parsing round-trip."""

    def test_spec_roundtrip_and_active_flag(self):
        from repro.exec.backends.chaos import ChaosConfig

        cfg = ChaosConfig(seed=7, drop=0.02, bitflip=0.01)
        assert cfg.active
        assert ChaosConfig.from_spec(cfg.to_spec()) == cfg
        assert not ChaosConfig().active

    def test_unknown_spec_key_fails_loud(self):
        from repro.exec.backends.chaos import ChaosConfig

        with pytest.raises(ValueError, match="known keys"):
            ChaosConfig.from_spec("drp=0.5")
