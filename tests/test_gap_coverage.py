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


class TestMacroTwins:
    """repro.core.macro — the PR8 scalar/batch pairing contract."""

    def test_as_macro_attaches_twin_and_returns_scalar(self):
        from repro.core.macro import MACRO_ATTR, as_macro

        def scalar(sim, payload):
            return None

        def batch(sim, run):
            return 0

        out = as_macro(scalar, batch)
        assert out is scalar
        assert getattr(out, MACRO_ATTR) is batch

    def test_plain_callable_has_no_twin(self):
        from repro.core.macro import MACRO_ATTR

        assert not hasattr(lambda: None, MACRO_ATTR)


class TestFastPathMode:
    """repro.core.fastpath — mode resolution precedence + validation."""

    def test_explicit_beats_environment(self, monkeypatch):
        from repro.core.fastpath import ENV_VAR, resolve_mode

        monkeypatch.setenv(ENV_VAR, "off")
        assert resolve_mode("auto") == "auto"
        assert resolve_mode() == "off"

    def test_defaults_to_auto_and_normalizes(self, monkeypatch):
        from repro.core.fastpath import ENV_VAR, resolve_mode

        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_mode() == "auto"
        assert resolve_mode(" OFF ") == "off"

    def test_invalid_mode_is_a_value_error_naming_choices(self):
        from repro.core.fastpath import resolve_mode

        for bad in ("fast", "on"):  # "on" was the retired trace-JIT mode
            with pytest.raises(ValueError, match="auto"):
                resolve_mode(bad)

    def test_simulator_exposes_resolved_mode(self):
        from repro.core.events import Simulator

        assert Simulator(fastpath="off").fastpath_mode == "off"


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


class TestRouterTrustPolicies:
    """repro.exec.backends.router — hedge/verify policy surface."""

    def test_verify_modes_map_to_replica_counts(self):
        from repro.exec.backends.router import VerifyPolicy

        assert VerifyPolicy(mode="dmr").replicas == 2
        assert VerifyPolicy(mode="vote").replicas == 3
        with pytest.raises(ValueError, match="dmr"):
            VerifyPolicy(mode="tmr")
        with pytest.raises(ValueError):
            VerifyPolicy(quarantine_after=0)

    def test_hedge_policy_defaults(self):
        from repro.exec.backends.router import HedgePolicy

        policy = HedgePolicy()
        assert policy.delay_s is None  # adaptive until observations land
        assert 0.0 < policy.quantile < 1.0
        assert policy.min_observations >= 1
