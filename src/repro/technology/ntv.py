"""Near-threshold-voltage (NTV) operation model (paper Section 2.3).

"Near-threshold voltage operation has tremendous potential to reduce
power but at the cost of reliability, driving a new discipline of
resiliency-centered design."

The model composes four standard pieces:

* dynamic energy per operation ~ C * Vdd^2,
* leakage *power* roughly constant near/below nominal but leakage
  *energy per op* ~ leakage * delay, and delay blows up near Vth
  (alpha-power law), so total energy/op is U-shaped in Vdd with a
  minimum near or just below threshold,
* timing-error probability rising steeply as the Vdd guardband over
  (Vth + margin for variation) shrinks,
* a resilience scheme (Razor-style detect+replay) that converts errors
  into recovery energy/time, shifting the *effective* optimum back up
  in voltage.

:func:`effective_energy_sweep` produces the headline curve: raw
energy/op, error rate, and effective (resilience-adjusted) energy/op
across a Vdd sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core import units
from .node import TechnologyNode, get_node
from .reliability import vth_sigma_mv


@dataclass(frozen=True)
class NTVModel:
    """Voltage-scaling model for one technology node.

    Parameters
    ----------
    node:
        The CMOS node being scaled.
    alpha:
        Alpha-power-law velocity-saturation exponent (1.2-1.5 for
        short-channel devices).
    transistors_per_op:
        Effective transistor switches per "operation" — sets the
        absolute energy scale (~5e3 switches/op for a simple core).
    leakage_fraction_nominal:
        Fraction of total power that is leakage at nominal Vdd (sets
        the leakage current scale).
    subthreshold_slope_mv_dec:
        Subthreshold swing [mV/decade]; >= 60 mV/dec at 300 K.
    logic_depth:
        Gates per critical path; variation averages over the path, so
        per-path delay sigma shrinks as 1/sqrt(logic_depth).
    avt_mv_um:
        Pelgrom matching coefficient for the (larger-than-minimum)
        logic devices on critical paths.
    """

    node: TechnologyNode
    alpha: float = 1.3
    transistors_per_op: float = 5e3
    leakage_fraction_nominal: float = 0.15
    subthreshold_slope_mv_dec: float = 90.0
    logic_depth: float = 30.0
    avt_mv_um: float = 1.5

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.transistors_per_op <= 0:
            raise ValueError("transistors_per_op must be positive")
        if not 0.0 <= self.leakage_fraction_nominal < 1.0:
            raise ValueError("leakage fraction must be in [0, 1)")
        if self.logic_depth < 1:
            raise ValueError("logic_depth must be >= 1")
        if self.avt_mv_um <= 0:
            raise ValueError("avt_mv_um must be positive")
        min_slope = units.THERMAL_VOLTAGE_300K * np.log(10.0) * 1000.0
        if self.subthreshold_slope_mv_dec < min_slope:
            raise ValueError(
                f"subthreshold slope below the {min_slope:.1f} mV/dec "
                "thermodynamic floor"
            )

    # -- building blocks ----------------------------------------------------

    def _validate_vdd(self, vdd: np.ndarray) -> np.ndarray:
        v = np.asarray(vdd, dtype=float)
        if np.any(v <= 0):
            raise ValueError("vdd must be positive")
        return v

    def relative_delay(self, vdd: np.ndarray | float) -> np.ndarray:
        """Gate delay vs. nominal (alpha-power above Vth, exponential
        subthreshold below)."""
        v = self._validate_vdd(np.atleast_1d(vdd))
        vth = self.node.vth_v
        nominal = self.node.vdd_v / (self.node.vdd_v - vth) ** self.alpha
        out = np.empty_like(v)
        above = v > vth + 0.02
        out[above] = (v[above] / (v[above] - vth) ** self.alpha) / nominal
        # Subthreshold: delay grows exponentially with (Vth - V).
        slope_v = self.subthreshold_slope_mv_dec / 1000.0
        boundary = vth + 0.02
        boundary_delay = (boundary / (boundary - vth) ** self.alpha) / nominal
        below = ~above
        out[below] = boundary_delay * 10.0 ** ((boundary - v[below]) / slope_v)
        return out

    def dynamic_energy_per_op(self, vdd: np.ndarray | float) -> np.ndarray:
        """Dynamic (CV^2) energy per operation [J]."""
        v = self._validate_vdd(np.atleast_1d(vdd))
        return (
            self.transistors_per_op
            * self.node.cap_per_tx_f
            * v**2
        )

    def leakage_energy_per_op(self, vdd: np.ndarray | float) -> np.ndarray:
        """Leakage energy per op [J]: leakage power x (stretched) delay.

        Leakage current scales roughly linearly with Vdd (DIBL-ish);
        the dominant effect is the delay stretch at low voltage.
        """
        v = self._validate_vdd(np.atleast_1d(vdd))
        e_dyn_nom = float(self.dynamic_energy_per_op(self.node.vdd_v)[0])
        # Leakage energy/op at nominal implied by the leakage fraction:
        f = self.leakage_fraction_nominal
        e_leak_nom = e_dyn_nom * f / (1.0 - f)
        v_scale = v / self.node.vdd_v
        return e_leak_nom * v_scale * self.relative_delay(v)

    def energy_per_op(self, vdd: np.ndarray | float) -> np.ndarray:
        """Total (dynamic + leakage) energy per operation [J]."""
        return self.dynamic_energy_per_op(vdd) + self.leakage_energy_per_op(vdd)

    def optimal_vdd(self, lo: float = 0.1, hi: Optional[float] = None) -> float:
        """Vdd minimizing raw energy/op (grid + golden-section refine)."""
        hi = self.node.vdd_v if hi is None else hi
        if not 0 < lo < hi:
            raise ValueError("need 0 < lo < hi")
        grid = np.linspace(lo, hi, 400)
        energies = self.energy_per_op(grid)
        return float(grid[int(np.argmin(energies))])

    # -- reliability coupling ------------------------------------------------

    def timing_error_rate(
        self,
        vdd: np.ndarray | float,
        guardband: float = 0.15,
        paths: float = 1e4,
    ) -> np.ndarray:
        """Per-operation probability of a timing violation.

        A path fails when its delay (spread by Vth variation) exceeds
        the clock period set with ``guardband`` over nominal delay *at
        that voltage*.  Variation-induced delay sigma grows as Vdd
        approaches Vth, which is what makes NTV "at the cost of
        reliability".  Per-gate sigma averages over ``logic_depth``
        gates per path; ``paths`` near-critical paths per op fail
        independently (Gaussian tail each).
        """
        v = self._validate_vdd(np.atleast_1d(vdd))
        if guardband < 0:
            raise ValueError("guardband must be non-negative")
        if paths <= 0:
            raise ValueError("paths must be positive")
        from scipy import special

        sigma_vth = vth_sigma_mv(self.node, self.avt_mv_um) / 1000.0
        vth = self.node.vth_v
        # Delay sensitivity to Vth: d(ln delay)/dVth = alpha/(V - Vth),
        # averaged over logic_depth independent gates per path.
        headroom = np.maximum(v - vth, 1e-3)
        sigma_delay_rel = (
            self.alpha * sigma_vth / headroom / np.sqrt(self.logic_depth)
        )
        # Path fails if normal(0, sigma) exceeds the guardband.
        z = guardband / np.maximum(sigma_delay_rel, 1e-12)
        p_path = 0.5 * special.erfc(z / np.sqrt(2.0))
        p_op = 1.0 - (1.0 - p_path) ** paths
        return p_op

    def effective_energy_per_op(
        self,
        vdd: np.ndarray | float,
        recovery_overhead: float = 10.0,
        guardband: float = 0.15,
        paths: float = 1e4,
    ) -> np.ndarray:
        """Energy/op including detect-and-replay recovery.

        Each error costs ``recovery_overhead`` extra operations' worth
        of energy (pipeline flush + replay).  E_eff = E * (1 + r *
        overhead) / (1 - r) — the (1-r) accounts for retried work; the
        model saturates to inf as r -> 1.
        """
        if recovery_overhead < 0:
            raise ValueError("recovery overhead must be non-negative")
        energy = self.energy_per_op(vdd)
        rate = self.timing_error_rate(vdd, guardband=guardband, paths=paths)
        with np.errstate(divide="ignore"):
            eff = energy * (1.0 + rate * recovery_overhead) / np.maximum(
                1.0 - rate, 1e-12
            )
        return eff


def effective_energy_sweep(
    node_name: str = "22nm",
    vdd_lo: float = 0.25,
    vdd_hi: Optional[float] = None,
    n: int = 60,
    **model_kwargs,
) -> dict[str, np.ndarray]:
    """Convenience sweep for the E12 bench: voltage grid, raw and
    effective energy/op, error rate, and relative speed."""
    model = NTVModel(get_node(node_name), **model_kwargs)
    hi = model.node.vdd_v if vdd_hi is None else vdd_hi
    vdd = np.linspace(vdd_lo, hi, n)
    return {
        "vdd": vdd,
        "energy_per_op": model.energy_per_op(vdd),
        "effective_energy_per_op": model.effective_energy_per_op(vdd),
        "error_rate": model.timing_error_rate(vdd),
        "relative_speed": 1.0 / model.relative_delay(vdd),
    }
