"""SI units, prefixes, and physical constants used across the toolkit.

Everything in the library is expressed in base SI units (seconds, joules,
watts, meters, bits, operations).  This module centralizes the prefix
constants and a handful of convenience converters so that models never
embed magic powers of ten.

The paper's energy-efficiency goal — "an exa-op data center that consumes
no more than 10 megawatts (MW), a peta-op departmental server ... 10
kilowatts, a tera-op portable device ... 10 watts, and a giga-op sensor
system ... 10 milliwatts" (Section 2.2) — works out to the single figure
of merit :data:`PAPER_TARGET_OPS_PER_WATT` = 1e11 ops/s/W (100 GOPS/W).
"""

from __future__ import annotations

import math
import operator

# ---------------------------------------------------------------------------
# SI prefixes (as plain floats; multiply to convert *to* base units)
# ---------------------------------------------------------------------------

YOCTO = 1e-24
ZEPTO = 1e-21
ATTO = 1e-18
FEMTO = 1e-15
PICO = 1e-12
NANO = 1e-9
MICRO = 1e-6
MILLI = 1e-3
KILO = 1e3
MEGA = 1e6
GIGA = 1e9
TERA = 1e12
PETA = 1e15
EXA = 1e18
ZETTA = 1e21

# Binary prefixes for capacities.
KIB = 1024
MIB = 1024**2
GIB = 1024**3
TIB = 1024**4

# ---------------------------------------------------------------------------
# Physical constants
# ---------------------------------------------------------------------------

#: Boltzmann constant [J/K].
BOLTZMANN = 1.380649e-23

#: Elementary charge [C].
ELEMENTARY_CHARGE = 1.602176634e-19

#: Thermal voltage kT/q at 300 K [V] — sets the subthreshold slope floor
#: that near-threshold-voltage models run up against.
THERMAL_VOLTAGE_300K = BOLTZMANN * 300.0 / ELEMENTARY_CHARGE

#: Speed of light in vacuum [m/s]; photonic link models divide by the
#: group index of the waveguide.
SPEED_OF_LIGHT = 299_792_458.0

# ---------------------------------------------------------------------------
# Paper-anchored constants
# ---------------------------------------------------------------------------

#: The Section 2.2 platform targets all reduce to 100 GOPS/W.
PAPER_TARGET_OPS_PER_WATT = 100.0 * GIGA

#: "today's ~10 giga-operations/watt" for portable devices (Section 2.1).
PAPER_CIRCA_2012_MOBILE_OPS_PER_WATT = 10.0 * GIGA

#: Paper power envelopes per platform class [W] (Section 2.2).
PAPER_POWER_ENVELOPES = {
    "sensor": 10.0 * MILLI,
    "portable": 10.0,
    "departmental": 10.0 * KILO,
    "datacenter": 10.0 * MEGA,
}

#: Paper throughput targets per platform class [ops/s] (Section 2.2).
PAPER_THROUGHPUT_TARGETS = {
    "sensor": GIGA,
    "portable": TERA,
    "departmental": PETA,
    "datacenter": EXA,
}

#: "five 9's or 99.999% availability (all but five minutes per year)".
FIVE_NINES = 0.99999

SECONDS_PER_YEAR = 365.25 * 24 * 3600.0

# ---------------------------------------------------------------------------
# Converters
# ---------------------------------------------------------------------------


def is_integer(value) -> bool:
    """Python and numpy integers, not floats (even integral ones)."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def db(ratio: float) -> float:
    """Express a power ratio in decibels."""
    if ratio <= 0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    return 10.0 * math.log10(ratio)


def from_db(decibels: float) -> float:
    """Convert decibels back to a power ratio."""
    return 10.0 ** (decibels / 10.0)


def joules_per_op(ops_per_watt: float) -> float:
    """Invert an efficiency (ops/s/W) into an energy per operation [J].

    ops/s/W == ops/J, so this is a plain reciprocal, but naming the
    conversion keeps call sites legible.
    """
    if ops_per_watt <= 0:
        raise ValueError(f"ops_per_watt must be positive, got {ops_per_watt}")
    return 1.0 / ops_per_watt


def ops_per_watt(energy_per_op_j: float) -> float:
    """Invert an energy per operation [J] into an efficiency (ops/s/W)."""
    if energy_per_op_j <= 0:
        raise ValueError(
            f"energy_per_op_j must be positive, got {energy_per_op_j}"
        )
    return 1.0 / energy_per_op_j


def downtime_seconds_per_year(availability: float) -> float:
    """Expected downtime per year for a given availability fraction."""
    if not 0.0 <= availability <= 1.0:
        raise ValueError(f"availability must be in [0, 1], got {availability}")
    return (1.0 - availability) * SECONDS_PER_YEAR


def availability_from_downtime(downtime_s_per_year: float) -> float:
    """Availability fraction implied by a yearly downtime budget."""
    if downtime_s_per_year < 0:
        raise ValueError("downtime cannot be negative")
    frac = 1.0 - downtime_s_per_year / SECONDS_PER_YEAR
    return max(0.0, frac)


def si_format(value: float, unit: str = "", digits: int = 3) -> str:
    """Render ``value`` with an SI prefix, e.g. ``si_format(3.2e9, 'op/s')``.

    Chooses the largest prefix with magnitude <= value; values below
    1e-24 or zero render without a prefix.
    """
    prefixes = [
        (EXA, "E"), (PETA, "P"), (TERA, "T"), (GIGA, "G"), (MEGA, "M"),
        (KILO, "k"), (1.0, ""), (MILLI, "m"), (MICRO, "u"), (NANO, "n"),
        (PICO, "p"), (FEMTO, "f"), (ATTO, "a"),
    ]
    if value == 0 or not math.isfinite(value):
        return f"{value:.{digits}g} {unit}".rstrip()
    mag = abs(value)
    for scale, prefix in prefixes:
        if mag >= scale:
            return f"{value / scale:.{digits}g} {prefix}{unit}".rstrip()
    scale, prefix = prefixes[-1]
    return f"{value / scale:.{digits}g} {prefix}{unit}".rstrip()
