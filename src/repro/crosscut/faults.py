"""Fault-injection framework (paper Section 2.4 "Verifiability and
Reliability").

Two layers:

* **Architectural**: single-bit flips into the register state of the
  tiny-ISA in-order core mid-trace, classified the standard way —
  **masked** (architectural state converges to the golden run), **SDC**
  — silent data corruption (run completes, final state differs), or
  **detected** (a checker caught it).  The E19 experiment layers
  checkers from :mod:`repro.crosscut.invariants` on top.
* **System-level**: :class:`KernelFaultInjector` schedules random fault
  events on the shared event kernel and drives them into any model that
  implements ``inject_fault(sim, rng)`` (the cluster degrades a server,
  the NoC stalls a link, ...).  Because every simulator in the library
  runs on the one kernel, any of them gets fault injection without
  bespoke plumbing — the "ilities" as a cross-cutting layer, as the
  paper demands.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from ..core.events import Simulator
from ..core.rng import RngLike, resolve_rng
from ..processor.isa import Instruction, NUM_REGISTERS, Opcode


class Outcome(Enum):
    MASKED = "masked"
    SDC = "silent_data_corruption"
    DETECTED = "detected"


_MASK = (1 << 20) - 1


def execute_registers(
    trace: Sequence[Instruction],
    flip: Optional[tuple[int, int, int]] = None,
    checker: Optional[Callable[[Sequence[int]], bool]] = None,
) -> tuple[np.ndarray, bool]:
    """Architectural register-file interpreter for the tiny ISA.

    Executes a deterministic arithmetic semantics (each opcode a fixed
    integer function of its sources) so fault effects propagate
    realistically.  ``flip`` = (instruction_index, register, bit):
    before executing that instruction, flip that register bit.
    ``checker``, if given, is called on the register file after every
    instruction; returning False signals detection.

    The register file is kept as plain Python ints on the hot path
    (every stored value is non-negative, fits in int64, and the 20-bit
    result mask makes this bit-identical to int64 arithmetic), so the
    checker receives the **live register list** — it must not mutate
    it, and should copy if it retains state.

    Returns (final_registers as int64 array, detected).
    """
    regs: list[int] = list(range(1, NUM_REGISTERS + 1))  # nonzero init
    detected = False
    flip_idx = flip[0] if flip is not None else -1
    mask = _MASK
    for i, instr in enumerate(trace):
        if i == flip_idx:
            _, reg, bit = flip
            if not 0 <= reg < NUM_REGISTERS:
                raise ValueError("flip register out of range")
            if not 0 <= bit < 63:
                raise ValueError("flip bit out of range")
            regs[reg] ^= 1 << bit
        srcs = instr.srcs
        n_srcs = len(srcs)
        if n_srcs:
            a = regs[srcs[0]]
            b = regs[srcs[1]] if n_srcs > 1 else 1
        else:
            a = i
            b = 1
        opcode = instr.opcode
        if opcode is Opcode.ALU:
            value = (a + b) & mask
        elif opcode is Opcode.MUL:
            value = (a * b) & mask
        elif opcode is Opcode.DIV:
            value = a // (abs(b) + 1)
        elif opcode is Opcode.FPU or opcode is Opcode.FMA:
            c = regs[srcs[2]] if n_srcs > 2 else 3
            value = (a * b + c) & mask
        elif opcode is Opcode.LOAD:
            value = (instr.address or 0) & mask
        else:
            value = None
        if instr.dst is not None and value is not None:
            regs[instr.dst] = value
        if checker is not None and not checker(regs):
            detected = True
            break
    return np.array(regs, dtype=np.int64), detected


@dataclass
class CampaignResult:
    """Aggregate outcome counts from a fault-injection campaign."""

    outcomes: dict

    @property
    def total(self) -> int:
        return sum(self.outcomes.values())

    def rate(self, outcome: Outcome) -> float:
        if self.total == 0:
            return float("nan")
        return self.outcomes.get(outcome, 0) / self.total

    @property
    def sdc_rate(self) -> float:
        return self.rate(Outcome.SDC)

    @property
    def coverage(self) -> float:
        """Detected / (detected + SDC): checker quality on live faults."""
        detected = self.outcomes.get(Outcome.DETECTED, 0)
        sdc = self.outcomes.get(Outcome.SDC, 0)
        if detected + sdc == 0:
            return float("nan")
        return detected / (detected + sdc)


def injection_campaign(
    trace: Sequence[Instruction],
    n_injections: int = 200,
    checker: Optional[Callable[[np.ndarray], bool]] = None,
    checker_factory: Optional[
        Callable[[], Callable[[np.ndarray], bool]]
    ] = None,
    rng: RngLike = None,
    flips: Optional[Sequence[tuple[int, int, int]]] = None,
) -> CampaignResult:
    """Random single-bit-flip campaign against a trace.

    Each injection picks a random (instruction, register, bit) and
    compares the final register file to a golden run.  Pass
    ``checker_factory`` for stateful checkers (a fresh instance is
    built per injection so state cannot leak between runs); a plain
    ``checker`` is reused and must be stateless.

    Pass ``flips`` — an explicit sequence of (instruction_index,
    register, bit) triples — for a deterministic campaign whose
    outcomes are known by construction (e.g. classification tests);
    it overrides ``n_injections`` and draws nothing from ``rng``.
    """
    if flips is None and n_injections < 1:
        raise ValueError("need at least one injection")
    if not trace:
        raise ValueError("trace must be non-empty")
    if checker is not None and checker_factory is not None:
        raise ValueError("pass either checker or checker_factory, not both")
    if flips is not None:
        flips = [tuple(int(x) for x in f) for f in flips]
        if not flips:
            raise ValueError("flips must be non-empty when given")
        n_injections = len(flips)
    gen = resolve_rng(rng)
    golden, _ = execute_registers(trace)
    counts: dict = {o: 0 for o in Outcome}
    for k in range(n_injections):
        if flips is not None:
            flip = flips[k]
        else:
            flip = (
                int(gen.integers(len(trace))),
                int(gen.integers(NUM_REGISTERS)),
                int(gen.integers(31)),
            )
        run_checker = checker_factory() if checker_factory else checker
        final, detected = execute_registers(
            trace, flip=flip, checker=run_checker
        )
        if detected:
            counts[Outcome.DETECTED] += 1
        elif np.array_equal(final, golden):
            counts[Outcome.MASKED] += 1
        else:
            counts[Outcome.SDC] += 1
    return CampaignResult(outcomes=counts)


@runtime_checkable
class FaultTarget(Protocol):
    """Anything the kernel injector can shoot at.

    ``inject_fault`` applies one transient fault to the model's state at
    the simulator's current time (the cluster degrades a random server,
    the NoC stalls a random link, ...) and is responsible for scheduling
    its own recovery if the fault heals.
    """

    def inject_fault(self, sim: Simulator, rng: np.random.Generator) -> None: ...


class KernelFaultInjector:
    """Poisson fault process over the shared event kernel.

    Faults arrive with exponential interarrival times (``mean_interval``
    apart on average) and each one is delivered to a registered target,
    chosen uniformly when there are several.  Targets only need the
    :class:`FaultTarget` protocol, so any kernel-hosted model gains
    fault injection without bespoke plumbing.

    Usage::

        sim = Simulator()
        injector = KernelFaultInjector(mean_interval=50.0, rng=7)
        injector.register(cluster)
        injector.arm(sim, horizon=1_000.0)
        cluster.run(..., sim=sim)

    ``arm`` pre-schedules the whole fault train inside ``horizon`` so
    the injector composes with models that drive ``sim.run`` themselves;
    injections are counted and traced through ``sim.metrics``.
    """

    def __init__(
        self, mean_interval: float, rng: RngLike = None
    ) -> None:
        if mean_interval <= 0:
            raise ValueError("mean fault interval must be positive")
        self.mean_interval = float(mean_interval)
        self.rng = resolve_rng(rng)
        self.targets: List[FaultTarget] = []
        self.injected = 0
        self._tokens: list = []
        self._armed = False

    @property
    def armed(self) -> bool:
        """True between a successful :meth:`arm` and :meth:`disarm`."""
        return self._armed

    # -- Checkpointable protocol -------------------------------------------
    #
    # The injector's RNG advances on every fault delivery, so a kernel
    # restore must roll it back too — otherwise replayed fault events
    # would pick different targets/parameters than the original run and
    # crash-resume determinism would break.

    def snapshot_state(self):
        return (self.rng.bit_generator.state, self.injected)

    def restore_state(self, state) -> None:
        self.rng.bit_generator.state = state[0]
        self.injected = state[1]

    def register(self, target: FaultTarget) -> None:
        if not isinstance(target, FaultTarget):
            raise TypeError(
                f"{type(target).__name__} does not implement inject_fault()"
            )
        self.targets.append(target)

    def _fire(self, sim: Simulator, _payload) -> None:
        if not self.targets:
            return
        idx = (
            int(self.rng.integers(len(self.targets)))
            if len(self.targets) > 1
            else 0
        )
        target = self.targets[idx]
        target.inject_fault(sim, self.rng)
        self.injected += 1
        sim.metrics.scoped("faults").counter("injected").inc()

    def arm(self, sim: Simulator, horizon: float) -> int:
        """Pre-schedule the fault train on ``sim`` within ``horizon``.

        Returns the number of fault events scheduled.  Call
        :meth:`disarm` to cancel any that have not yet fired.  Arming
        twice without a disarm in between raises: it would schedule a
        second, overlapping fault train and double the effective rate.
        """
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if self._armed:
            raise RuntimeError(
                "KernelFaultInjector is already armed; call disarm() "
                "before re-arming (a second arm() would schedule a "
                "duplicate fault train)"
            )
        self._armed = True
        sim.register_checkpointable(self)
        t = sim.now
        scheduled = 0
        while True:
            t += float(self.rng.exponential(self.mean_interval))
            if t > sim.now + horizon:
                break
            self._tokens.append(sim.schedule_at(t, self._fire))
            scheduled += 1
        return scheduled

    def disarm(self) -> int:
        """Cancel every still-pending fault event; returns how many.

        Idempotent: a second disarm (or a disarm before any arm) is a
        no-op returning 0.
        """
        cancelled = 0
        for token in self._tokens:
            if not token.cancelled:
                token.cancel()
                cancelled += 1
        self._tokens.clear()
        self._armed = False
        return cancelled
