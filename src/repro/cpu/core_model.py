"""The per-core model: owns the stateful structures, executes windows.

A :class:`CoreModel` is the :class:`~repro.hpm.hpmstat.WindowExecutor`
the sampling tool drives.  Caches, translation structures, predictor
tables and prefetch streams persist *across* windows (they are hardware
state); counters are reset per window (hpmstat reads and clears them).

The phase composition of each window comes from a
:class:`PhaseSchedule` — in real experiments the bridge from the
workload timeline (:mod:`repro.workload.bridge`), in unit tests a
simple static schedule.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.config import MachineConfig, SamplingConfig
from repro.cpu.branch import BranchUnit
from repro.cpu.hierarchy import MemorySystem
from repro.cpu.phases import PhaseDescriptor
from repro.cpu.regions import AddressSpace
from repro.cpu.stream import KernelTables, SliceRunner
from repro.cpu.pipeline import PipelineAccountant
from repro.cpu.translation import TranslationUnit
from repro.hpm.counters import CounterBank, CounterSnapshot
from repro.util.rng import RngFactory


class PhaseSchedule(Protocol):
    """Maps window indices to phase descriptors."""

    def descriptor_for(self, window_index: int) -> PhaseDescriptor:
        ...


class StaticSchedule:
    """A schedule that returns the same descriptor for every window."""

    def __init__(self, descriptor: PhaseDescriptor):
        self._descriptor = descriptor

    def descriptor_for(self, window_index: int) -> PhaseDescriptor:
        return self._descriptor


class CoreModel:
    """One simulated core plus its private memory-side structures.

    The collaborating structure classes are class attributes so that a
    subclass can swap implementations wholesale —
    :class:`repro.cpu.reference.ReferenceCoreModel` rebinds all of them
    to the pinned pre-optimization kernels for equivalence tests and
    benchmarking.
    """

    counter_bank_cls = CounterBank
    memory_system_cls = MemorySystem
    translation_unit_cls = TranslationUnit
    branch_unit_cls = BranchUnit
    slice_runner_cls = SliceRunner
    accountant_cls = PipelineAccountant

    def __init__(
        self,
        machine: MachineConfig,
        space: AddressSpace,
        schedule: PhaseSchedule,
        sampling: SamplingConfig,
        rng_factory: RngFactory,
    ):
        self.machine = machine
        self.space = space
        self.schedule = schedule
        self.sampling = sampling
        self._bank = self.counter_bank_cls()
        self._rng_stream = rng_factory.stream("cpu.stream")
        self._rng_backing = rng_factory.stream("cpu.backing")
        self._rng_pipeline = rng_factory.stream("cpu.pipeline")
        self.memory = self.memory_system_cls(machine, self._bank, self._rng_backing)
        self.translation = self.translation_unit_cls(machine.translation)
        self.branches = self.branch_unit_cls(machine.branch)
        # The fused kernel's region tables, shared by every slice.
        self._kernel_tables = KernelTables(space, machine.latencies)
        self.windows_executed = 0

    def execute_window(self, window_index: int) -> CounterSnapshot:
        """Execute one sampling window and return its counters."""
        self._bank.reset()
        accountant = self.accountant_cls(self.machine.latencies, self._rng_pipeline)
        descriptor = self.schedule.descriptor_for(window_index)
        budget = float(self.sampling.window_cycles)
        target = 0.0
        for profile, fraction in descriptor.slices:
            if fraction <= 0.0:
                continue
            target += fraction * budget
            runner = self.slice_runner_cls(
                profile=profile,
                space=self.space,
                memory=self.memory,
                translation=self.translation,
                branches=self.branches,
                accountant=accountant,
                counters=self._bank,
                rng=self._rng_stream,
                tables=self._kernel_tables,
            )
            runner.run_until(target)
        accountant.finalize(self._bank)
        self.windows_executed += 1
        return self._bank.snapshot()

    def warm_up(self, window_indices: Sequence[int]) -> None:
        """Execute windows to warm caches/TLBs; results are discarded."""
        for idx in window_indices:
            self.execute_window(idx)
