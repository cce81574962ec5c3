"""Kernel descriptors: what a CUDA kernel declares to the simulator.

A :class:`KernelSpec` is the meeting point of the functional and timing
layers: the functional layer executes the kernel's math on NumPy arrays,
while the spec carries everything the performance model needs — launch
geometry, register/shared-memory footprint, instruction mix per work item,
and the memory access patterns as :class:`BurstPattern` streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.gpu.access import BurstPattern
from repro.gpu.isa import InstructionMix

__all__ = ["MemoryAccessSpec", "KernelSpec", "LaunchResult"]


@dataclass(frozen=True)
class MemoryAccessSpec:
    """One array's traffic within a kernel.

    ``via_texture`` routes the stream through the texture cache path
    instead of coalesced global loads (the paper's step-5 twiddle option
    and the Table 9 no-shared-memory variant).
    """

    pattern: BurstPattern
    via_texture: bool = False

    @property
    def total_bytes(self) -> int:
        return self.pattern.total_bytes


@dataclass(frozen=True)
class KernelSpec:
    """Complete declaration of one kernel launch."""

    name: str
    grid_blocks: int
    threads_per_block: int
    regs_per_thread: int
    shared_bytes_per_block: int
    work_items: int
    mix: InstructionMix
    memory: tuple[MemoryAccessSpec, ...]
    #: Overlap memory and compute phases (the double-buffering of
    #: Section 3: "CUDA kernels including FFT usually consist of two
    #: phases for latency hiding").
    double_buffered: bool = True

    def __post_init__(self) -> None:
        if self.grid_blocks <= 0 or self.threads_per_block <= 0:
            raise ValueError("launch geometry must be positive")
        if self.work_items < 0:
            raise ValueError("work_items must be non-negative")
        if not self.memory:
            raise ValueError("a kernel must declare its memory accesses")

    @property
    def total_threads(self) -> int:
        return self.grid_blocks * self.threads_per_block

    @property
    def global_bytes(self) -> int:
        return sum(m.total_bytes for m in self.memory if not m.via_texture)

    @property
    def texture_bytes(self) -> int:
        return sum(m.total_bytes for m in self.memory if m.via_texture)

    # Summed once: the simulator records both on every launch.
    @cached_property
    def total_bytes(self) -> int:
        return self.global_bytes + self.texture_bytes

    @cached_property
    def total_flops(self) -> float:
        return self.mix.flops * self.work_items


@dataclass(frozen=True)
class LaunchResult:
    """Record of one simulated launch (kept on the simulator timeline)."""

    kernel: str
    seconds: float
    bytes_moved: int
    flops: float
    bound: str  # "memory" | "compute" | "transfer"

    @property
    def gbytes_per_s(self) -> float:
        return self.bytes_moved / self.seconds / 1e9 if self.seconds > 0 else 0.0

    @property
    def gflops(self) -> float:
        return self.flops / self.seconds / 1e9 if self.seconds > 0 else 0.0
