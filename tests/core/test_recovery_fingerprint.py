"""Golden recovery fingerprints: fixed fault seeds, pinned outcomes.

Each case runs one engine (``GpuFFT3D`` in-core, ``GpuFFT3D``
out-of-core on a 1 MiB card, ``BatchedGpuFFT3D`` with four entries)
under one seeded :class:`~repro.gpu.faults.FaultInjector` schedule, a
forward then an inverse transform, and pins everything the recovery
path decides: attempts, retries by class, checksum failures,
checkpoint restores, downgrades, the simulated clock (``repr``, so
every bit of every backoff draw counts) and a CRC of both outputs.
A refactor of the recovery code that changes any retry, backoff draw,
label or result buffer shows up here as a changed fingerprint.

``device_resets`` is deliberately not pinned; each case instead checks
it against the simulator's own count of resets performed.
"""

from __future__ import annotations

import zlib
from dataclasses import replace

import numpy as np
import pytest

from repro.core.api import GpuFFT3D
from repro.core.batch import BatchedGpuFFT3D
from repro.gpu.faults import FaultInjector, FaultSpec
from repro.gpu.specs import GEFORCE_8800_GT

TINY = replace(GEFORCE_8800_GT, memory_mbytes=1)

#: name -> (fault specs, injector seed)
SCENARIOS = {
    "transfer-corrupt": ([FaultSpec("transfer-corrupt", rate=0.2, at_ops=(0,))], 11),
    "transfer-fail": ([FaultSpec("transfer-fail", rate=0.2, at_ops=(1,))], 12),
    "launch-fail": ([FaultSpec("launch-fail", rate=0.2, at_ops=(2,))], 13),
    "ecc-bitflip": ([FaultSpec("ecc-bitflip", rate=0.2, at_ops=(0, 1, 5))], 14),
    "alloc-fail": ([FaultSpec("alloc-fail", rate=0.3, at_ops=(0,))], 15),
    "device-lost": (
        [FaultSpec("device-lost", at_ops=(3,), category="transfer")],
        16,
    ),
    "device-lost-persistent": (
        [FaultSpec("device-lost", rate=1.0, category="transfer")],
        17,
    ),
    "transfer-exhausted": ([FaultSpec("transfer-fail", rate=0.9)], 18),
    "mixed": (
        [
            FaultSpec("transfer-corrupt", rate=0.1),
            FaultSpec("transfer-fail", rate=0.1),
            FaultSpec("launch-fail", rate=0.1),
            FaultSpec("ecc-bitflip", rate=0.1),
            FaultSpec("alloc-fail", rate=0.2),
            FaultSpec("device-lost", at_ops=(7,), category="transfer"),
        ],
        19,
    ),
}

ENGINES = ("in-core", "out-of-core", "batched")


def _inputs(engine: str) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(2008)
    shape = {
        "in-core": (16, 16, 16),
        "out-of-core": (64, 64, 64),
        "batched": (4, 16, 16, 16),
    }[engine]
    xs = [
        (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
            np.complex64
        )
        for _ in range(2)
    ]
    return xs[0], xs[1]


def make_engine(engine: str, inj: FaultInjector):
    if engine == "in-core":
        return GpuFFT3D((16, 16, 16), fault_injector=inj, name="fp")
    if engine == "out-of-core":
        plan = GpuFFT3D((64, 64, 64), device=TINY, fault_injector=inj, name="fp")
        assert plan.out_of_core
        return plan
    return BatchedGpuFFT3D((16, 16, 16), fault_injector=inj, name="fp")


def _crc_of_both(plan, engine: str) -> int:
    """CRC of the forward of one input and the inverse of the other."""
    x0, x1 = _inputs(engine)
    y0 = plan.forward(x0)
    y1 = plan.inverse(x1)
    return zlib.crc32(np.ascontiguousarray(y1), zlib.crc32(np.ascontiguousarray(y0)))


def run_case(engine: str, scenario: str):
    """(engine, fingerprint dict) after one forward and one inverse."""
    specs, seed = SCENARIOS[scenario]
    plan = make_engine(engine, FaultInjector(specs, seed=seed))
    crc = _crc_of_both(plan, engine)
    r = plan.resilience_report()
    return plan, {
        "attempts": r.attempts,
        "retries": dict(sorted(r.retries.items())),
        "checksum_failures": r.checksum_failures,
        "checkpoint_restores": r.checkpoint_restores,
        "downgrades": list(r.downgrades),
        "elapsed": repr(plan.simulator.elapsed),
        "crc": crc,
    }


#: Recorded before the engines were folded onto one recovery path.  A
#: case with a host-fallback downgrade has its engine's fault-free
#: ``crc`` (in-core 4238705868, batched 4027041317, out-of-core
#: 3275009134): a degraded transform runs the engine's own plan.
GOLDEN: dict[tuple[str, str], dict] = {
    ("in-core", "alloc-fail"): dict(
        attempts=14,
        retries={"alloc": 1},
        checksum_failures=0,
        checkpoint_restores=0,
        downgrades=[],
        elapsed="0.00036180191652634795",
        crc=4238705868,
    ),
    ("in-core", "device-lost"): dict(
        attempts=21,
        retries={},
        checksum_failures=0,
        checkpoint_restores=0,
        downgrades=[],
        elapsed="0.00035817823335183",
        crc=4238705868,
    ),
    ("in-core", "device-lost-persistent"): dict(
        attempts=6,
        retries={},
        checksum_failures=0,
        checkpoint_restores=0,
        downgrades=["host-fallback: device lost"] * 2,
        elapsed="0.00014268024694629185",
        crc=4238705868,
    ),
    ("in-core", "ecc-bitflip"): dict(
        attempts=32,
        retries={"ecc": 3},
        checksum_failures=0,
        checkpoint_restores=0,
        downgrades=[],
        elapsed="0.0013535018542884746",
        crc=4238705868,
    ),
    ("in-core", "launch-fail"): dict(
        attempts=17,
        retries={"launch": 3},
        checksum_failures=0,
        checkpoint_restores=0,
        downgrades=[],
        elapsed="0.0006334409285543228",
        crc=4238705868,
    ),
    ("in-core", "mixed"): dict(
        attempts=16,
        retries={"launch": 1, "transfer": 1},
        checksum_failures=0,
        checkpoint_restores=0,
        downgrades=[],
        elapsed="0.0005019094470494356",
        crc=4238705868,
    ),
    ("in-core", "transfer-corrupt"): dict(
        attempts=19,
        retries={"corruption": 4, "ecc": 1},
        checksum_failures=5,
        checkpoint_restores=0,
        downgrades=[],
        elapsed="0.0012044942350644913",
        crc=4238705868,
    ),
    ("in-core", "transfer-exhausted"): dict(
        attempts=14,
        retries={"transfer": 6},
        checksum_failures=0,
        checkpoint_restores=0,
        downgrades=["host-fallback: TransferError"] * 2,
        elapsed="0.0017846634557130597",
        crc=4238705868,
    ),
    ("in-core", "transfer-fail"): dict(
        attempts=17,
        retries={"transfer": 3},
        checksum_failures=0,
        checkpoint_restores=0,
        downgrades=[],
        elapsed="0.0007522900254555438",
        crc=4238705868,
    ),
    ("out-of-core", "alloc-fail"): dict(
        attempts=56,
        retries={},
        checksum_failures=0,
        checkpoint_restores=0,
        downgrades=["host-fallback: AllocationError"],
        elapsed="0.007983025481949051",
        crc=3275009134,
    ),
    ("out-of-core", "device-lost"): dict(
        attempts=116,
        retries={},
        checksum_failures=0,
        checkpoint_restores=1,
        downgrades=[],
        elapsed="0.011701822668255457",
        crc=3275009134,
    ),
    ("out-of-core", "device-lost-persistent"): dict(
        attempts=6,
        retries={},
        checksum_failures=0,
        checkpoint_restores=4,
        downgrades=["host-fallback: DeviceLostError"] * 2,
        elapsed="0.0048020214809847694",
        crc=3275009134,
    ),
    ("out-of-core", "ecc-bitflip"): dict(
        attempts=146,
        retries={"ecc": 14},
        checksum_failures=0,
        checkpoint_restores=0,
        downgrades=["host-fallback: CorruptionError"],
        elapsed="0.018769557887528855",
        crc=3275009134,
    ),
    ("out-of-core", "launch-fail"): dict(
        attempts=123,
        retries={"launch": 11},
        checksum_failures=0,
        checkpoint_restores=0,
        downgrades=[],
        elapsed="0.012693067611966884",
        crc=3275009134,
    ),
    ("out-of-core", "mixed"): dict(
        attempts=61,
        retries={"corruption": 1, "ecc": 2, "launch": 5, "transfer": 5},
        checksum_failures=1,
        checkpoint_restores=1,
        downgrades=["host-fallback: AllocationError"] * 2,
        elapsed="0.011821654357762253",
        crc=3275009134,
    ),
    ("out-of-core", "transfer-corrupt"): dict(
        attempts=71,
        retries={"corruption": 10},
        checksum_failures=11,
        checkpoint_restores=0,
        downgrades=["host-fallback: CorruptionError"],
        elapsed="0.010454673774438646",
        crc=3275009134,
    ),
    ("out-of-core", "transfer-exhausted"): dict(
        attempts=11,
        retries={"transfer": 6},
        checksum_failures=0,
        checkpoint_restores=0,
        downgrades=["host-fallback: TransferError"] * 2,
        elapsed="0.006678989873270192",
        crc=3275009134,
    ),
    ("out-of-core", "transfer-fail"): dict(
        attempts=126,
        retries={"transfer": 14},
        checksum_failures=0,
        checkpoint_restores=0,
        downgrades=[],
        elapsed="0.013428991464869441",
        crc=3275009134,
    ),
    ("batched", "alloc-fail"): dict(
        attempts=56,
        retries={"alloc": 3},
        checksum_failures=0,
        checkpoint_restores=0,
        downgrades=[],
        elapsed="0.0010661999646989005",
        crc=4027041317,
    ),
    ("batched", "device-lost"): dict(
        attempts=63,
        retries={},
        checksum_failures=0,
        checkpoint_restores=0,
        downgrades=[],
        elapsed="0.0008359372694964078",
        crc=4027041317,
    ),
    ("batched", "device-lost-persistent"): dict(
        attempts=6,
        retries={},
        checksum_failures=0,
        checkpoint_restores=0,
        downgrades=["host-fallback: device lost"] * 8,
        elapsed="0.00028614226438091205",
        crc=4027041317,
    ),
    ("batched", "ecc-bitflip"): dict(
        attempts=85,
        retries={"ecc": 5},
        checksum_failures=0,
        checkpoint_restores=0,
        downgrades=["host-fallback: CorruptionError"],
        elapsed="0.0020845204812440727",
        crc=4027041317,
    ),
    ("batched", "launch-fail"): dict(
        attempts=66,
        retries={"launch": 10},
        checksum_failures=0,
        checkpoint_restores=0,
        downgrades=[],
        elapsed="0.0019309366830035216",
        crc=4027041317,
    ),
    ("batched", "mixed"): dict(
        attempts=81,
        retries={"alloc": 5, "corruption": 2, "ecc": 1, "launch": 9, "transfer": 1},
        checksum_failures=2,
        checkpoint_restores=0,
        downgrades=[],
        elapsed="0.004034584843232858",
        crc=4027041317,
    ),
    ("batched", "transfer-corrupt"): dict(
        attempts=62,
        retries={"corruption": 5, "ecc": 1},
        checksum_failures=6,
        checkpoint_restores=0,
        downgrades=[],
        elapsed="0.0018352794005164438",
        crc=4027041317,
    ),
    ("batched", "transfer-exhausted"): dict(
        attempts=52,
        retries={"transfer": 26},
        checksum_failures=0,
        checkpoint_restores=0,
        downgrades=["host-fallback: TransferError"] * 7,
        elapsed="0.006965349378970325",
        crc=4027041317,
    ),
    ("batched", "transfer-fail"): dict(
        attempts=63,
        retries={"transfer": 7},
        checksum_failures=0,
        checkpoint_restores=0,
        downgrades=[],
        elapsed="0.0017470404224360127",
        crc=4027041317,
    ),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("engine", ENGINES)
def test_fingerprint_matches_golden(engine, scenario):
    plan, got = run_case(engine, scenario)
    assert got == GOLDEN[engine, scenario]
    # Resets performed, each counted once (the simulator owns the clock
    # and the card here, so it saw every one).
    assert plan.resilience.device_resets == plan.simulator.device_resets


@pytest.mark.parametrize("engine", ENGINES)
def test_host_fallback_cases_return_the_fault_free_bits(engine):
    # An empty injector keeps the copying path without firing a fault.
    clean = _crc_of_both(make_engine(engine, FaultInjector()), engine)
    degraded = [
        g for (e, _), g in GOLDEN.items()
        if e == engine and any("host-fallback" in d for d in g["downgrades"])
    ]
    assert degraded
    assert all(g["crc"] == clean for g in degraded)
