"""End-to-end wall-clock gate: the batch scan kernel on the full stack.

The Fig. 10 initial condition — four staggered debian VMs on a
16k-frame machine under a fusion engine — driven by the sampling-heavy
monitoring loop that motivated both the columnar store and the batch
scan kernel.  Per 10 ms of simulated time, fleet telemetry reads
``frames_in_use``, the Table 3 frame-type histogram and the sorted
mapped-frame view; every fourth sample it additionally runs a scan
pass over every mapped frame — zero-page sweep, refcount reduction,
generation deltas against the previous pass and a full digest sweep —
through :attr:`PhysicalMemory.scan_kernel`.

Two configurations run the same scenario:

* ``scalar`` — a :class:`~repro.mem.scankernel.ScalarScanKernel`
  swapped in for ``physmem.scan_kernel``: the scan pass is per-frame
  Python;
* ``batch`` — the default stack: the same scan pass answered from
  zero-copy NumPy views of the cid / generation / refcount columns.

The gate: batch at least 1.5x faster end to end, with identical
simulated outcomes (clock, counters, histograms, savings, scan-pass
answers and digest-cache stats) in both runs, so the speed is
representation-deep only.

Results land in ``BENCH_e2e_scenario.json`` at the repository root so
CI history can track the ratios over time; the file's ``history``
block (rows of gates whose baseline no longer exists) is carried over.
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.fusion.ksm import Ksm
from repro.kernel.kernel import Kernel
from repro.mem.scankernel import ScalarScanKernel
from repro.params import FusionConfig, MachineSpec, MS, SECOND
from repro.workloads.vm_image import DISTRO_IMAGES, boot_vm

RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_e2e_scenario.json"
)

FRAMES = 16384
NUM_VMS = 4
SEED = 1017
WARMUP = 2 * SECOND
WINDOW = 2 * SECOND
WINDOWS = 2
MONITOR_INTERVAL = 10 * MS
SCAN_PASS_STRIDE = 4  # full scan pass every 4th monitor sample
MIN_BATCH_SPEEDUP = 1.5
KERNELS = ("scalar", "batch")


def build(scan_kernel: str):
    kernel = Kernel(MachineSpec(total_frames=FRAMES, seed=SEED))
    if scan_kernel == "scalar":
        kernel.physmem.scan_kernel = ScalarScanKernel(kernel.physmem)
    kernel.attach_fusion(Ksm(FusionConfig(pages_per_scan=64,
                                          scan_interval=40 * MS)))
    image = DISTRO_IMAGES["debian"]
    vms = []
    for index in range(NUM_VMS):
        vms.append(boot_vm(kernel, f"vm{index}", image))
        kernel.idle(500 * MS)
    return kernel, vms


def monitor_pass(kernel, vms, duration: int, outcomes: list, state: dict):
    """Idle the VMs; sample fleet telemetry every monitor interval."""
    physmem = kernel.physmem
    scan = physmem.scan_kernel
    end = kernel.clock.now + duration
    while kernel.clock.now < end:
        step = state["step"]
        if step % 12 == 0:  # light guest housekeeping, as in Fig. 10
            for vm in vms:
                vm.process.read(vm.region("page_cache").start)
                vm.process.read(vm.region("rest").start)
        kernel.idle(MONITOR_INTERVAL)
        state["step"] = step + 1
        mapped = list(physmem.mapped_frames())
        entry = (
            kernel.clock.now,
            physmem.frames_in_use(),
            tuple(physmem.type_histogram().values()),
            kernel.fusion.saved_frames(),
            len(mapped),
        )
        if step % SCAN_PASS_STRIDE == 0:
            batch = scan.pfn_batch(mapped)
            # Generation deltas only compare against a snapshot of the
            # same frames; after a remap the pass starts a new baseline.
            if mapped == state["mapped"]:
                changed = len(scan.changed_since(batch, state["snapshot"]))
            else:
                changed = -1
            state["mapped"] = mapped
            state["snapshot"] = scan.generation_snapshot(batch)
            entry += (
                len(scan.zero_frames(batch)),
                scan.refcount_sum(batch),
                changed,
                sum(scan.digest_sweep(batch)),
            )
        outcomes.append(entry)


def run_scenario(scan_kernel: str) -> dict:
    kernel, vms = build(scan_kernel)
    outcomes: list = []
    state = {"step": 0, "mapped": None, "snapshot": None}
    monitor_pass(kernel, vms, WARMUP, outcomes, state)
    elapsed = 0.0
    for _ in range(WINDOWS):
        start = time.perf_counter()
        monitor_pass(kernel, vms, WINDOW, outcomes, state)
        elapsed += time.perf_counter() - start
    return {
        "wall_s": elapsed,
        "outcomes": outcomes,
        "clock_ns": kernel.clock.now,
        "saved_frames": kernel.fusion.saved_frames(),
        "fingerprints": kernel.physmem.fingerprints.stats.as_dict(),
        "scan_backend": kernel.physmem.scan_kernel.backend,
    }


def test_batch_kernel_at_least_1_5x_on_idle_vms():
    runs = {kind: run_scenario(kind) for kind in KERNELS}
    scalar, batch = runs["scalar"], runs["batch"]

    # Representation-deep only: every simulated observable is identical,
    # and so are the digest-cache totals.
    for key in ("clock_ns", "saved_frames", "outcomes", "fingerprints"):
        assert batch[key] == scalar[key], key
    assert scalar["scan_backend"] == "scalar"
    assert batch["scan_backend"] in ("numpy", "array")

    speedup = scalar["wall_s"] / batch["wall_s"]
    report = {
        "frames": FRAMES,
        "vms": NUM_VMS,
        "engine": "ksm",
        "monitor_interval_ms": MONITOR_INTERVAL // MS,
        "scan_pass_stride": SCAN_PASS_STRIDE,
        "simulated_window_s": WINDOWS * WINDOW / SECOND,
        "scalar_wall_s": scalar["wall_s"],
        "batch_wall_s": batch["wall_s"],
        "speedup": speedup,
        "scan_backend": batch["scan_backend"],
        "saved_frames": batch["saved_frames"],
        "samples": len(batch["outcomes"]),
        "fingerprints": batch["fingerprints"],
    }
    if RESULT_PATH.exists():
        history = json.loads(RESULT_PATH.read_text()).get("history")
        if history:
            report["history"] = history
    RESULT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(
        f"\nidle-VMs scenario: scalar kernel {scalar['wall_s']:.2f} s, "
        f"batch kernel {batch['wall_s']:.2f} s ({speedup:.2f}x)\n"
        f"wrote {RESULT_PATH}"
    )
    assert speedup >= MIN_BATCH_SPEEDUP, (
        f"batch kernel only {speedup:.2f}x faster end to end "
        f"(need {MIN_BATCH_SPEEDUP}x)"
    )
