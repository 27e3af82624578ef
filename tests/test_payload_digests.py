"""Pinned payload digests: speed-only changes must not move the model.

Three families of SHA-256 pins, each over ``canonical_json`` output:

* the ``FleetResult`` payload of the ``smoke`` fleet preset (quick
  scale, seed 1017, default knobs) under KSM and VUsion;
* the ``execute_task`` payload of each :data:`RUNNER_TASKS` entry at
  seed 1017 — two paper experiments and three Table 1 attack cells,
  verdicts included;
* each fusion engine's :func:`scripted_workload` checkpoint sequence
  (clock, savings, samples, every frame's content, type histogram,
  mapped frames and refcounts at every checkpoint).

The payloads carry the simulated clock, the charges, the merge counts,
the attack verdicts and the fleet telemetry, so any change to the
model — intended or not — changes these digests.  The runner and
checkpoint pins were recorded while the simulator still carried a
one-``bytes``-per-frame reference store beside the columnar one, and
were identical under both stores, both scan kernels and FrameSan; they
are what ``tests/test_store_differential.py`` now holds the columnar
store to.  Every pin is also identical under the NumPy and array scan
backends and any ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.metrics import take_sample
from repro.harness.fleet import FLEET_PRESETS, run_fleet
from repro.kernel.kernel import Kernel
from repro.mem.content import tagged_content
from repro.params import MachineSpec, MS, PAGE_SIZE, SECOND
from repro.runner import TaskSpec, canonical_json, execute_task

from tests.test_fingerprint_differential import ENGINES

PINNED = {
    "ksm": "60d2c5f4e1af26ce9d46a12c322dbbfc175969ff167ab6ec88d2f9baa50fcf31",
    "vusion": "f654f908044a78c6fa65d08c499c8c417bc68b9512a060135aecb959bd7ee4cc",
}

#: Fast experiment coverage plus one Table 1 cell per engine family.
RUNNER_TASKS = {
    "fig3": TaskSpec.experiment("fig3"),
    "fig5": TaskSpec.experiment("fig5"),
    "cow-timing@vusion": TaskSpec.attack("cow-timing", target="vusion"),
    "flip-feng-shui@ksm": TaskSpec.attack("flip-feng-shui", target="ksm"),
    "page-sharing@wpf": TaskSpec.attack("page-sharing", target="wpf"),
}

RUNNER_PINNED = {
    "cow-timing@vusion":
        "b2c8ded3bbcb3e09dd2f54de33e3bdb5640e62e859fb659d1e4a0f82d54f4ee1",
    "fig3":
        "5b8e4a4c778da5bb6ef304581376ee400a5418059e1ba735f8332f41cd2e25ab",
    "fig5":
        "541dbc26ec088b280aff1df0f0d93cf5c32081487650d4d80d71112ac8ff5f11",
    "flip-feng-shui@ksm":
        "6405ce55938ecedd1a95af2a9b2c175e352ff22552011719154b9259325d197c",
    "page-sharing@wpf":
        "3930272f35577a996401a491172e8522a2948354962ec77470fa92d8b03ae6aa",
}

CHECKPOINT_PINNED = {
    "coa-ksm":
        "6f1656124dcf9242771fe3bdd7c4d666a9af5eee177e8bd10860c0b49c8a3508",
    "ksm":
        "6f1656124dcf9242771fe3bdd7c4d666a9af5eee177e8bd10860c0b49c8a3508",
    "memory-combining":
        "93d516e9123dc02da9f686b1bcc757017507b66f834bab307dca1531fe8ba897",
    "vusion":
        "43d86e24f571678ad9795e80ee0f9bc2837a3d01280d20bc7254ce9f74b46287",
    "wpf":
        "6a046a09d111ffd26bc49a395ffba8a61d53399ae221153f2431dace39e7e287",
}

CHANGE_POLICY = (
    "A digest may change only with a deliberate model change; log that "
    "change and the new digest in CHANGES.md before updating the pin."
)


def sha256_json(value) -> str:
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def runner_payload_digest(task_name: str) -> str:
    return sha256_json(execute_task(RUNNER_TASKS[task_name], seed=1017))


# ----------------------------------------------------------------------
# The scripted engine workload behind the checkpoint pins
# ----------------------------------------------------------------------

NUM_PROCS = 2
PAGES_PER_PROC = 12


def build_kernel(engine_name: str, sanitize: bool = False) -> Kernel:
    kernel = Kernel(MachineSpec(total_frames=1024, seed=1017),
                    sanitize=sanitize or None)
    kernel.attach_fusion(ENGINES[engine_name]())
    return kernel


def scripted_workload(kernel: Kernel):
    """Deterministic duplicate-heavy run; yields at each checkpoint."""
    processes = [kernel.create_process(f"p{i}") for i in range(NUM_PROCS)]
    vmas = [p.mmap(PAGES_PER_PROC, mergeable=True) for p in processes]
    for process, vma in zip(processes, vmas):
        for index in range(PAGES_PER_PROC):
            process.write(
                vma.start + index * PAGE_SIZE, tagged_content("seed", index % 4)
            )
    yield "seeded"
    kernel.idle(300 * MS)  # scan daemons merge duplicates
    yield "merged"
    # Writes break some merges (CoW / unmerge paths), flips hit others.
    for step in range(6):
        process = processes[step % NUM_PROCS]
        vaddr = vmas[step % NUM_PROCS].start + (step % PAGES_PER_PROC) * PAGE_SIZE
        process.write(vaddr, tagged_content("post", step))
        kernel.idle(60 * MS)
        yield f"write-{step}"
    walk = processes[0].address_space.page_table.walk(vmas[0].start)
    if walk is not None:
        kernel.physmem.corrupt_bit(walk.frame_for(vmas[0].start), 100, 3)
    kernel.idle(SECOND)
    yield "settled"


def checkpoint(kernel: Kernel) -> tuple:
    physmem = kernel.physmem
    sample = take_sample(kernel)
    return (
        kernel.clock.now,
        kernel.fusion.saved_frames(),
        (sample.t_ns, sample.frames_in_use, sample.saved_frames,
         sample.huge_pages),
        physmem.contents_snapshot(),
        physmem.type_histogram(),
        list(physmem.mapped_frames()),
        [physmem.refcount(pfn) for pfn in range(physmem.num_frames)],
    )


def checkpoint_digest(kernel: Kernel) -> str:
    """Run :func:`scripted_workload` on ``kernel``; digest every checkpoint."""
    states = []
    for label in scripted_workload(kernel):
        state = list(checkpoint(kernel))
        # The type histogram, keyed by FrameType value for canonical JSON.
        state[4] = {frame_type.value: n for frame_type, n in state[4].items()}
        states.append([label, *state])
    return sha256_json(states)


# ----------------------------------------------------------------------
# Pins
# ----------------------------------------------------------------------


@pytest.mark.parametrize("system", sorted(PINNED))
def test_smoke_fleet_payload_digest_is_pinned(system):
    result = run_fleet(FLEET_PRESETS["smoke"].spec(system=system))
    digest = sha256_json(result.to_payload())
    assert digest == PINNED[system], (
        f"smoke fleet payload digest under {system!r} changed: "
        f"{digest} != {PINNED[system]}. {CHANGE_POLICY}"
    )
