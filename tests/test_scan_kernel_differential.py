"""Differential proof that the batch scan kernel is transparent.

The batch kernel changes *how* scan-pass questions are answered
(vectorized sweeps over the cid / generation / refcount columns
instead of per-frame Python loops) but must not change a single
observable of the simulation: simulated time, merge behaviour, attack
verdicts and runner artifacts have to be byte-identical to the scalar
reference loops of :class:`~repro.mem.scankernel.ScalarScanKernel`,
swapped in for ``physmem.scan_kernel``.  Same discipline as
``tests/test_store_differential.py``, four layers:

* lockstep primitive sequences over randomized frame traffic,
  comparing every scan-kernel answer (and every
  :class:`~repro.mem.physmem.PhysicalMemory` observable) after every
  operation;
* full kernels under **all five fusion engines** — KSM, WPF, VUsion,
  zero-page, memory combining — running both the scripted
  duplicate-heavy workload and hypothesis-randomized traffic,
  checkpointing clock, savings, samples and frame layout;
* the runner: ``execute_task`` payloads (experiments and Table 1
  attack cells) rendered to canonical JSON under each kernel, with
  the scalar kernel patched in where ``PhysicalMemory`` builds its
  kernel;
* FrameSan-sanitized runs, which must also be identical — and end
  with a clean ledger audit under either kernel.

The mutation meta-test (``tests/test_scan_kernel_mutations.py``)
plants boundary bugs into the kernel source and checks this suite's
probes catch every one.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.mem.physmem
from repro.kernel.kernel import Kernel
from repro.mem.content import tagged_content
from repro.mem.physmem import PhysicalMemory
from repro.mem.scankernel import ScalarScanKernel
from repro.params import MS, MachineSpec, PAGE_SIZE
from repro.runner import canonical_json, execute_task

from tests.test_fingerprint_differential import ENGINES
from tests.test_payload_digests import (
    RUNNER_TASKS,
    checkpoint,
    scripted_workload,
)

KERNELS = ("scalar", "batch")

# ----------------------------------------------------------------------
# Layer 1: lockstep primitives under randomized frame traffic
# ----------------------------------------------------------------------

RAW_FRAMES = 24

raw_op = st.one_of(
    st.tuples(st.just("write"), st.integers(0, RAW_FRAMES - 1),
              st.integers(0, 7)),
    st.tuples(st.just("copy"), st.integers(0, RAW_FRAMES - 1),
              st.integers(0, RAW_FRAMES - 1)),
    st.tuples(st.just("corrupt"), st.integers(0, RAW_FRAMES - 1),
              st.integers(0, PAGE_SIZE - 1)),
    st.tuples(st.just("ref"), st.integers(0, RAW_FRAMES - 1), st.just(0)),
    st.tuples(st.just("pin"), st.integers(0, RAW_FRAMES - 1), st.just(0)),
)

#: A probe batch sweeping all frames with duplicates and reversals,
#: so grouping order and within-group order are both exercised.
PROBE_PFNS = (
    list(range(RAW_FRAMES))
    + list(range(RAW_FRAMES - 1, -1, -1))
    + [0, RAW_FRAMES // 2, 0]
)


def primitive_answers(kernel, snapshot: list[int]) -> tuple:
    return (
        kernel.zero_frames(PROBE_PFNS),
        kernel.group_by_content(PROBE_PFNS),
        kernel.generation_snapshot(PROBE_PFNS),
        kernel.changed_since(list(range(RAW_FRAMES)), snapshot),
        kernel.digest_sweep(PROBE_PFNS),
        kernel.refcount_sum(PROBE_PFNS),
        kernel.any_fused(PROBE_PFNS),
        kernel.dirty_intersection(PROBE_PFNS, set(range(0, RAW_FRAMES, 3))),
    )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=st.lists(raw_op, min_size=1, max_size=60))
def test_raw_lockstep(ops):
    """Both kernels answer identically after every operation."""
    physmem = PhysicalMemory(RAW_FRAMES)
    scalar, batch = ScalarScanKernel(physmem), physmem.scan_kernel
    assert batch.name == "batch"
    baseline = scalar.generation_snapshot(list(range(RAW_FRAMES)))
    assert baseline == batch.generation_snapshot(list(range(RAW_FRAMES)))
    for action, a, b in ops:
        if action == "write":
            physmem.write(a, tagged_content("kdiff", b))
        elif action == "copy":
            physmem.copy(a, b)
        elif action == "corrupt":
            physmem.corrupt_bit(a, b, b % 8)
        elif action == "ref":
            physmem.get_ref(a)
        elif action == "pin":
            if physmem.is_fused(a):
                physmem.unpin_fused(a)
            else:
                physmem.pin_fused(a)
        # Batch first, so its digest sweep meets uncached contents.
        answers = primitive_answers(batch, baseline)
        assert primitive_answers(scalar, baseline) == answers
    # Group keys are content ids: each names exactly one content.
    for key, members in batch.group_by_content(PROBE_PFNS).items():
        contents = {physmem.peek_content(PROBE_PFNS[i]) for i in members}
        assert contents == {physmem.arena.payload(key)}


# ----------------------------------------------------------------------
# Layer 2: full kernels under every engine, scripted and randomized
# ----------------------------------------------------------------------


def build_kernel(engine_name: str, kind: str, sanitize: bool) -> Kernel:
    spec = MachineSpec(total_frames=1024, seed=1017)
    kernel = Kernel(spec, sanitize=sanitize or None)
    if kind == "scalar":
        kernel.physmem.scan_kernel = ScalarScanKernel(kernel.physmem)
    assert kernel.physmem.scan_kernel_kind == kind
    kernel.attach_fusion(ENGINES[engine_name]())
    return kernel


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_engine_runs_are_identical_across_kernels(engine_name):
    """Same engine, same seed, same workload: every checkpoint equal."""
    kernels = {k: build_kernel(engine_name, k, sanitize=False) for k in KERNELS}
    runs = {k: scripted_workload(kernels[k]) for k in KERNELS}
    for labels in zip(*runs.values()):
        assert labels[0] == labels[1]
        scalar_state = checkpoint(kernels["scalar"])
        batch_state = checkpoint(kernels["batch"])
        assert scalar_state == batch_state, (
            f"{engine_name} diverged at checkpoint {labels[0]!r}"
        )


NUM_PROCS = 2
PAGES_PER_PROC = 10

random_traffic = st.lists(
    st.tuples(
        st.integers(0, NUM_PROCS - 1),
        st.integers(0, PAGES_PER_PROC - 1),
        st.integers(0, 3),
        st.integers(1, 80),
    ),
    min_size=1,
    max_size=25,
)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(traffic=random_traffic, engine_index=st.integers(0, len(ENGINES) - 1))
def test_randomized_traffic_is_identical_across_kernels(traffic, engine_index):
    """Hypothesis-driven write/idle interleavings stay in lockstep."""
    engine_name = sorted(ENGINES)[engine_index]
    kernels = {k: build_kernel(engine_name, k, sanitize=False) for k in KERNELS}
    views = {}
    for kind, kernel in kernels.items():
        processes = [
            kernel.create_process(f"p{i}") for i in range(NUM_PROCS)
        ]
        vmas = [p.mmap(PAGES_PER_PROC, mergeable=True) for p in processes]
        views[kind] = (kernel, processes, vmas)
    for proc_index, page_index, tag, idle_ms in traffic:
        for kernel, processes, vmas in views.values():
            process = processes[proc_index]
            vaddr = vmas[proc_index].start + page_index * PAGE_SIZE
            process.write(vaddr, tagged_content("traffic", tag))
            kernel.idle(idle_ms * MS)
        assert checkpoint(kernels["scalar"]) == checkpoint(kernels["batch"])


# ----------------------------------------------------------------------
# Layer 3: runner artifacts and Table 1 attack verdicts
# ----------------------------------------------------------------------


@pytest.mark.parametrize("task_name", sorted(RUNNER_TASKS))
def test_runner_artifacts_byte_identical(task_name, monkeypatch):
    """Canonical artifact JSON is byte-for-byte kernel-independent."""
    spec = RUNNER_TASKS[task_name]
    payloads = {"batch": execute_task(spec, seed=1017)}
    monkeypatch.setattr(repro.mem.physmem, "BatchScanKernel",
                        ScalarScanKernel)
    assert PhysicalMemory(8).scan_kernel_kind == "scalar"
    payloads["scalar"] = execute_task(spec, seed=1017)
    assert canonical_json(payloads["scalar"]) == canonical_json(
        payloads["batch"]
    )
    if spec.kind == "attack":
        # The Table 1 verdict itself, called out explicitly: attack
        # outcomes cannot depend on how the scan loop is vectorized.
        assert payloads["scalar"]["success"] == payloads["batch"]["success"]
        assert (
            payloads["scalar"]["mitigated_by"]
            == payloads["batch"]["mitigated_by"]
        )


# ----------------------------------------------------------------------
# Layer 4: FrameSan-sanitized runs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_sanitized_runs_are_identical_and_audit_clean(engine_name):
    """FrameSan on: still lockstep-identical (the batch kernel must
    delegate content reads so access hooks fire in scalar order), and
    the end-of-run ledger audit is clean under both kernels."""
    kernels = {k: build_kernel(engine_name, k, sanitize=True) for k in KERNELS}
    runs = {k: scripted_workload(kernels[k]) for k in KERNELS}
    for _labels in zip(*runs.values()):
        assert checkpoint(kernels["scalar"]) == checkpoint(kernels["batch"])
    audits = {}
    for kind, kernel in kernels.items():
        assert kernel.sanitizer is not None
        kernel.sanitizer.assert_clean(kernel.fusion)
        audits[kind] = dict(kernel.sanitizer.stats)
    # Identical ledgers, not merely both clean: the sanitizer saw the
    # same accesses in the same quantities under either kernel.
    assert audits["scalar"] == audits["batch"]
