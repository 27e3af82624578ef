"""Differential proof that the columnar frame store is transparent.

Frame contents live in a column of interned content ids over a
hash-consed arena.  That representation replaced one ``bytes`` payload
per frame, and must not change a single observable of the simulation:
simulated time, merge behaviour, attack verdicts and runner artifacts
have to be byte-identical to what the one-payload-per-frame store
produced.  Four layers pin that down:

* lockstep raw :class:`~repro.mem.physmem.PhysicalMemory` operation
  sequences against :class:`ReferenceMemory`, a one-payload-per-frame
  model, comparing every observable after every operation;
* full kernels under every fusion engine running the scripted
  duplicate-heavy workload, whose checkpoint sequence (clock, savings,
  samples, frame layout) must hash to the pins both stores produced;
* the runner: ``execute_task`` payloads (experiments and Table 1
  attack cells, verdicts included) must hash to their pins;
* FrameSan-sanitized runs, which must hit the same pins — and end with
  a clean audit, including the arena accounting cross-check.

The pins live in ``tests/test_payload_digests.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mem.content import (
    PageContent,
    ZERO_PAGE,
    content_digest,
    flip_bit,
    tagged_content,
)
from repro.mem.physmem import PhysicalMemory, FrameType
from repro.params import PAGE_SIZE

from tests.test_fingerprint_differential import ENGINES
from tests.test_payload_digests import (
    CHANGE_POLICY,
    CHECKPOINT_PINNED,
    RUNNER_PINNED,
    RUNNER_TASKS,
    build_kernel,
    checkpoint_digest,
    runner_payload_digest,
)

# ----------------------------------------------------------------------
# Layer 1: lockstep raw operation sequences
# ----------------------------------------------------------------------

RAW_FRAMES = 24


class ReferenceMemory:
    """One ``bytes`` payload per frame: the oracle for the content column.

    Implements just the :class:`PhysicalMemory` surface the lockstep
    drives and observes, the obvious way — full recounts, per-call
    sorts, one blake2b per digest.
    """

    def __init__(self, num_frames: int) -> None:
        self.num_frames = num_frames
        self._contents: list[PageContent] = [ZERO_PAGE] * num_frames
        self._versions = [0] * num_frames
        self._generations = [0] * num_frames
        self._types = [FrameType.FREE] * num_frames
        self._rmap: dict[int, set[tuple[int, int]]] = {}
        self.mutation_epoch = 0

    def _mutated(self, pfn: int) -> None:
        self._generations[pfn] += 1
        self.mutation_epoch += 1

    def write(self, pfn: int, content: PageContent) -> None:
        self._contents[pfn] = content
        self._versions[pfn] += 1
        self._mutated(pfn)

    def copy(self, src: int, dst: int) -> None:
        self._contents[dst] = self._contents[src]
        self._versions[dst] += 1
        self._mutated(dst)

    def corrupt_bit(self, pfn: int, byte_offset: int, bit: int) -> None:
        self._contents[pfn] = flip_bit(self._contents[pfn], byte_offset, bit)
        self._mutated(pfn)

    def set_frame_type(self, pfn: int, frame_type: FrameType) -> None:
        self._types[pfn] = frame_type

    def rmap_add(self, pfn: int, pid: int, vaddr: int) -> None:
        self._rmap.setdefault(pfn, set()).add((pid, vaddr))

    def rmap_remove(self, pfn: int, pid: int, vaddr: int) -> None:
        self._rmap[pfn].remove((pid, vaddr))
        if not self._rmap[pfn]:
            del self._rmap[pfn]

    def digest(self, pfn: int) -> int:
        return content_digest(self._contents[pfn])

    def digests_many(self, pfns: list[int]) -> list[int]:
        return [self.digest(pfn) for pfn in pfns]

    def contents_snapshot(self) -> list[PageContent]:
        return list(self._contents)

    def version(self, pfn: int) -> int:
        return self._versions[pfn]

    def generation(self, pfn: int) -> int:
        return self._generations[pfn]

    def frames_in_use(self) -> int:
        return sum(1 for t in self._types if t is not FrameType.FREE)

    def type_histogram(self) -> dict[FrameType, int]:
        histogram = {frame_type: 0 for frame_type in FrameType}
        for frame_type in self._types:
            histogram[frame_type] += 1
        return histogram

    def mapped_frames(self):
        return iter(sorted(self._rmap))


raw_op = st.one_of(
    st.tuples(st.just("write"), st.integers(0, RAW_FRAMES - 1),
              st.integers(0, 11)),
    st.tuples(st.just("copy"), st.integers(0, RAW_FRAMES - 1),
              st.integers(0, RAW_FRAMES - 1)),
    st.tuples(st.just("corrupt"), st.integers(0, RAW_FRAMES - 1),
              st.integers(0, PAGE_SIZE - 1)),
    st.tuples(st.just("digest"), st.integers(0, RAW_FRAMES - 1), st.just(0)),
    st.tuples(st.just("retype"), st.integers(0, RAW_FRAMES - 1),
              st.integers(0, len(FrameType) - 1)),
    st.tuples(st.just("rmap"), st.integers(0, RAW_FRAMES - 1),
              st.integers(0, 3)),
)


def observables(physmem: PhysicalMemory) -> tuple:
    """Everything a caller can see through the public surface."""
    return (
        physmem.contents_snapshot(),
        [physmem.version(pfn) for pfn in range(physmem.num_frames)],
        [physmem.generation(pfn) for pfn in range(physmem.num_frames)],
        physmem.mutation_epoch,
        physmem.frames_in_use(),
        physmem.type_histogram(),
        list(physmem.mapped_frames()),
    )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=st.lists(raw_op, min_size=1, max_size=100))
def test_raw_lockstep(ops):
    """The store and the reference model agree after every op."""
    reference = ReferenceMemory(RAW_FRAMES)
    columnar = PhysicalMemory(RAW_FRAMES)
    rmapped: set[tuple[int, int]] = set()
    for action, a, b in ops:
        for physmem in (reference, columnar):
            if action == "write":
                physmem.write(a, tagged_content("diff", b))
            elif action == "copy":
                physmem.copy(a, b)
            elif action == "corrupt":
                physmem.corrupt_bit(a, b, b % 8)
            elif action == "retype":
                physmem.set_frame_type(a, list(FrameType)[b])
            elif action == "rmap":
                if (a, b) in rmapped:
                    physmem.rmap_remove(a, 1, b * PAGE_SIZE)
                else:
                    physmem.rmap_add(a, 1, b * PAGE_SIZE)
        if action == "rmap":
            rmapped.symmetric_difference_update({(a, b)})
        if action == "digest":
            assert reference.digest(a) == columnar.digest(a)
        assert observables(reference) == observables(columnar)

    # Full-sweep digest parity, then cached re-reads stay in parity.
    for pfn in range(RAW_FRAMES):
        assert reference.digest(pfn) == columnar.digest(pfn)
        assert reference.digest(pfn) == columnar.digest(pfn)
    # The batch API agrees with the per-frame path.
    pfns = list(range(RAW_FRAMES)) * 2
    assert reference.digests_many(pfns) == columnar.digests_many(pfns)


# ----------------------------------------------------------------------
# Layer 2: full kernels under every engine, optionally sanitized
# ----------------------------------------------------------------------


def assert_checkpoints_pinned(kernel, engine_name: str) -> None:
    digest = checkpoint_digest(kernel)
    assert digest == CHECKPOINT_PINNED[engine_name], (
        f"{engine_name} scripted-workload checkpoints changed: {digest} != "
        f"{CHECKPOINT_PINNED[engine_name]}. {CHANGE_POLICY}"
    )


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_engine_runs_are_identical_across_stores(engine_name):
    """Same engine, same seed, same workload: every checkpoint equal to
    what the one-payload-per-frame store produced."""
    assert_checkpoints_pinned(build_kernel(engine_name), engine_name)


@pytest.mark.parametrize("engine_name", ["ksm", "vusion"])
def test_sanitized_runs_are_identical_and_audit_clean(engine_name):
    """FrameSan on: still the same checkpoints, and the end-of-run audit
    (including the arena accounting cross-check) is clean."""
    kernel = build_kernel(engine_name, sanitize=True)
    assert_checkpoints_pinned(kernel, engine_name)
    assert kernel.sanitizer is not None
    kernel.sanitizer.assert_clean(kernel.fusion)


# ----------------------------------------------------------------------
# Layers 3 and 4: runner artifacts and Table 1 attack verdicts
# ----------------------------------------------------------------------


@pytest.mark.parametrize("task_name", sorted(RUNNER_TASKS))
def test_runner_artifacts_byte_identical(task_name):
    """Canonical artifact JSON — Table 1 verdicts included — is
    byte-for-byte what the one-payload-per-frame store produced."""
    digest = runner_payload_digest(task_name)
    assert digest == RUNNER_PINNED[task_name], (
        f"{task_name} payload digest changed: {digest} != "
        f"{RUNNER_PINNED[task_name]}. {CHANGE_POLICY}"
    )
