"""FrameSan tests.

Two layers:

* **Explicit-construction unit tests** (always run): build sanitized
  kernels via ``Kernel(sanitize=True)`` or a bare :class:`FrameSan`
  and check each detector — UAF, double free, bad free, CoW violation,
  audit cross-checks, fusion accounting, provenance rendering.
* **Seeded-violation tests** (run only under ``REPRO_SANITIZE=1``,
  skipped otherwise): deliberately corrupt a live kernel the same way
  a buggy engine would and assert the sanitizer fails loudly with a
  structured error.  These prove the env-activated wiring end to end.
"""

from __future__ import annotations

import pytest

from repro.check import (
    AccountingError,
    BadFreeError,
    CowViolationError,
    DoubleFreeError,
    FrameSan,
    SanitizerError,
    UseAfterFreeError,
    sanitizer_enabled,
)
from repro.kernel.kernel import Kernel
from repro.mem.content import tagged_content
from repro.mem.physmem import FrameType, PhysicalMemory
from tests.conftest import small_spec

requires_sanitizer_env = pytest.mark.skipif(
    not sanitizer_enabled(),
    reason="seeded-violation test: set REPRO_SANITIZE=1 to enable",
)


def sanitized_kernel(frames: int = 4096) -> Kernel:
    return Kernel(small_spec(frames=frames), sanitize=True)


def content(tag: object = "x") -> bytes:
    return tagged_content("framesan", tag)


# ----------------------------------------------------------------------
# Activation and wiring
# ----------------------------------------------------------------------
class TestActivation:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        kernel = Kernel(small_spec())
        assert kernel.sanitizer is None
        assert kernel.physmem.sanitizer is None

    def test_env_values(self):
        assert sanitizer_enabled({"REPRO_SANITIZE": "1"})
        assert sanitizer_enabled({"REPRO_SANITIZE": "yes"})
        assert not sanitizer_enabled({"REPRO_SANITIZE": "0"})
        assert not sanitizer_enabled({"REPRO_SANITIZE": "off"})
        assert not sanitizer_enabled({})

    def test_env_activates_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        kernel = Kernel(small_spec())
        assert kernel.sanitizer is not None
        assert kernel.physmem.sanitizer is kernel.sanitizer
        assert kernel.buddy.sanitizer is kernel.sanitizer

    def test_force_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert Kernel(small_spec(), sanitize=False).sanitizer is None
        monkeypatch.delenv("REPRO_SANITIZE")
        assert Kernel(small_spec(), sanitize=True).sanitizer is not None

    def test_sanitizer_does_not_perturb_results(self):
        """Shadow-only poisoning: identical simulation either way."""
        def run(sanitize: bool) -> tuple:
            kernel = Kernel(small_spec(), sanitize=sanitize)
            process = kernel.create_process("p")
            vma = process.mmap(32, mergeable=True)
            for index in range(32):
                process.write(
                    vma.start + index * 4096, content(index % 3)
                )
            process.munmap(vma)
            return (
                kernel.clock.now,
                kernel.physmem.fingerprints.stats.mutations,
                kernel.buddy.free_frames(),
            )

        assert run(False) == run(True)


# ----------------------------------------------------------------------
# Detectors (explicit construction, always run)
# ----------------------------------------------------------------------
class TestUseAfterFree:
    def test_read_of_freed_frame(self):
        kernel = sanitized_kernel()
        pfn = kernel.buddy.alloc()
        kernel.physmem.write(pfn, content())
        kernel.buddy.free(pfn)
        with pytest.raises(UseAfterFreeError) as excinfo:
            kernel.physmem.read(pfn)
        assert excinfo.value.pfn == pfn
        assert "free[buddy]" in excinfo.value.provenance

    def test_write_to_freed_frame(self):
        kernel = sanitized_kernel()
        pfn = kernel.buddy.alloc()
        kernel.buddy.free(pfn)
        with pytest.raises(UseAfterFreeError):
            kernel.physmem.write(pfn, content())

    def test_copy_checks_both_ends(self):
        kernel = sanitized_kernel()
        src = kernel.buddy.alloc()
        dst = kernel.buddy.alloc()
        kernel.buddy.free(src)
        with pytest.raises(UseAfterFreeError):
            kernel.physmem.copy(src, dst)
        kernel.buddy.free(dst)

    def test_peek_content_bypasses_check(self):
        kernel = sanitized_kernel()
        pfn = kernel.buddy.alloc()
        kernel.physmem.write(pfn, content("peek"))
        kernel.buddy.free(pfn)
        assert kernel.physmem.peek_content(pfn) == content("peek")

    def test_realloc_clears_poison(self):
        kernel = sanitized_kernel()
        pfn = kernel.buddy.alloc()
        kernel.buddy.free(pfn)
        again = kernel.buddy.alloc_specific(pfn)
        assert again == pfn
        kernel.physmem.write(pfn, content())  # no raise
        kernel.buddy.free(pfn)


class TestBadFrees:
    def test_double_free(self):
        kernel = sanitized_kernel()
        pfn = kernel.buddy.alloc()
        kernel.buddy.free(pfn)
        # The buddy's own overlap check is bypassed by freeing through
        # the sanitizer hook directly (as a buggy caller with a stale
        # pfn would via the random pool).
        with pytest.raises(DoubleFreeError):
            kernel.sanitizer.on_free(pfn, 1, "pool")

    def test_free_with_live_refcount(self):
        kernel = sanitized_kernel()
        pfn = kernel.buddy.alloc()
        kernel.physmem.get_ref(pfn)
        with pytest.raises(BadFreeError, match="refcount"):
            kernel.buddy.free(pfn)
        kernel.physmem.put_ref(pfn)
        kernel.buddy.free(pfn)

    def test_free_while_mapped(self):
        kernel = sanitized_kernel()
        pfn = kernel.buddy.alloc()
        kernel.physmem.rmap_add(pfn, 1, 0x1000)
        with pytest.raises(BadFreeError, match="mapped"):
            kernel.buddy.free(pfn)
        kernel.physmem.rmap_remove(pfn, 1, 0x1000)
        kernel.buddy.free(pfn)

    def test_free_while_fusion_pinned(self):
        kernel = sanitized_kernel()
        pfn = kernel.buddy.alloc()
        kernel.physmem.pin_fused(pfn)
        with pytest.raises(BadFreeError, match="pinned"):
            kernel.buddy.free(pfn)
        kernel.physmem.unpin_fused(pfn)
        kernel.buddy.free(pfn)


class TestCowViolation:
    def test_write_to_shared_frame(self):
        kernel = sanitized_kernel()
        pfn = kernel.buddy.alloc()
        kernel.physmem.get_ref(pfn)
        kernel.physmem.get_ref(pfn)
        with pytest.raises(CowViolationError) as excinfo:
            kernel.physmem.write(pfn, content())
        assert excinfo.value.pfn == pfn
        kernel.physmem.put_ref(pfn)
        kernel.physmem.put_ref(pfn)
        kernel.buddy.free(pfn)

    def test_exclusive_write_allowed(self):
        kernel = sanitized_kernel()
        pfn = kernel.buddy.alloc()
        kernel.physmem.get_ref(pfn)
        kernel.physmem.write(pfn, content())  # refcount 1: fine
        kernel.physmem.put_ref(pfn)
        kernel.buddy.free(pfn)

    def test_rowhammer_bypasses_by_design(self):
        kernel = sanitized_kernel()
        pfn = kernel.buddy.alloc()
        kernel.physmem.write(pfn, content())
        kernel.physmem.get_ref(pfn)
        kernel.physmem.get_ref(pfn)
        # A flip in a shared frame is the studied phenomenon, not a bug.
        kernel.physmem.corrupt_bit(pfn, 0, 3)


# ----------------------------------------------------------------------
# Audit
# ----------------------------------------------------------------------
class TestAudit:
    def test_clean_kernel_audits_clean(self):
        kernel = sanitized_kernel()
        process = kernel.create_process("p")
        vma = process.mmap(8, mergeable=True)
        for index in range(8):
            process.write(vma.start + index * 4096, content(index))
        assert kernel.sanitizer.audit(kernel.fusion) == []
        kernel.sanitizer.assert_clean(kernel.fusion)

    def test_detects_refcount_undercount(self):
        physmem = PhysicalMemory(8)
        sanitizer = FrameSan(physmem)
        physmem.set_frame_type(3, FrameType.ANON)
        physmem.rmap_add(3, 1, 0)
        physmem.rmap_add(3, 2, 0)
        physmem.get_ref(3)
        problems = sanitizer.audit()
        assert any("undercounted" in problem for problem in problems)

    def test_detects_leaked_frame(self):
        physmem = PhysicalMemory(8)
        sanitizer = FrameSan(physmem)
        physmem.set_frame_type(5, FrameType.ANON)
        problems = sanitizer.audit()
        assert any("leaked pfn 5" in problem for problem in problems)
        with pytest.raises(AccountingError, match="leaked pfn 5"):
            sanitizer.assert_clean()

    def test_detects_broken_pin_accounting(self):
        physmem = PhysicalMemory(8)
        sanitizer = FrameSan(physmem, zero_frame=0)
        physmem.set_frame_type(4, FrameType.ANON)
        physmem.rmap_add(4, 1, 0)
        physmem.get_ref(4)
        physmem.pin_fused(4)  # pin without its pin reference
        problems = sanitizer.audit()
        assert any("pin accounting" in problem for problem in problems)

    def test_detects_free_frame_still_referenced(self):
        physmem = PhysicalMemory(8)
        sanitizer = FrameSan(physmem)
        physmem.get_ref(2)  # typed FREE but referenced
        problems = sanitizer.audit()
        assert any("free pfn 2 has refcount" in problem for problem in problems)

    def test_deferred_free_queue_is_not_a_leak(self):
        """A frame in VUsion's deferred-free queue is in flight, not
        leaked — unreferenced by design until the next daemon drain."""
        from repro.core.vusion import Vusion

        kernel = sanitized_kernel()
        vusion = kernel.attach_fusion(Vusion())
        process = kernel.create_process("p")
        vma = process.mmap(8, mergeable=True)
        for index in range(8):
            process.write(vma.start + index * 4096, content(index % 2))
        kernel.idle(500_000_000)  # merge, re-randomize, queue frees
        assert kernel.sanitizer.audit(kernel.fusion) == []
        # After a full drain the queue is empty and the audit still holds.
        vusion.deferred.drain()
        assert vusion.pending_frees() == frozenset()
        assert kernel.sanitizer.audit(kernel.fusion) == []

    def test_fusion_accounting_checks(self):
        class BrokenEngine:
            name = "broken"

            def saved_frames(self):
                return 7

            def sharing_pairs(self):
                return (4, 2)  # sharing < shared AND saved mismatched

        physmem = PhysicalMemory(4)
        sanitizer = FrameSan(physmem)
        problems = sanitizer.check_fusion_accounting(BrokenEngine())
        assert any("pages_sharing" in problem for problem in problems)
        assert any("saved_frames()" in problem for problem in problems)


class TestDiagnostics:
    def test_structured_error_fields(self):
        kernel = sanitized_kernel()
        pfn = kernel.buddy.alloc()
        kernel.buddy.free(pfn)
        with pytest.raises(SanitizerError) as excinfo:
            kernel.physmem.read(pfn)
        error = excinfo.value
        assert error.pfn == pfn
        assert error.diagnostic.startswith("[FrameSan:UseAfterFreeError]")
        assert f"pfn {pfn}" in error.provenance

    def test_provenance_records_lifecycle(self):
        kernel = sanitized_kernel()
        pfn = kernel.buddy.alloc()
        kernel.buddy.free(pfn)
        trail = kernel.sanitizer.provenance.describe(pfn)
        assert "alloc[buddy]" in trail
        assert "free[buddy]" in trail

    def test_pool_diagnostic_extraction(self):
        from repro.runner.pool import extract_diagnostic

        detail = (
            "Traceback ...\n"
            "[FrameSan:UseAfterFreeError] read of freed pfn 9 | pfn 9: ...\n"
            "UseAfterFreeError: ...\n"
        )
        extracted = extract_diagnostic(detail)
        assert extracted is not None
        assert extracted.startswith("[FrameSan:UseAfterFreeError]")
        assert extract_diagnostic("plain failure") is None
        assert extract_diagnostic(None) is None


# ----------------------------------------------------------------------
# Seeded violations (end-to-end, need REPRO_SANITIZE=1 in the env)
# ----------------------------------------------------------------------
class TestSeededViolations:
    """Each test plants the bug a detector exists for and demands a
    loud, structured failure from the env-activated sanitizer."""

    @requires_sanitizer_env
    def test_seeded_use_after_free(self):
        kernel = Kernel(small_spec())
        assert kernel.sanitizer is not None, "env wiring broken"
        pfn = kernel.buddy.alloc()
        kernel.physmem.write(pfn, content("dangling"))
        kernel.buddy.free(pfn)
        # The dangling-pointer bug: touching the frame after free.
        with pytest.raises(UseAfterFreeError):
            kernel.physmem.read(pfn)

    @requires_sanitizer_env
    def test_seeded_refcount_leak(self):
        kernel = Kernel(small_spec())
        process = kernel.create_process("p")
        vma = process.mmap(4, mergeable=True)
        for index in range(4):
            process.write(vma.start + index * 4096, content(index))
        # The leak: an extra reference nobody will ever drop.
        pfn = kernel.buddy.alloc()
        kernel.physmem.set_frame_type(pfn, FrameType.ANON)
        with pytest.raises(AccountingError, match="leaked"):
            kernel.sanitizer.assert_clean(kernel.fusion)

    @requires_sanitizer_env
    def test_seeded_cow_violation(self):
        kernel = Kernel(small_spec())
        pfn = kernel.buddy.alloc()
        kernel.physmem.get_ref(pfn)
        kernel.physmem.get_ref(pfn)
        # The merge bug: writing a shared frame without unmerging.
        with pytest.raises(CowViolationError):
            kernel.physmem.write(pfn, content("smash"))
