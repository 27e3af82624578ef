"""Tests for the statistics, metrics and report-rendering helpers."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from repro.analysis.metrics import count_huge_pages, fused_page_breakdown, take_sample
from repro.analysis.report import format_series, format_table
from repro.analysis.stats import (
    HAVE_SCIPY,
    distribution_summary,
    histogram,
    ks_2samp_pvalue,
    ks_uniform_pvalue,
)
from repro.fusion.ksm import Ksm
from repro.kernel.kernel import Kernel
from repro.params import PAGES_PER_HUGE_PAGE, SECOND

from tests.conftest import dup, fast_fusion, small_spec


class TestStats:
    needs_scipy = pytest.mark.skipif(
        not HAVE_SCIPY, reason="SciPy not installed"
    )

    @needs_scipy
    def test_ks_same_distribution(self):
        import random

        rng = random.Random(1)
        a = [rng.gauss(100, 10) for _ in range(200)]
        b = [rng.gauss(100, 10) for _ in range(200)]
        assert ks_2samp_pvalue(a, b) > 0.05

    @needs_scipy
    def test_ks_different_distribution(self):
        a = [100.0] * 100
        b = [500.0] * 100
        assert ks_2samp_pvalue(a, b) < 0.001

    @needs_scipy
    def test_ks_uniform_accepts_uniform(self):
        import random

        rng = random.Random(2)
        values = [rng.uniform(10, 20) for _ in range(500)]
        assert ks_uniform_pvalue(values, 10, 20) > 0.05

    @needs_scipy
    def test_ks_uniform_rejects_clustered(self):
        values = [10.1] * 200
        assert ks_uniform_pvalue(values, 10, 20) < 0.001

    def test_import_leaves_scipy_unloaded(self):
        """SciPy is imported by the first KS call, never by importing
        the harness or the CLI (it dominated every cold start)."""
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = (
            "import sys, repro.harness.fleet, repro.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True,
            text=True, check=True,
        )
        assert result.stdout.strip() == "[]"

    def test_ks_uniform_bad_interval(self):
        with pytest.raises(ValueError):
            ks_uniform_pvalue([1.0], 5, 5)

    def test_histogram_bins(self):
        hist = histogram([0, 1, 2, 3, 4, 5, 6, 7, 8, 9], bins=5)
        assert len(hist) == 5
        assert sum(count for _edge, count in hist) == 10

    def test_histogram_degenerate(self):
        assert histogram([7, 7, 7]) == [(7.0, 3)]
        assert histogram([]) == []

    def test_summary_unimodal(self):
        summary = distribution_summary([100, 101, 102, 99, 100])
        assert summary.modes == 1
        assert summary.median == 100

    def test_summary_bimodal(self):
        summary = distribution_summary([100] * 50 + [5000] * 50)
        assert summary.modes == 2

    def test_summary_close_clusters_one_mode(self):
        # A 2% gap (e.g. DRAM row hit vs miss) is not a separate peak.
        summary = distribution_summary([4746] * 50 + [4841] * 50)
        assert summary.modes == 1


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["long-name", 2.5]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "long-name" in lines[-1]
        assert "2.50" in text

    def test_format_table_title(self):
        text = format_table(["h"], [["x"]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_format_series_merges_timelines(self):
        text = format_series(
            {"a": [(1.0, 10.0), (2.0, 20.0)], "b": [(1.0, 5.0)]},
            title="s",
        )
        assert "10.00" in text
        assert "-" in text  # missing b sample at t=2


class TestMetrics:
    def test_count_huge_pages(self):
        kernel = Kernel(small_spec(frames=16384), thp_fault_enabled=True)
        proc = kernel.create_process("p")
        vma = proc.mmap(PAGES_PER_HUGE_PAGE)
        assert count_huge_pages(kernel) == 0
        proc.write(vma.start, b"x")
        assert count_huge_pages(kernel) == 1

    def test_take_sample_fields(self):
        kernel = Kernel(small_spec())
        sample = take_sample(kernel)
        assert sample.saved_frames == 0
        assert sample.frames_in_use >= 16  # reserved kernel frames
        assert sample.t_s == 0.0

    def test_fused_breakdown_by_guest_kind(self):
        kernel = Kernel(small_spec())
        ksm = Ksm(fast_fusion())
        kernel.attach_fusion(ksm)
        a = kernel.create_process("a")
        b = kernel.create_process("b")
        va = a.mmap(4, mergeable=True)
        vb = b.mmap(4, mergeable=True)
        va.extra["guest_kind"] = "page_cache"
        vb.extra["guest_kind"] = "kernel"
        for index in range(4):
            a.write_page(va, index, dup("t3", index))
            b.write_page(vb, index, dup("t3", index))
        kernel.idle(2 * SECOND)
        breakdown = fused_page_breakdown(kernel)
        assert breakdown["page_cache"] == 4
        assert breakdown["kernel"] == 4
