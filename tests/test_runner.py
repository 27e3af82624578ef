"""Unit tests for the parallel experiment runner (repro.runner).

Fault-injection uses the built-in ``selftest`` task kind: crashes are
real ``os._exit`` in a worker process, hangs are real sleeps killed by
the watchdog — the pool code paths exercised are exactly those real
experiments would hit.
"""

from __future__ import annotations

import json

import pytest

from repro.runner import (
    MATRIX_ENGINES,
    PoolDegraded,
    RunCompleted,
    RunnerConfig,
    RunStarted,
    TaskFinished,
    TaskPool,
    TaskRetrying,
    TaskSpec,
    TaskStarted,
    canonical_json,
    derive_seed,
    execute_task,
    expand_selectors,
    run_tasks,
    sanitize,
    write_artifacts,
)

FAST_RETRY = dict(retry_backoff_s=0.02)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(1017, "experiment:fig3") == derive_seed(
            1017, "experiment:fig3"
        )

    def test_varies_with_task_and_root(self):
        seeds = {
            derive_seed(1017, "experiment:fig3"),
            derive_seed(1017, "experiment:fig4"),
            derive_seed(1018, "experiment:fig3"),
        }
        assert len(seeds) == 3

    def test_range(self):
        for task_id in ("a", "b", "attack:x@y"):
            assert 0 <= derive_seed(3, task_id) < 2**63


class TestTaskSpec:
    def test_experiment_ids(self):
        assert TaskSpec.experiment("fig3").task_id == "experiment:fig3"
        assert (TaskSpec.experiment("fig4", scale="full").task_id
                == "experiment:fig4#full")

    def test_attack_id_includes_target(self):
        spec = TaskSpec.attack("cow-timing", target="vusion")
        assert spec.task_id == "attack:cow-timing@vusion"

    def test_attack_default_target(self):
        assert TaskSpec.attack("page-color").param("target") == "wpf"

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError):
            TaskSpec.experiment("fig99")
        with pytest.raises(ValueError):
            TaskSpec.attack("no-such-attack")
        with pytest.raises(ValueError):
            TaskSpec.attack("cow-timing", target="no-such-engine")
        with pytest.raises(ValueError):
            TaskSpec(kind="bogus", name="x")

    def test_specs_are_picklable_and_hashable(self):
        import pickle

        spec = TaskSpec.attack("translation")
        assert pickle.loads(pickle.dumps(spec)) == spec
        # In-process hashability check, never persisted.
        assert hash(spec) == hash(pickle.loads(pickle.dumps(spec)))  # simlint: disable=DET004


class TestSelectors:
    def test_all(self):
        from repro.harness.experiments import EXPERIMENTS

        tasks = expand_selectors([], select_all=True)
        assert [t.name for t in tasks] == list(EXPERIMENTS)

    def test_tag(self):
        tasks = expand_selectors(["tag:quick"])
        assert {t.name for t in tasks} >= {"fig3", "fig5", "fig6", "ra"}
        assert all(t.kind == "experiment" for t in tasks)

    def test_matrix_is_full_cross_product(self):
        from repro.harness.experiments import TABLE1_ATTACKS

        tasks = expand_selectors(["matrix"])
        assert len(tasks) == len(TABLE1_ATTACKS) * len(MATRIX_ENGINES)
        assert len({t.task_id for t in tasks}) == len(tasks)

    def test_deduplication_preserves_order(self):
        tasks = expand_selectors(["fig3", "tag:quick", "fig3"])
        assert [t.name for t in tasks][0] == "fig3"
        assert len({t.task_id for t in tasks}) == len(tasks)

    def test_errors(self):
        with pytest.raises(ValueError):
            expand_selectors(["bogus"])
        with pytest.raises(ValueError):
            expand_selectors(["tag:bogus"])
        with pytest.raises(ValueError):
            expand_selectors([])


class TestSanitize:
    def test_tuples_bytes_and_keys(self):
        value = {("redis", "KSM"): (1, 2), "b": b"\x01\xff", "f": 1.5}
        clean = sanitize(value)
        assert clean == {"('redis', 'KSM')": [1, 2], "b": "01ff", "f": 1.5}

    def test_nan_inf(self):
        clean = sanitize({"n": float("nan"), "i": float("inf")})
        assert clean == {"n": "nan", "i": "inf"}
        json.loads(canonical_json({"n": float("nan")}))


class TestSerialExecution:
    def test_selftest_roundtrip(self):
        results = run_tasks(
            [TaskSpec.selftest("t", value=41)],
            config=RunnerConfig(force_serial=True),
        )
        assert results[0].ok
        assert results[0].payload["value"] == 41
        assert results[0].mode == "serial"

    def test_serial_retry_then_success(self):
        events = []
        results = run_tasks(
            [TaskSpec.selftest("flaky", mode="raise", fail_attempts=1)],
            config=RunnerConfig(force_serial=True, max_retries=2, **FAST_RETRY),
            on_event=events.append,
        )
        assert results[0].ok and results[0].attempts == 2
        assert any(isinstance(e, TaskRetrying) for e in events)

    def test_serial_retry_exhaustion(self):
        results = run_tasks(
            [TaskSpec.selftest("doomed", mode="raise", fail_attempts=99)],
            config=RunnerConfig(force_serial=True, max_retries=1, **FAST_RETRY),
        )
        assert results[0].status == "error"
        assert results[0].attempts == 2
        assert "injected failure" in results[0].error


class TestPoolExecution:
    def test_results_in_submission_order(self):
        tasks = [
            TaskSpec.selftest("slow", value=0, sleep_s=0.3),
            TaskSpec.selftest("fast", value=1),
        ]
        results = run_tasks(tasks, config=RunnerConfig(jobs=2))
        assert [r.payload["value"] for r in results] == [0, 1]
        assert all(r.mode == "pool" for r in results)

    def test_worker_crash_retried_to_success(self):
        events = []
        results = run_tasks(
            [TaskSpec.selftest("crashy", mode="crash", fail_attempts=1,
                               value=7)],
            config=RunnerConfig(jobs=2, max_retries=2, **FAST_RETRY),
            on_event=events.append,
        )
        assert results[0].ok and results[0].attempts == 2
        retries = [e for e in events if isinstance(e, TaskRetrying)]
        assert retries and retries[0].reason == "crashed"
        assert results[0].payload["value"] == 7

    def test_worker_crash_exhausts_retries(self):
        results = run_tasks(
            [TaskSpec.selftest("dead", mode="crash", fail_attempts=99)],
            config=RunnerConfig(jobs=1, max_retries=1, **FAST_RETRY),
        )
        assert results[0].status == "crashed"
        assert results[0].attempts == 2

    def test_hung_worker_times_out_and_retries(self):
        events = []
        results = run_tasks(
            [TaskSpec.selftest("hangy", mode="hang", fail_attempts=1,
                               hang_s=60)],
            config=RunnerConfig(jobs=1, timeout_s=0.5, max_retries=2,
                                **FAST_RETRY),
            on_event=events.append,
        )
        assert results[0].ok and results[0].attempts == 2
        assert any(isinstance(e, TaskRetrying) and e.reason == "timeout"
                   for e in events)

    def test_worker_exception_reported(self):
        results = run_tasks(
            [TaskSpec.selftest("raiser", mode="raise", fail_attempts=99)],
            config=RunnerConfig(jobs=1, max_retries=0, **FAST_RETRY),
        )
        assert results[0].status == "error"
        assert "RuntimeError" in results[0].error

    def test_event_stream_shape(self):
        events = []
        run_tasks(
            [TaskSpec.selftest("a"), TaskSpec.selftest("b")],
            config=RunnerConfig(jobs=2),
            on_event=events.append,
        )
        kinds = [type(e).__name__ for e in events]
        assert kinds[0] == "RunStarted" and kinds[-1] == "RunCompleted"
        assert kinds.count("TaskStarted") == 2
        assert kinds.count("TaskFinished") == 2
        done = [e for e in events if isinstance(e, RunCompleted)][0]
        assert done.total == 2 and done.ok == 2 and done.failed == 0


class TestPoolDegradation:
    def test_falls_back_to_serial_when_pool_breaks(self, monkeypatch):
        events = []
        pool = TaskPool(
            [TaskSpec.selftest("s1", value=1), TaskSpec.selftest("s2", value=2)],
            config=RunnerConfig(jobs=2, **FAST_RETRY),
            on_event=events.append,
        )

        def broken_spawn(ctx):
            raise OSError("fork: resource temporarily unavailable")

        monkeypatch.setattr(pool, "_spawn", broken_spawn)
        results = pool.run()
        assert [r.payload["value"] for r in results] == [1, 2]
        assert all(r.mode == "serial" for r in results)
        assert any(isinstance(e, PoolDegraded) for e in events)

    def test_degraded_results_match_pool_results(self, monkeypatch):
        tasks = [TaskSpec.selftest("x", value=3), TaskSpec.selftest("y", value=4)]
        healthy = run_tasks(tasks, config=RunnerConfig(jobs=2))
        pool = TaskPool(tasks, config=RunnerConfig(jobs=2))
        monkeypatch.setattr(
            pool, "_spawn",
            lambda *a, **k: (_ for _ in ()).throw(OSError("no pids")),
        )
        degraded = pool.run()
        assert ([r.payload for r in healthy]
                == [r.payload for r in degraded])

    def test_degraded_run_keeps_the_retry_budget(self, monkeypatch):
        # The pool dies after the first failed attempt: its worker is
        # killed and no replacement can be started.  The in-process
        # fallback must continue from attempt 2, not start over.
        events = []
        pool = TaskPool(
            [TaskSpec.selftest("doomed", mode="raise", fail_attempts=99)],
            config=RunnerConfig(jobs=1, max_retries=2, **FAST_RETRY),
        )
        spawn = pool._spawn
        spawned = []

        def spawn_once(ctx):
            if spawned:
                raise OSError("fork: resource temporarily unavailable")
            spawned.append(spawn(ctx))
            return spawned[-1]

        def on_event(event):
            events.append(event)
            if isinstance(event, TaskRetrying):
                for worker in spawned:
                    worker.process.kill()
                    worker.process.join()

        monkeypatch.setattr(pool, "_spawn", spawn_once)
        pool.on_event = on_event
        [result] = pool.run()
        assert any(isinstance(e, PoolDegraded) for e in events)
        assert result.status == "error" and result.mode == "serial"
        assert result.attempts == 3
        history = [line.strip() for line in result.error.splitlines()
                   if line.startswith("  attempt ")]
        assert [line.split(":")[0] for line in history] == [
            "attempt 1", "attempt 2", "attempt 3"]
        assert "after 3 attempt(s)" in result.error
        started = [e.attempt for e in events if isinstance(e, TaskStarted)]
        assert started == [0, 1, 2]


class TestArtifacts:
    def test_layout_and_manifest(self, tmp_path):
        results = run_tasks(
            [TaskSpec.selftest("art", value={"k": (1, 2)})],
            config=RunnerConfig(force_serial=True),
        )
        manifest_path = write_artifacts(tmp_path, results, root_seed=9, jobs=1)
        manifest = json.loads(manifest_path.read_text())
        assert manifest["root_seed"] == 9 and manifest["ok"] is True
        entry = manifest["tasks"][0]
        document = json.loads((tmp_path / entry["file"]).read_text())
        assert document["task_id"] == "selftest:art"
        assert document["result"]["value"] == {"k": [1, 2]}
        assert document["seed"] == results[0].seed

    def test_failed_task_recorded(self, tmp_path):
        results = run_tasks(
            [TaskSpec.selftest("bad", mode="raise", fail_attempts=9)],
            config=RunnerConfig(force_serial=True, max_retries=0, **FAST_RETRY),
        )
        manifest = json.loads(
            write_artifacts(tmp_path, results, root_seed=1, jobs=1).read_text()
        )
        assert manifest["ok"] is False
        assert manifest["tasks"][0]["status"] == "error"
        document = json.loads(
            (tmp_path / manifest["tasks"][0]["file"]).read_text()
        )
        assert document["result"] is None and "injected" in document["error"]


class TestExecuteTask:
    def test_attack_payload(self):
        payload = execute_task(
            TaskSpec.attack("cow-timing", target="vusion"), seed=1017
        )
        assert payload["type"] == "attack"
        assert payload["success"] is False  # VUsion defeats it
        assert payload["mitigated_by"] == "SB"

    def test_experiment_payload(self):
        payload = execute_task(TaskSpec.experiment("fig3"), seed=1017)
        assert payload["type"] == "experiment"
        assert payload["checks_pass"] is True
        assert payload["headers"][0] == "system"

    def test_retry_purity_for_experiments(self):
        first = execute_task(TaskSpec.experiment("fig3"), seed=3, attempt=0)
        second = execute_task(TaskSpec.experiment("fig3"), seed=3, attempt=5)
        assert canonical_json(first) == canonical_json(second)
