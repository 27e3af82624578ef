PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint test sanitize bench perf

## check: everything CI gates on — simlint + tier-1 tests under FrameSan
check: lint sanitize

## lint: all three static tiers over the whole tree (exit 1 on any
## finding); the summary cache makes repeat runs incremental
lint:
	$(PYTHON) -m repro lint src tests benchmarks examples --strict --cache .lint-cache/summaries.json

## test: the tier-1 suite, sanitizer off (fastest signal)
test:
	$(PYTHON) -m pytest -x -q

## sanitize: the tier-1 suite with FrameSan active
sanitize:
	REPRO_SANITIZE=1 $(PYTHON) -m pytest -x -q

## bench: perf gates (physmem arena digests vs uncached, e2e batch
## vs scalar scan kernel, scan pass, runner, lint, fleet scale, shard
## scaling).  REPRO_FLEET_TIER=smoke trims
## the fleet curves to the 20k tier (what CI runs); unset runs
## 20k/100k/500k.
bench:
	$(PYTHON) -m pytest -x -q -s benchmarks/test_physmem_ops.py \
	    benchmarks/test_e2e_scenario.py \
	    benchmarks/test_scan_pass.py \
	    benchmarks/test_runner_speedup.py \
	    benchmarks/test_lint_throughput.py \
	    benchmarks/test_fleet_scale.py \
	    benchmarks/test_shard_scaling.py

## perf: the end-to-end benchmark declared in BENCHMARK.json, all
## three perfbench workloads untraced (about 40 s each).  For a
## per-layer breakdown run one workload with --trace 1.
perf:
	$(PYTHON) perfbench/run.py --workload fleet-ksm --seconds 40 --trace 0
	$(PYTHON) perfbench/run.py --workload fleet-vusion --seconds 40 --trace 0
	$(PYTHON) perfbench/run.py --workload shard-1m --seconds 40 --trace 0
