PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint test sanitize bench

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

## bench: perf gates (scan throughput, physmem arena digests vs
## uncached, e2e batch vs scalar scan kernel, scan pass, runner, lint,
## fleet scale, shard scaling).  REPRO_FLEET_TIER=smoke trims
## the fleet curves to the 20k tier (what CI runs); unset runs
## 20k/100k/500k.
bench:
	$(PYTHON) -m pytest -x -q -s benchmarks/test_scan_throughput.py \
	    benchmarks/test_physmem_ops.py \
	    benchmarks/test_e2e_scenario.py \
	    benchmarks/test_scan_pass.py \
	    benchmarks/test_runner_speedup.py \
	    benchmarks/test_lint_throughput.py \
	    benchmarks/test_fleet_scale.py \
	    benchmarks/test_shard_scaling.py
