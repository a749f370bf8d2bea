.PHONY: install test bench-micro experiments figures clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

# Just the hot-path kernels: engine, disk, layout, log space.
bench-micro:
	pytest benchmarks/test_bench_micro.py --benchmark-only

# Regenerate every paper artifact (slow: ~20 minutes at default scales).
experiments:
	python -m repro.cli run all --out experiment_reports.txt

figures:
	python -m repro.cli run fig9 --svg-dir figures
	python -m repro.cli run fig2 --svg-dir figures
	python -m repro.cli run fig10 --svg-dir figures

clean:
	rm -rf .pytest_cache .hypothesis src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
