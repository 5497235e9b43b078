PYTHON ?= python

.PHONY: native test lint bench clean

# Compile the optional C solver core in place (src/repro/sat/_native/).
# Everything works without it; see docs/architecture.md "Native core".
native:
	$(PYTHON) setup.py build_ext --inplace

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

lint:
	PYTHONPATH=src:. $(PYTHON) -m tools.janalyze --strict

bench:
	$(PYTHON) perfbench/run.py --workload cold-synth --seed 1 --seconds 15

clean:
	rm -rf build
	find src -name '*.so' -delete
	find . -name __pycache__ -type d -exec rm -rf {} +
