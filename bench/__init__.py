"""The repo's one benchmark for the serving path (see bench/README.md).

``python -m bench.run`` starts real server processes from ``src/``, drives
them from one generator process and prints every metric named in
``BENCHMARK.json``.
"""
