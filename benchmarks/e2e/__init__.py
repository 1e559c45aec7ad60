"""bench_e2e: the repo's end-to-end performance ledger.

Six named workloads drive the public entry points from circuit *text*
to result, each in fresh child interpreters; twelve end-to-end metrics
and a per-layer phase table come out.  ``README.md`` beside this file
has the tables; ``python -m benchmarks.e2e --help`` the commands.
"""
