"""End-to-end benchmark of the served anti-persistent store.

``python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload against a ``repro serve`` process on loopback, checks
every answer, and prints its metrics; see ``servebench/README.md``.
"""
