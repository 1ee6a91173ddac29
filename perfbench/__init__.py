"""Repository benchmark: four closed-loop workloads over the public ``repro``
API, with end-to-end metrics from untraced runs and per-layer metrics from a
separately traced run.  Run ``python3 perfbench/run.py --help``; the design
and the metric map are in ``perfbench/README.md``.
"""
