"""Wall-clock benchmark of the repro library.

Four closed-loop workloads drive the public API (``repro.connect()``,
``Session.run_script`` / ``execute`` / ``transaction``) with one client
thread, check their answers, and report end-to-end metrics measured with
tracing off.  A separate traced run wraps each layer's public entry
points (:mod:`wallbench.tracer`) and reports per-layer self time and
counts.  Run ``python3 wallbench/run.py --help``; see ``README.md``.
"""
