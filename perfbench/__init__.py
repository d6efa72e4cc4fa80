"""End-to-end benchmark of the SAVE/FETCH simulator, with per-layer tracing.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload; see ``perfbench/README.md``.
"""
