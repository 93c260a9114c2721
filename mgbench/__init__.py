"""Repository benchmark: verified solve and serving workloads.

``python3 mgbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload; see ``mgbench/README.md`` for the
workloads, the metric definitions and the layer map.
"""
