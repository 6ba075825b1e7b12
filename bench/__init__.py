"""Sage hour benchmark: four workloads, end-to-end hour metrics, and an
outside-in per-layer trace.

``python -m bench run`` measures workloads, each in a fresh subprocess;
``python -m bench compare PARENT CHANGE`` compares two result sets.  See
``bench/README.md`` for the workloads, the metrics and their bounds.
"""
