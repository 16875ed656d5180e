"""Reproducible host-time benchmark of the SAC simulator.

See ``bench/README.md`` for the workloads, metrics and commands.
"""
