"""Experiment harnesses regenerating the paper's tables and figures.

Each module builds a complete scenario on a fresh :class:`~repro.farm.
Farm`, runs it on the virtual clock, returns structured results and
renders them in the paper's format.  :data:`repro.experiments.registry.
ARTEFACTS` lists them, one row per artefact, and ``python -m
repro.experiments <id>`` regenerates one or checks it against the file
tracked under ``benchmarks/output/``.  Tests reuse the same harnesses,
so what the artefacts report is continuously verified.
"""
