"""Experiment reproductions: one module per paper table / figure.

The serving figures (2, 5, 12, 13, 14, 16 and 17) are cells of one grid,
:mod:`repro.experiments.grid` (``python -m repro.experiments``, which
writes ``FIGURES_results.json``); each figure module formats the entries
it prints.  Figure 15 and Table 1 need no serving run: their modules keep
a ``run_*`` function beside their ``format_*``.  Every run takes an
:class:`~repro.experiments.runner.ExperimentScale`, so the benchmark suite
runs a scaled-down (but structurally identical) version in seconds while
the full-scale version reproduces the paper's setup.
"""
