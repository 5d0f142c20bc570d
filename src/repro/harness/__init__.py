"""Experiment harness.

- :mod:`repro.harness.runner` — engine factories, scaled hardware specs, and
  a memoizing grid runner shared by all benchmarks.
- :mod:`repro.harness.tables` — plain-text table formatting that mimics the
  paper's layout.
- :mod:`repro.harness.experiments` — one driver per paper table/figure and
  :data:`~repro.harness.experiments.EXPERIMENTS`, the one ordered list of
  them that the CLI, the report, the CSV export and the benchmark
  regenerator iterate.
- :mod:`repro.harness.report` / :mod:`repro.harness.export` — the whole
  table as one text report / as CSV series.
"""

from repro.harness.runner import GridRunner, scaled_spec
from repro.harness.tables import format_table, fmt_range

__all__ = ["GridRunner", "scaled_spec", "format_table", "fmt_range"]
