"""Experiment harness: one module per paper claim/figure.

``repro.bench.runner`` provides result containers and table/series
printing; ``repro.bench.experiments`` contains E1–E17 and the A1–A4
ablations (see DESIGN.md §4 for the claim map).  Each experiment module
exposes one four-name contract (``docs/extending.md``):

- ``run(**params)`` returning an
  :class:`~repro.bench.runner.ExperimentResult`; its signature defaults
  are the full-size sizing;
- ``DEFAULTS`` — those defaults as a dict, derived from the signature
  (:func:`~repro.bench.runner.signature_defaults`), never restated;
- ``QUICK`` — only the parameters the CI sizing overrides;
- ``check(result, params)`` — the claim-shape assertions, which
  ``python -m repro.bench`` runs after every ``run``.
"""

from repro.bench.runner import ExperimentResult, Table, print_result

__all__ = ["ExperimentResult", "Table", "print_result"]
