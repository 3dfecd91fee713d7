"""Golden pin: fast experiments render exactly their checked-in section.

``experiments_output.txt`` is the DEFAULTS sweep
(``python -m repro.bench all --jobs 2``).  Every experiment whose
DEFAULTS run takes about two seconds or less is rerun here and must
render, byte for byte, its section of that file — the ``--omit-timings``
form, i.e. everything from its ``=== ... ===`` header up to its
``(wall time: ...)`` line.  A change that moves one of these tables
must regenerate the file in the same commit; the slow experiments are
pinned by the sweep itself.
"""

from pathlib import Path

import pytest

from repro.bench import experiments
from repro.bench.runner import sizing

GOLDEN = Path(__file__).resolve().parents[2] / "experiments_output.txt"

FAST = (
    "E5", "E6b", "E7", "E8", "E9", "E10", "E13", "E16",
    "A1", "A2", "A3", "A4",
)


def _sections():
    """{experiment id: its rendered section}, read from the golden file."""
    sections, current, lines = {}, None, []
    for line in GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith("=== "):
            current, lines = line[4:].split(" ", 1)[0], [line]
        elif current is not None and line.startswith("(wall time: "):
            sections[current] = "".join(lines)
            current = None
        elif current is not None:
            lines.append(line)
    return sections


SECTIONS = _sections()


def test_every_fast_experiment_has_a_golden_section():
    assert set(FAST) <= set(SECTIONS), sorted(set(FAST) - set(SECTIONS))
    assert set(FAST) <= set(experiments.all_ids())


@pytest.mark.parametrize("experiment_id", FAST)
def test_defaults_render_matches_golden(experiment_id):
    module = experiments.get(experiment_id)
    result = module.run(**sizing(module, quick=False))
    assert result.render() + "\n" == SECTIONS[experiment_id]
