#!/usr/bin/env python3
"""Golden pin for the experiments too slow for tier-1.

``tests/bench/test_golden_output.py`` reruns only the experiments whose
DEFAULTS run takes about two seconds or less.  This script reruns the
next tier at DEFAULTS, two worker processes wide (about 35 s on two
vCPUs), and compares each with ``experiments_output.txt``:

- E1, E2, E2b, E3, E4, E6, E11, E12 and E15 must each render their
  section byte for byte;
- E14 reruns with only its four small rungs (1k and 10k sessions, 10%
  and 50% storms; its rungs are independent worlds, and the 100k and
  500k rungs take minutes), and every cell of those rows, in both E14
  tables, must equal the checked-in cell.  Column widths follow the
  widest cell of a table, so cells are compared, not lines.

E17 is left to a manual rerun.  Exit 1 names each section that differs,
with a diff of its lines, and each E14 cell that differs.

    PYTHONHASHSEED=0 PYTHONPATH=src python scripts/check_golden_slow.py
"""

from __future__ import annotations

import difflib
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from repro.bench import experiments  # noqa: E402
from repro.bench.runner import sizing  # noqa: E402
from repro.fleet import process_map  # noqa: E402
from tests.bench.test_golden_output import SECTIONS  # noqa: E402

SLOW = ("E1", "E2", "E2b", "E3", "E4", "E6", "E11", "E12", "E15")
JOBS = 2

E14_RUNGS = ((1_000, 0.1), (1_000, 0.5), (10_000, 0.1), (10_000, 0.5))
E14_TABLES = ("session sweep", "machinery accounting")

Rows = Dict[Tuple[str, str], Dict[str, str]]


def render(experiment_id: str) -> str:
    """One experiment's DEFAULTS section (E14: its small rungs only)."""
    module = experiments.get(experiment_id)
    params = sizing(module, quick=False)
    if experiment_id == "E14":
        params["rungs"] = E14_RUNGS
    return module.run(**params).render() + "\n"


def section_differences(experiment_id: str, rendered: str) -> List[str]:
    golden = SECTIONS[experiment_id]
    if rendered == golden:
        return []
    diff = difflib.unified_diff(
        golden.splitlines(), rendered.splitlines(),
        "experiments_output.txt", "rendered", lineterm="",
    )
    return [f"{experiment_id} section: {line}" for line in diff]


def table_rows(section: str, title: str) -> Rows:
    """{(sessions, storm_pct): {column: cell}} of one rendered table."""
    lines = section.splitlines()
    start = lines.index(title)
    header = lines[start + 2].split()
    rows: Rows = {}
    for line in lines[start + 4:]:
        if not line.strip():
            break
        cells = line.split()
        rows[cells[0], cells[1]] = dict(zip(header, cells))
    return rows


def e14_differences(rendered: str) -> List[str]:
    found = []
    golden = SECTIONS["E14"]
    for title in E14_TABLES:
        want, got = table_rows(golden, title), table_rows(rendered, title)
        if not got:
            found.append(f"E14 {title}: no rows rendered")
        for rung, cells in got.items():
            expected = want.get(rung)
            if expected is None:
                found.append(f"E14 {title} {rung}: no golden row")
                continue
            for column, cell in cells.items():
                if expected.get(column) != cell:
                    found.append(
                        f"E14 {title} {rung} {column}: golden "
                        f"{expected.get(column)}, rendered {cell}"
                    )
    return found


def main() -> int:
    ids = SLOW + ("E14",)
    found = []
    for experiment_id, rendered in zip(ids, process_map(render, ids, jobs=JOBS)):
        if experiment_id == "E14":
            found += e14_differences(rendered)
        else:
            found += section_differences(experiment_id, rendered)
    for line in found:
        print(f"DIFFERS {line}")
    print(f"{len(SLOW)} sections, E14 {len(E14_RUNGS)} rungs x "
          f"{len(E14_TABLES)} tables: "
          + ("ok" if not found else f"{len(found)} DIFFERS lines"))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
