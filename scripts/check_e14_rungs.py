#!/usr/bin/env python3
"""Golden pin for E14's small rungs.

E14's DEFAULTS sweep runs for minutes (its 100k and 500k rungs), so
``tests/bench/test_golden_output.py`` cannot rerun it.  Its rungs are
independent worlds, though, so this script reruns E14 at DEFAULTS with
only the four small rungs (1k and 10k sessions, 10% and 50% storms;
a few seconds) and compares every cell of those rows, in both E14
tables, with the E14 section of ``experiments_output.txt``.  Column
widths follow the widest cell of a table, so cells are compared, not
lines.  Exit 1 names each cell that differs.

    PYTHONHASHSEED=0 PYTHONPATH=src python scripts/check_e14_rungs.py
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from repro.bench.experiments import e14_session_scale as e14  # noqa: E402
from repro.bench.runner import sizing  # noqa: E402
from tests.bench.test_golden_output import SECTIONS  # noqa: E402

RUNGS = ((1_000, 0.1), (1_000, 0.5), (10_000, 0.1), (10_000, 0.5))
TABLES = ("session sweep", "machinery accounting")

Rows = Dict[Tuple[str, str], Dict[str, str]]


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


def differences(golden: str, rendered: str) -> List[str]:
    found = []
    for title in TABLES:
        want, got = table_rows(golden, title), table_rows(rendered, title)
        if not got:
            found.append(f"{title}: no rows rendered")
        for rung, cells in got.items():
            expected = want.get(rung)
            if expected is None:
                found.append(f"{title} {rung}: no golden row")
                continue
            for column, cell in cells.items():
                if expected.get(column) != cell:
                    found.append(
                        f"{title} {rung} {column}: golden "
                        f"{expected.get(column)}, rendered {cell}"
                    )
    return found


def main() -> int:
    params = dict(sizing(e14, quick=False), rungs=RUNGS)
    rendered = e14.run(**params).render()
    found = differences(SECTIONS["E14"], rendered)
    for line in found:
        print(f"DIFFERS {line}")
    print(f"E14 {len(RUNGS)} rungs x {len(TABLES)} tables: "
          + ("ok" if not found else f"{len(found)} cells differ"))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
