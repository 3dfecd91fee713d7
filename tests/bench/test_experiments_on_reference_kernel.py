"""Every experiment's QUICK tables come out the same on the pure-heap
reference kernel: the lanes and slab of ``repro.sim.kernel`` are
invisible not just to synthetic schedules (``tests/sim/
test_kernel_oracle.py``) but to every pipeline the paper's claims run on.
"""

import pytest

from repro.bench import experiments
from tests.sim.reference_kernel import ReferenceSimulation

_SKIP = {
    "E17": "tables are wall-clock and its shards run in forked workers",
}


def _render(module) -> str:
    return module.run(**module.QUICK).render()


@pytest.mark.parametrize("experiment_id", [
    pytest.param(
        experiment_id,
        marks=pytest.mark.skip(reason=_SKIP[experiment_id])
        if experiment_id in _SKIP else (),
    )
    for experiment_id in experiments.all_ids()
])
def test_quick_tables_equal_on_reference_kernel(experiment_id, monkeypatch):
    module = experiments.get(experiment_id)
    expected = _render(module)

    built = []

    class Reference(ReferenceSimulation):
        def __init__(self, *args, **kwargs) -> None:
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(module, "Simulation", Reference)
    assert _render(module) == expected
    assert built  # the experiment really ran on the reference
