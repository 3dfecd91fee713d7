"""Registry hygiene: every experiment module honours the one contract."""

import inspect

import pytest

from repro.bench import experiments
from repro.bench.runner import signature_defaults, sizing


@pytest.mark.parametrize("experiment_id", experiments.all_ids())
def test_module_contract(experiment_id):
    module = experiments.get(experiment_id)
    assert module.__doc__, f"{experiment_id} needs a claim docstring"
    assert callable(module.run) and callable(module.check)
    assert list(inspect.signature(module.check).parameters) == [
        "result", "params",
    ]
    # run's signature is the one statement of the full-size sizing:
    # every parameter has a default, and DEFAULTS is exactly those
    parameters = inspect.signature(module.run).parameters
    assert all(
        parameter.default is not inspect.Parameter.empty
        for parameter in parameters.values()
    ), f"{experiment_id}: run() parameter without a default"
    assert module.DEFAULTS == signature_defaults(module.run)
    # QUICK holds overrides only: known parameters, none restating
    # its default
    unknown = set(module.QUICK) - set(parameters)
    assert not unknown, f"{experiment_id}: unknown QUICK params {unknown}"
    restated = [
        name for name, value in module.QUICK.items()
        if value == module.DEFAULTS[name]
    ]
    assert not restated, f"{experiment_id}: QUICK restates {restated}"


@pytest.mark.parametrize("experiment_id", experiments.all_ids())
def test_quick_is_not_larger_than_defaults(experiment_id):
    module = experiments.get(experiment_id)
    if "duration" in module.DEFAULTS:
        quick = sizing(module, quick=True)
        assert quick["duration"] <= module.DEFAULTS["duration"]


def test_sizing_layers_quick_over_defaults():
    module = experiments.get("E3")
    assert sizing(module) == module.DEFAULTS
    quick = sizing(module, quick=True)
    assert list(quick) == list(module.DEFAULTS)
    assert quick["num_keys"] == module.QUICK["num_keys"]
    assert quick["num_nodes"] == module.DEFAULTS["num_nodes"]
    quick["num_nodes"] = -1  # a copy: the module's dicts are untouched
    assert module.DEFAULTS["num_nodes"] != -1


def test_all_ids_stable():
    ids = experiments.all_ids()
    assert ids[:3] == ["E1", "E2", "E2b"]
    assert "A4" in ids
    assert len(ids) == len(set(ids))
