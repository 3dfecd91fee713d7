"""The census's option and function gates on synthetic inputs (no traffic
run).

``scripts/traffic_census.py`` records what every library constructor's
options took across the census traffic and which library functions ran,
and hands them to ``classify_options`` and ``classify_functions``; these
tests pin both classifications."""

from __future__ import annotations

import abc
import enum
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "traffic_census.py"


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location("_traffic_census", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Mode(enum.Enum):
    FAST = 1
    SAFE = 2


def test_option_with_one_value_is_flagged(census):
    flagged, stale = census.classify_options(
        {"m.Config.jitter": [0.0, 0.0, 0.0], "m.Pool.flag": [True]}, {},
    )
    assert flagged == ["m.Config.jitter", "m.Pool.flag"]
    assert stale == []


@pytest.mark.parametrize("values", [
    [0.0, 0.5],
    [None, 3],
    [_Mode.FAST, _Mode.SAFE],
    [True, 1],  # equal under ==, but two values a caller chose
])
def test_option_with_two_values_passes(census, values):
    assert census.classify_options({"m.Config.x": values}, {}) == ([], [])


def test_exempt_option_is_kept(census):
    exempt = {"m.Config.retention": "a paper element"}
    assert census.classify_options(
        {"m.Config.retention": [None]}, exempt,
    ) == ([], [])


def test_exemption_without_a_reason_does_not_count(census):
    flagged, _ = census.classify_options(
        {"m.Config.retention": [None]}, {"m.Config.retention": ""},
    )
    assert flagged == ["m.Config.retention"]


def test_stale_exemption_fails(census):
    exempt = {"m.Config.varies": "why", "m.Config.gone": "why"}
    flagged, stale = census.classify_options(
        {"m.Config.varies": [1, 2]}, exempt,
    )
    assert flagged == []
    assert stale == ["m.Config.gone", "m.Config.varies"]


def test_str_identifier_is_ignored(census):
    observed = {"m.Topic.name": ["orders"], "m.Pool.topic": ["jobs", "jobs"]}
    assert census.classify_options(observed, {}) == ([], [])


def test_dependency_is_ignored(census):
    # the census records an object by its type name
    observed = {"m.Pool.tracer": ["<Tracer>"], "m.Pool.metrics": [None, "<X>"]}
    assert census.classify_options(observed, {}) == ([], [])
    assert census.scalar_options(observed) == {}


# ----------------------------------------------------------------------
# the function gate


class _Plain:
    def method(self):
        pass


class _Failure(Exception):
    def detail(self):
        pass


class _Contract(abc.ABC):
    @abc.abstractmethod
    def run(self):
        """The contract."""


class _Implementation(_Contract):
    def run(self):
        pass


def test_unreached_function_without_exemption_is_flagged(census):
    defined = {"m.helper": None, "m._Plain.method": _Plain}
    flagged, stale = census.classify_functions(defined, {"m.helper"}, {})
    assert flagged == ["m._Plain.method"]
    assert stale == []


def test_exempt_function_is_kept_and_a_stale_entry_fails(census):
    defined = {"m.recover": None, "m.helper": None}
    exempt = {"m.recover": "(a) a recovery path", "m.helper": "why",
              "m.gone": "why"}
    flagged, stale = census.classify_functions(defined, {"m.helper"}, exempt)
    assert flagged == []
    assert stale == ["m.gone", "m.helper"]


def test_exemption_without_a_reason_does_not_count_for_functions(census):
    flagged, _ = census.classify_functions(
        {"m.helper": None}, set(), {"m.helper": ""},
    )
    assert flagged == ["m.helper"]


def test_exception_method_is_never_flagged(census):
    defined = {"m._Failure.detail": _Failure}
    assert census.classify_functions(defined, set(), {}) == ([], [])


def test_repr_and_str_are_never_flagged(census):
    defined = {"m._Plain.__repr__": _Plain, "m._Plain.__str__": _Plain}
    assert census.classify_functions(defined, set(), {}) == ([], [])


def test_implementation_of_an_abstract_method_is_never_flagged(census):
    defined = {"m._Implementation.run": _Implementation}
    assert census.classify_functions(defined, set(), {}) == ([], [])
