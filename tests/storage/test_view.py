"""Tests for filtered views (§4.1: hiding producer store internals)."""

import pytest

from repro._types import KeyRange
from repro.storage.kv import MVCCStore
from repro.storage.view import FilteredView


def contacts_only(key):
    return key.startswith("contact/")


def project_phone(key, value):
    return {"phone": value.get("phone")}


class TestVisibility:
    def test_hidden_keys_invisible(self):
        s = MVCCStore()
        s.put("contact/alice", {"phone": "1", "ssn": "x"})
        s.put("internal/audit", {"blob": 1})
        view = FilteredView(s, key_predicate=contacts_only)
        assert view.get("contact/alice") is not None
        assert view.get("internal/audit") is None
        assert dict(view.scan()) == {"contact/alice": {"phone": "1", "ssn": "x"}}

    def test_projection_strips_fields(self):
        s = MVCCStore()
        s.put("contact/alice", {"phone": "1", "ssn": "SECRET"})
        view = FilteredView(
            s, key_predicate=contacts_only, projection=project_phone
        )
        assert view.get("contact/alice") == {"phone": "1"}
        assert "SECRET" not in repr(dict(view.scan()))

    def test_versioned_reads_pass_through(self):
        s = MVCCStore()
        v1 = s.put("contact/a", {"phone": "1"})
        s.put("contact/a", {"phone": "2"})
        view = FilteredView(s, key_predicate=contacts_only)
        assert view.get("contact/a", v1) == {"phone": "1"}
        assert view.last_version == s.last_version

    def test_count_and_snapshot_items(self):
        s = MVCCStore()
        s.put("contact/a", {"phone": "1"})
        s.put("other/b", 2)
        view = FilteredView(s, key_predicate=contacts_only)
        assert view.count() == 1
        assert view.snapshot_items() == {"contact/a": {"phone": "1"}}


class TestViewHistory:
    def test_history_mirrors_visible_writes_at_same_versions(self):
        s = MVCCStore()
        view = FilteredView(
            s, key_predicate=contacts_only, projection=project_phone
        )
        v1 = s.put("contact/a", {"phone": "1", "ssn": "s"})
        s.put("hidden/x", 1)
        v3 = s.put("contact/b", {"phone": "2"})
        versions = [c.version for c in view.history.commits()]
        assert versions == [v1, v3]
        # projected values, not raw
        (key, mutation), = view.history.commits()[0].writes
        assert mutation.value == {"phone": "1"}

    def test_deletes_propagate(self):
        s = MVCCStore()
        view = FilteredView(s, key_predicate=contacts_only)
        s.put("contact/a", {"phone": "1"})
        s.delete("contact/a")
        last = view.history.commits()[-1]
        assert last.writes[0][1].is_delete

    def test_close_stops_mirroring(self):
        s = MVCCStore()
        view = FilteredView(s, key_predicate=contacts_only)
        view.close()
        s.put("contact/a", {"phone": "1"})
        assert len(view.history._commits) == 0

    def test_view_is_watchable(self, sim):
        """A StoreWatch over the view streams only visible, projected
        changes — the §4.1 consumer contract."""
        from repro.core.api import FnWatchCallback
        from repro.core.store_watch import StoreWatch

        s = MVCCStore()
        view = FilteredView(
            s, key_predicate=contacts_only, projection=project_phone
        )
        watch = StoreWatch(sim, view)
        events = []
        watch.watch_range(
            KeyRange.all(), 0, FnWatchCallback(on_event=events.append)
        )
        s.put("contact/a", {"phone": "7", "ssn": "hidden"})
        s.put("internal/z", 1)
        sim.run()
        assert len(events) == 1
        assert events[0].key == "contact/a"
        assert events[0].mutation.value == {"phone": "7"}
