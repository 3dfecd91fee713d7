"""Model-based testing of the knowledge map against a brute-force model.

The model tracks, for a finite set of probe keys, exactly which
versions are known.  `KnowledgeMap.knows(range, v)` must then equal
"every probe key inside the range knows v" — for ranges whose
endpoints are drawn from the same alphabet as the probe keys, which is
sufficient because region boundaries can only come from those inputs.
"""

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from hypothesis import strategies as st

from repro._types import KeyRange
from repro.core.knowledge import KnowledgeMap

ALPHABET = "acegikmoqsuwy"
#: Range boundaries can only take values `c` or `c + "z"` for letters in
#: ALPHABET.  The probes must hit every atomic interval those induce:
#: one inside [c, cz) — `c0` — and one inside [cz, next_letter) — the
#: intermediate letter (b, d, f, ...).
PROBES = sorted(
    [c + "0" for c in ALPHABET] + [chr(ord(c) + 1) for c in ALPHABET]
)

ranges = st.tuples(
    st.sampled_from(ALPHABET), st.sampled_from(ALPHABET)
).map(lambda p: KeyRange(min(p), max(p) + "z"))


class KnowledgeMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.km = KnowledgeMap()
        #: probe key -> set of known versions
        self.model = {p: set() for p in PROBES}

    @initialize(base=ranges, version=st.integers(1, 10))
    def do_reset(self, base, version):
        self.km.reset(base, version)
        for probe in PROBES:
            self.model[probe] = {version} if base.contains(probe) else set()

    @rule(extension=ranges, version=st.integers(1, 60))
    def extend(self, extension, version):
        self.km.extend(extension, version)
        for probe in PROBES:
            known = self.model[probe]
            if not known or not extension.contains(probe):
                continue
            high = max(known)
            if version > high:
                # the window is contiguous [low, high]: extend it
                low = min(known)
                self.model[probe] = set(range(low, version + 1))

    # ------------------------------------------------------------------

    @invariant()
    def knows_matches_model_per_probe(self):
        for probe in PROBES:
            for version in sorted(self.model[probe])[:3]:
                assert self.km.knows_key(probe, version), (probe, version)

    @invariant()
    def unknown_versions_rejected(self):
        for probe in PROBES[::3]:
            known = self.model[probe]
            high = max(known) if known else 0
            assert not self.km.knows_key(probe, high + 1)
            if known and min(known) > 1:
                assert not self.km.knows_key(probe, min(known) - 1)

    @invariant()
    def range_knows_is_conjunction_of_probes(self):
        # a few representative ranges
        for low, high in [("a", "mz"), ("g", "uz"), ("a", "yz")]:
            query = KeyRange(low, high)
            inside = [p for p in PROBES if query.contains(p)]
            if not inside:
                continue
            for version in (1, 5, 20, 45):
                expected = all(version in self.model[p] for p in inside)
                assert self.km.knows(query, version) == expected, (
                    query, version
                )

    @invariant()
    def regions_disjoint_and_windows_valid(self):
        regions = self.km.regions
        for i, a in enumerate(regions):
            assert a.low_version <= a.high_version
            for b in regions[i + 1:]:
                assert not a.key_range.overlaps(b.key_range)


TestKnowledgeModel = KnowledgeMachine.TestCase
TestKnowledgeModel.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
