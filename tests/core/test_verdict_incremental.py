"""Incremental :meth:`VerdictEngine.finalize` equals a cold finalize.

``finalize`` keeps three caches between calls: the registry's
structural tags and owner map (per registry object), the last call's
verdicts, and the prefixes fed since then.  The oracle for every test
here is a cache-free engine rebuilt with
``VerdictEngine.from_state(engine.state_dict())``: after any day, with
any registry, the warm engine must return the same verdicts in the
same dict order.
"""

import datetime
import json

import pytest
from hypothesis import given, strategies as st

from repro.analysis.sources import detections_from_archive
from repro.core import verdict as verdict_module
from repro.core.detector import DailyConflict, DayDetection
from repro.core.verdict import (
    TAG_FOREIGN_SUBPREFIX,
    TAG_WIDE_ORIGIN_SET,
    VerdictConfig,
    VerdictEngine,
)
from repro.netbase.prefix import Prefix
from repro.netbase.rpki import Roa, RoaTable
from repro.netbase.sharding import ShardSpec
from repro.scenario.archive import ArchiveReader, RegistryEntry
from repro.scenario.incidents import IncidentScript
from repro.scenario.rpki import RpkiConfig
from repro.scenario.world import ScenarioConfig, simulate_study
from repro.util.dates import StudyCalendar

DAY0 = datetime.date(1998, 1, 1)

#: A small, nested prefix space so days, registries and ROAs collide
#: (including one exchange-point prefix).
UNIVERSE = tuple(
    Prefix.parse(text)
    for text in (
        "10.0.0.0/8",
        "10.1.0.0/16",
        "10.1.2.0/24",
        "20.0.0.0/8",
        "20.5.0.0/16",
        "30.0.0.0/16",
        "40.0.0.0/24",
        "198.32.7.0/24",
    )
)

#: Thresholds small enough that every kind shows up within 24 days,
#: and an anycast share that flips as the study grows.
CONFIG = VerdictConfig(
    short_days=2,
    long_days=6,
    anycast_min_origins=3,
    anycast_min_share=0.35,
    flapping_min_gap=0.4,
    flapping_min_days=2,
)

ORIGINS = (1, 2, 3, 4, 5, 64512)
TRANSITS = (100, 200, 1, 2)


def assert_equals_cold(engine: VerdictEngine, registry) -> dict:
    """``engine.finalize(registry)`` equals a cache-free engine's."""
    warm = engine.finalize(registry)
    cold = VerdictEngine.from_state(engine.state_dict()).finalize(registry)
    assert list(warm.items()) == list(cold.items())
    return warm


def detection(offset: int, conflicts) -> DayDetection:
    return DayDetection(
        day=DAY0 + datetime.timedelta(days=offset),
        conflicts=tuple(conflicts),
        prefixes_scanned=100,
        as_set_excluded=0,
    )


@st.composite
def conflicts_for(draw, prefix: Prefix) -> DailyConflict:
    origins = draw(
        st.frozensets(st.sampled_from(ORIGINS), min_size=2, max_size=5)
    )
    paths = ()
    if draw(st.booleans()):
        paths = tuple(
            (
                origin,
                (
                    (
                        draw(
                            st.sampled_from(
                                [t for t in TRANSITS if t != origin]
                            )
                        ),
                        origin,
                    ),
                ),
            )
            for origin in sorted(origins)
        )
    return DailyConflict(
        prefix=prefix, origins=origins, paths_by_origin=paths
    )


@st.composite
def registries(draw) -> list[RegistryEntry]:
    chosen = draw(
        st.lists(st.sampled_from(UNIVERSE), unique=True, max_size=7)
    )
    return [
        RegistryEntry(
            prefix,
            owner=draw(st.sampled_from((7, 8, 9))),
            created_day=draw(st.integers(0, 3)),
            flags=draw(st.sampled_from((0, 0, 0, 1))),
        )
        for prefix in chosen
    ]


@st.composite
def roa_tables(draw) -> RoaTable | None:
    if not draw(st.booleans()):
        return None
    rows = draw(
        st.lists(
            st.builds(
                lambda prefix, slack, origin: Roa(
                    prefix, min(32, prefix.length + slack), origin
                ),
                st.sampled_from(UNIVERSE),
                st.integers(0, 8),
                st.sampled_from(ORIGINS + (7, 8, 9)),
            ),
            max_size=5,
        )
    )
    return RoaTable(rows)


@st.composite
def scenarios(draw):
    """Days over recurring conflict objects, two registries, a schedule.

    Each prefix has two pre-built conflict objects and every day reuses
    one of them, as the columnar detector does with its cached
    conflicts.
    """
    pool = {
        prefix: (draw(conflicts_for(prefix)), draw(conflicts_for(prefix)))
        for prefix in UNIVERSE
    }
    num_days = draw(st.integers(1, 24))
    days = []
    for offset in range(num_days):
        present = draw(
            st.lists(st.sampled_from(UNIVERSE), unique=True, max_size=5)
        )
        days.append(
            detection(
                offset,
                (
                    pool[prefix][draw(st.integers(0, 1))]
                    for prefix in sorted(present, key=Prefix.sort_key)
                ),
            )
        )
    registry_a = draw(registries())
    registry_b = draw(registries())
    schedule = draw(
        st.lists(
            st.sampled_from((None, registry_a, registry_b)),
            min_size=num_days,
            max_size=num_days,
        )
    )
    return days, schedule, draw(roa_tables())


class TestIncrementalEqualsCold:
    @given(scenarios())
    def test_every_day_every_registry(self, scenario):
        days, schedule, roa_table = scenario
        engine = VerdictEngine(CONFIG, roa_table=roa_table)
        for day, registry in zip(days, schedule):
            engine.feed_day(day)
            assert_equals_cold(engine, registry)

    @given(scenarios(), st.sampled_from(("hash", "range")), st.data())
    def test_merged_and_restored_engines(self, scenario, scheme, data):
        days, schedule, roa_table = scenario
        split = data.draw(st.integers(0, len(days)))
        shards = [
            VerdictEngine(CONFIG, shard=spec, roa_table=roa_table)
            for spec in ShardSpec.partition(2, scheme)
        ]
        for day, registry in zip(days[:split], schedule):
            for engine in shards:
                engine.feed_day(day)
                engine.finalize(registry)  # warm the shard caches
        merged = VerdictEngine.merged(shards)
        restored = VerdictEngine.from_state(merged.state_dict())
        for day, registry in zip(days[split:], schedule[split:]):
            for engine in (merged, restored):
                engine.feed_day(day)
                assert_equals_cold(engine, registry)
        assert merged.finalize(schedule[-1]) == restored.finalize(
            schedule[-1]
        )


class TestCachedCases:
    def test_anycast_kind_follows_the_day_count(self):
        prefix = Prefix.parse("10.0.0.0/8")
        wide = DailyConflict(prefix=prefix, origins=frozenset({1, 2, 3}))
        engine = VerdictEngine(CONFIG)
        kinds = []
        for offset in range(12):
            engine.feed_day(detection(offset, [wide] if offset < 3 else []))
            verdict = assert_equals_cold(engine, None)[prefix]
            assert TAG_WIDE_ORIGIN_SET in verdict.tags
            kinds.append(verdict.kind)
        # 3 days stop being 35% of the study after day 8: the cached
        # anycast verdict must not outlive that.
        assert kinds[:8] == ["anycast"] * 8
        assert "anycast" not in kinds[9:]

    def test_registry_only_prefix_gains_evidence(self):
        cover = Prefix.parse("20.0.0.0/8")
        fragment = Prefix.parse("20.5.0.0/16")
        registry = [
            RegistryEntry(cover, 7, 0, 0),
            RegistryEntry(fragment, 666, 3, 0),
        ]
        other = DailyConflict(
            prefix=Prefix.parse("10.0.0.0/8"), origins=frozenset({1, 2})
        )
        engine = VerdictEngine(CONFIG)
        engine.feed_day(detection(0, [other]))
        before = assert_equals_cold(engine, registry)
        assert before[fragment].days_observed == 0
        assert list(before) == [other.prefix, fragment]
        engine.feed_day(
            detection(
                1,
                [
                    DailyConflict(
                        prefix=fragment, origins=frozenset({666, 7})
                    )
                ],
            )
        )
        after = assert_equals_cold(engine, registry)
        assert after[fragment].days_observed == 1
        assert TAG_FOREIGN_SUBPREFIX in after[fragment].tags
        assert after[fragment].perpetrators == {7}

    def test_registry_switches(self):
        prefix = Prefix.parse("20.5.0.0/16")
        registry_a = [
            RegistryEntry(Prefix.parse("20.0.0.0/8"), 7, 0, 0),
            RegistryEntry(prefix, 8, 2, 0),
        ]
        registry_b = [RegistryEntry(prefix, 8, 0, 0)]
        engine = VerdictEngine(CONFIG)
        conflict = DailyConflict(prefix=prefix, origins=frozenset({8, 9}))
        for offset, registry in enumerate(
            (None, registry_a, registry_b, registry_a, None, registry_b)
        ):
            engine.feed_day(detection(offset, [conflict] if offset % 2 else []))
            assert_equals_cold(engine, registry)

    def test_unchanged_verdicts_are_reused(self):
        quiet = DailyConflict(
            prefix=Prefix.parse("10.0.0.0/8"), origins=frozenset({1, 2})
        )
        busy = DailyConflict(
            prefix=Prefix.parse("30.0.0.0/16"), origins=frozenset({3, 4})
        )
        engine = VerdictEngine(CONFIG)
        engine.feed_day(detection(0, [quiet, busy]))
        first = engine.finalize()
        engine.feed_day(detection(1, [busy]))
        second = engine.finalize()
        assert second[quiet.prefix] is first[quiet.prefix]
        assert second[busy.prefix] is not first[busy.prefix]
        assert second[busy.prefix].days_observed == 2
        assert second is not first

    def test_registry_view_computed_once_per_registry(self, monkeypatch):
        calls = []
        original = verdict_module._structural_tags

        def counting(registry):
            calls.append(registry)
            return original(registry)

        monkeypatch.setattr(verdict_module, "_structural_tags", counting)
        registry_a = [RegistryEntry(Prefix.parse("10.0.0.0/8"), 7, 0, 0)]
        registry_b = list(registry_a)
        engine = VerdictEngine(CONFIG)
        for registry in (registry_a, registry_a, registry_a):
            engine.finalize(registry)
        assert len(calls) == 1
        engine.finalize(registry_b)  # equal rows, different object
        engine.finalize(None)
        engine.finalize(registry_a)
        assert [id(registry) for registry in calls] == [
            id(registry_a), id(registry_b), id(registry_a)
        ]


class TestCachesStayOutOfCheckpoints:
    def _days(self):
        return [
            detection(
                offset,
                [
                    DailyConflict(
                        prefix=prefix,
                        origins=frozenset({1, 2 + offset % 3, 4}),
                        paths_by_origin=(
                            (1, ((100, 1),)),
                            (4, ((200, 4),)),
                        ),
                    )
                    for index, prefix in enumerate(UNIVERSE)
                    if (offset + index) % 3
                ],
            )
            for offset in range(10)
        ]

    def _payload(self, engine: VerdictEngine) -> bytes:
        return json.dumps(engine.state_dict(), sort_keys=True).encode()

    def test_state_dict_ignores_mid_stream_finalize(self):
        registry = [
            RegistryEntry(Prefix.parse("10.0.0.0/8"), 7, 0, 0),
            RegistryEntry(Prefix.parse("10.1.0.0/16"), 8, 2, 0),
        ]
        plain = VerdictEngine(CONFIG)
        finalized = VerdictEngine(CONFIG)
        for day in self._days():
            plain.feed_day(day)
            finalized.feed_day(day)
            finalized.finalize(registry)
            assert self._payload(finalized) == self._payload(plain)
        restored = VerdictEngine.from_state(finalized.state_dict())
        assert self._payload(restored) == self._payload(plain)

    def test_merge_and_from_state_start_cold(self):
        shards = [
            VerdictEngine(CONFIG, shard=spec)
            for spec in ShardSpec.partition(2, "hash")
        ]
        for day in self._days():
            for engine in shards:
                engine.feed_day(day)
                engine.finalize()
        merged = VerdictEngine.merged(shards)
        restored = VerdictEngine.from_state(merged.state_dict())
        for engine in (merged, restored):
            assert engine._verdicts == {}
            assert engine._touched == set()
            assert engine._registry is None


@pytest.fixture(scope="module")
def incident_archive(tmp_path_factory):
    """A 150-day v2 world with the canned incidents and a ROA database."""
    calendar = StudyCalendar(
        datetime.date(1998, 1, 1), datetime.date(1998, 5, 30)
    )
    directory = tmp_path_factory.mktemp("incremental") / "archive"
    simulate_study(
        directory,
        ScenarioConfig(
            scale=0.02,
            calendar=calendar,
            paper_archive_gaps=False,
            incidents=IncidentScript.canned(calendar.num_days),
            rpki=RpkiConfig(),
            archive_format="v2",
        ),
    )
    return directory


class TestOverAnArchive:
    def test_daily_finalize_matches_cold_and_batch(self, incident_archive):
        reader = ArchiveReader(incident_archive)
        registry = reader.registry
        roa_table = RoaTable.from_rows(reader.roas())
        reader.close()
        warm = VerdictEngine(roa_table=roa_table)
        batch = VerdictEngine(roa_table=roa_table)
        for ordinal, day in enumerate(
            detections_from_archive(incident_archive), start=1
        ):
            warm.feed_day(day)
            batch.feed_day(day)
            verdicts = warm.finalize(registry)
            if ordinal % 10 == 0:
                cold = VerdictEngine.from_state(warm.state_dict())
                assert list(verdicts.items()) == list(
                    cold.finalize(registry).items()
                )
        assert list(warm.finalize(registry).items()) == list(
            batch.finalize(registry).items()
        )
