"""Integration tests for the scenario world and study simulation."""

import datetime

import pytest

from repro.scenario.archive import ArchiveReader
from repro.scenario.calibration import PAPER
from repro.scenario.world import ScenarioConfig, ScenarioWorld, simulate_study
from repro.util.dates import StudyCalendar

SMALL_CALENDAR = StudyCalendar(
    datetime.date(1997, 11, 8), datetime.date(1998, 1, 16)
)  # 70 days


@pytest.fixture(scope="module")
def small_archive(tmp_path_factory):
    directory = tmp_path_factory.mktemp("archive")
    config = ScenarioConfig(
        scale=0.02, calendar=SMALL_CALENDAR, paper_archive_gaps=False
    )
    summary = simulate_study(directory, config)
    return directory, summary


class TestSimulation:
    def test_every_day_observed(self, small_archive):
        _directory, summary = small_archive
        assert summary["observed_days"] == SMALL_CALENDAR.num_days

    def test_archive_readable(self, small_archive):
        directory, summary = small_archive
        reader = ArchiveReader(directory)
        days = list(reader.iter_days())
        assert len(days) == summary["observed_days"]

    def test_alive_count_monotone(self, small_archive):
        directory, _summary = small_archive
        reader = ArchiveReader(directory)
        alive = [record.alive_count for record in reader.iter_days()]
        assert alive == sorted(alive)
        assert alive[-1] == reader.num_prefixes

    def test_rows_reference_valid_ids(self, small_archive):
        directory, _summary = small_archive
        reader = ArchiveReader(directory)
        for record in reader.iter_days():
            for row in record.rows:
                assert row.prefix_id < record.alive_count
                path = reader.path(row.path_id)
                assert path[0] == row.peer_asn
                assert path[-1] == row.origin

    def test_conflicts_present_every_day(self, small_archive):
        # The standing population guarantees conflicts from day 0.
        directory, _summary = small_archive
        reader = ArchiveReader(directory)
        for record in reader.iter_days():
            distinct = {row.prefix_id for row in record.rows}
            assert len(distinct) >= 1

    def test_ground_truth_well_formed(self, small_archive):
        directory, _summary = small_archive
        reader = ArchiveReader(directory)
        truth = reader.ground_truth()
        assert truth, "no events logged"
        for entry in truth:
            assert entry["cause"]
            assert len(entry["origins"]) >= 2
            assert isinstance(entry["valid"], bool)

    def test_determinism(self, tmp_path):
        config = ScenarioConfig(
            scale=0.02, calendar=SMALL_CALENDAR, paper_archive_gaps=False
        )
        first = simulate_study(tmp_path / "a", config)
        second = simulate_study(tmp_path / "b", config)
        assert first["events_total"] == second["events_total"]
        rows_a = (tmp_path / "a" / "days.bin").read_bytes()
        rows_b = (tmp_path / "b" / "days.bin").read_bytes()
        assert rows_a == rows_b

    def test_seed_changes_output(self, tmp_path):
        base = ScenarioConfig(
            scale=0.02, calendar=SMALL_CALENDAR, paper_archive_gaps=False
        )
        other = ScenarioConfig(
            scale=0.02,
            seed=7,
            calendar=SMALL_CALENDAR,
            paper_archive_gaps=False,
        )
        first = simulate_study(tmp_path / "a", base)
        second = simulate_study(tmp_path / "b", other)
        assert (tmp_path / "a" / "days.bin").read_bytes() != (
            tmp_path / "b" / "days.bin"
        ).read_bytes() or first["events_total"] != second["events_total"]


class TestScriptedSpike:
    def test_1998_spike_reproduced(self, tmp_path):
        calendar = StudyCalendar(
            datetime.date(1998, 3, 25), datetime.date(1998, 4, 20)
        )
        config = ScenarioConfig(
            scale=0.02, calendar=calendar, paper_archive_gaps=False
        )
        simulate_study(tmp_path / "spike", config)
        reader = ArchiveReader(tmp_path / "spike")
        counts = {}
        spike_day_rows = None
        for record in reader.iter_days():
            counts[record.day] = len({row.prefix_id for row in record.rows})
            if record.day == PAPER.spike_1998_date:
                spike_day_rows = record.rows
        spike_count = counts[PAPER.spike_1998_date]
        normal = counts[datetime.date(1998, 3, 30)]
        assert spike_count > 5 * max(normal, 1)
        # The faulty AS appears in origin position on the spike day.
        assert spike_day_rows is not None
        origins = {row.origin for row in spike_day_rows}
        assert PAPER.spike_1998_faulty_asn in origins

    def test_spike_is_one_day(self, tmp_path):
        calendar = StudyCalendar(
            datetime.date(1998, 4, 1), datetime.date(1998, 4, 14)
        )
        config = ScenarioConfig(
            scale=0.02, calendar=calendar, paper_archive_gaps=False
        )
        simulate_study(tmp_path / "spike", config)
        reader = ArchiveReader(tmp_path / "spike")
        counts = {
            record.day: len({row.prefix_id for row in record.rows})
            for record in reader.iter_days()
        }
        after = counts[datetime.date(1998, 4, 9)]
        spike = counts[PAPER.spike_1998_date]
        assert after < spike / 4


class TestWorldInternals:
    def test_world_builds_with_paper_calendar_gaps(self):
        world = ScenarioWorld(ScenarioConfig(scale=0.01))
        assert world.timeline.num_observation_days == 1279

    def test_scaled_helper(self):
        config = ScenarioConfig(scale=0.1)
        assert config.scaled(100) == 10
        assert config.scaled(1) == 1


class TestAtomicWrite:
    """The archive appears whole or not at all."""

    def config(self, **overrides):
        return ScenarioConfig(
            scale=0.01,
            calendar=StudyCalendar(
                datetime.date(1998, 4, 6), datetime.date(1998, 4, 12)
            ),
            paper_archive_gaps=False,
            **overrides,
        )

    def test_rerun_replaces_the_archive(self, tmp_path):
        from repro.scenario.rpki import RpkiConfig

        archive = tmp_path / "archive"
        simulate_study(archive, self.config(rpki=RpkiConfig()))
        assert (archive / "roas.json").is_file()
        summary = simulate_study(archive, self.config())
        # No side file of the first run survives the second.
        assert not (archive / "roas.json").exists()
        assert ArchiveReader(archive).manifest["seed"] == summary["seed"]
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "archive"
        ]

    def test_refuses_to_replace_a_non_archive_directory(self, tmp_path):
        notes = tmp_path / "notes"
        notes.mkdir()
        (notes / "todo.txt").write_text("keep me")
        with pytest.raises(FileExistsError, match="not an archive"):
            simulate_study(notes, self.config())
        assert [path.name for path in notes.iterdir()] == ["todo.txt"]

    def test_failure_mid_write_leaves_nothing(self, tmp_path, monkeypatch):
        def failing_write_day(self, record):
            raise OSError("disk full")

        monkeypatch.setattr(
            "repro.scenario.archive.ArchiveWriter.write_day",
            failing_write_day,
        )
        with pytest.raises(OSError, match="disk full"):
            simulate_study(tmp_path / "archive", self.config())
        assert list(tmp_path.iterdir()) == []
