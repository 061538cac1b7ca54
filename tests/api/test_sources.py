"""Source-adapter equivalence and open_source dispatch."""

import datetime

import pytest

from repro.api import (
    ArchiveSource,
    DetectionSource,
    MemorySource,
    MoasService,
    MrtFilesSource,
    NetworkSource,
    open_source,
    source_kinds,
)
from repro.bgp.network import Network
from repro.bgp.relationships import ASGraph
from repro.core.detector import detect_snapshot
from repro.netbase.prefix import Prefix
from repro.scenario.world import ScenarioConfig, simulate_study
from repro.util.dates import StudyCalendar


def run_study(source) -> object:
    service = MoasService()
    service.feed(source)
    return service.results()


class TestArchiveVsMrtEquivalence:
    """Archive and MRT adapters agree on the same simulated world."""

    CALENDAR = StudyCalendar(
        datetime.date(1998, 4, 1), datetime.date(1998, 4, 21)
    )

    @pytest.fixture(scope="class")
    def world(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("equiv") / "archive"
        config = ScenarioConfig(
            scale=0.02,
            seed=42,
            calendar=self.CALENDAR,
            paper_archive_gaps=False,
        )
        # Export EVERY observed day as a binary MRT dump so the two
        # adapters cover the identical world end to end.
        simulate_study(
            directory, config, mrt_export_days=set(self.CALENDAR)
        )
        return directory

    def test_identical_study_results(self, world):
        mrt_files = sorted((world / "mrt").glob("*.mrt"))
        assert len(mrt_files) == self.CALENDAR.num_days

        from_archive = run_study(ArchiveSource(world))
        from_mrt = run_study(MrtFilesSource(mrt_files))
        assert from_archive == from_mrt

    def test_open_source_auto_detects_both(self, world):
        assert isinstance(open_source(world), ArchiveSource)
        mrt_dir_source = open_source(world / "mrt")
        assert isinstance(mrt_dir_source, MrtFilesSource)
        assert len(mrt_dir_source.paths) == self.CALENDAR.num_days


class TestNetworkVsMemoryEquivalence:
    """A live simulation feed equals the same snapshots fed by hand."""

    PREFIX = Prefix.parse("192.0.2.0/24")
    DAYS = [datetime.date(2001, 4, day) for day in (6, 7, 8)]
    PEERS = [701, 1239, 9]

    def build_network(self) -> Network:
        graph = ASGraph()
        graph.add_peering(701, 1239)
        graph.add_customer(701, 100)
        graph.add_customer(1239, 200)
        graph.add_customer(100, 7)
        graph.add_customer(200, 8)
        graph.add_customer(100, 9)
        graph.add_customer(200, 9)
        network = Network(graph)
        network.originate(7, self.PREFIX)
        network.run_to_convergence()
        return network

    def mutate(self, network: Network, day: datetime.date) -> None:
        # Day 2: AS 8 falsely originates the prefix; day 3: it stops.
        if day == self.DAYS[1]:
            network.originate(8, self.PREFIX)
        elif day == self.DAYS[2]:
            network.withdraw(8, self.PREFIX)

    def test_identical_study_results(self):
        live = NetworkSource(
            self.build_network(),
            self.DAYS,
            self.PEERS,
            mutate=self.mutate,
        )
        from_network = run_study(live)

        replay = self.build_network()
        snapshots = []
        for day in self.DAYS:
            self.mutate(replay, day)
            replay.run_to_convergence()
            snapshots.append(replay.collector_snapshot(day, self.PEERS))
        from_snapshots = run_study(MemorySource(snapshots))
        from_detections = run_study(
            MemorySource([detect_snapshot(s) for s in snapshots])
        )

        assert from_network == from_snapshots == from_detections
        assert from_network.total_conflicts == 1
        assert from_network.episodes[self.PREFIX].days_observed == 1

    def test_open_source_adapts_network(self):
        source = open_source(
            self.build_network(), days=self.DAYS, peer_asns=self.PEERS
        )
        assert isinstance(source, NetworkSource)


class TestOpenSourceDispatch:
    def test_registered_kinds(self):
        assert source_kinds() == ("archive", "memory", "mrt", "network")

    def test_existing_source_passes_through(self):
        source = MemorySource([])
        assert open_source(source) is source

    def test_spec_string_dispatch(self, tmp_path):
        source = open_source(f"archive:{tmp_path}")
        assert isinstance(source, ArchiveSource)
        assert source.directory == tmp_path

    def test_unknown_spec_kind_raises(self):
        with pytest.raises(ValueError, match="unknown source kind"):
            open_source("bogus:whatever")

    def test_live_object_kinds_reject_specs(self):
        with pytest.raises(ValueError, match="network sources"):
            open_source("network:anything")
        with pytest.raises(ValueError, match="memory sources"):
            open_source("memory:anything")

    def test_mrt_file_and_path_list(self, tmp_path):
        dump = tmp_path / "rib.1998-04-07.mrt"
        dump.touch()
        assert isinstance(open_source(dump), MrtFilesSource)
        assert isinstance(open_source([dump]), MrtFilesSource)

    def test_missing_path_raises_clean_error(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no CDS archive"):
            open_source(tmp_path / "nowhere")

    def test_empty_directory_raises_instead_of_empty_study(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no \\*.mrt files"):
            open_source(tmp_path)

    def test_unmatched_mrt_spec_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no MRT files match"):
            open_source(f"mrt:{tmp_path}/*.mrt")

    def test_generator_feed_stays_streaming(self, api_detections):
        consumed = []

        def generate():
            for detection in api_detections[:4]:
                consumed.append(detection.day)
                yield detection

        source = open_source(generate())
        assert isinstance(source, MemorySource)
        # Only the type-sniffing peek has run; nothing is materialized.
        assert len(consumed) == 1
        stream = source.detections()
        assert next(stream).day == api_detections[0].day
        assert [d.day for d in stream] == [
            d.day for d in api_detections[1:4]
        ]

    def test_mrt_spec_honors_days_option(self, tmp_path):
        dump = tmp_path / "rib.mrt"
        dump.touch()
        days = [datetime.date(1998, 4, 7)]
        source = open_source(f"mrt:{dump}", days=days)
        assert isinstance(source, MrtFilesSource)
        assert source.days == days

    def test_detection_iterable_becomes_memory_source(self, api_detections):
        source = open_source(api_detections[:3])
        assert isinstance(source, MemorySource)
        assert [d.day for d in source.detections()] == [
            d.day for d in api_detections[:3]
        ]

    def test_unadaptable_object_raises(self):
        with pytest.raises(TypeError, match="cannot adapt"):
            open_source(42)

    def test_adapters_satisfy_protocol(self, tmp_path):
        assert isinstance(MemorySource([]), DetectionSource)
        assert isinstance(ArchiveSource(tmp_path), DetectionSource)
        assert isinstance(MrtFilesSource([]), DetectionSource)
