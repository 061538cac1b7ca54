"""End-to-end study simulation: topology + events + collector + archive.

:func:`simulate_study` is the library's "generate the raw data" entry
point: it replays the full 1997-2001 measurement campaign (scaled) and
leaves behind a CDS archive that :mod:`repro.analysis` consumes exactly
as the paper consumed the NLANR/PCH archives.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from pathlib import Path as FsPath

from repro.netbase.prefix import Prefix
from repro.scenario.archive import (
    ArchiveWriter,
    DayRecord,
    FLAG_AS_SET_TAIL,
    FLAG_EXCHANGE_POINT,
    PeerRow,
    staged_archive,
)
from repro.scenario.calibration import (
    Calibration,
    DEFAULT_CALIBRATION,
    PAPER,
)
from repro.scenario.collector import CollectorConfig
from repro.scenario.events import ConflictEvent
from repro.scenario.generator import EventGenerator
from repro.scenario.incidents import IncidentInjector
from repro.scenario.routing import CollectorRouting
from repro.scenario.rpki import issue_roas
from repro.scenario.timeline import StudyTimeline
from repro.topology.generator import TopologyConfig, build_initial_model
from repro.topology.growth import GrowthModel
from repro.util.dates import PAPER_CALENDAR, StudyCalendar
from repro.util.rng import RngStreams


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything that defines one synthetic study run."""

    scale: float = 0.125
    seed: int = 20011108
    calendar: StudyCalendar = PAPER_CALENDAR
    #: Reproduce the ~70 missing-archive days of the real study.
    paper_archive_gaps: bool = True
    num_peers: int = 12
    initial_peers: int = 5
    calibration: Calibration = field(default_factory=lambda: DEFAULT_CALIBRATION)
    #: Prefixes whose routes end in AS sets (excluded by the paper).
    as_set_prefix_count: int = PAPER.as_set_prefixes
    #: Scripted, labeled incidents injected on top of the organic
    #: event processes (see :mod:`repro.scenario.incidents`); their
    #: ground truth is written beside the archive as ``incidents.json``.
    incidents: "IncidentScript | None" = None
    #: ROA issuance over the generated world (see
    #: :mod:`repro.scenario.rpki`); the resulting database is written
    #: beside the archive as ``roas.json`` with day-stamped validity
    #: windows.  ``None`` (the default) issues no ROAs.
    rpki: "RpkiConfig | None" = None
    #: Day-store encoding written by the collector: ``"v1"`` (the
    #: original stream, default) or ``"v2"`` (indexed/framed; see
    #: :mod:`repro.scenario.archive`).  The decoded records — and
    #: therefore every study result — are identical either way.
    archive_format: str = "v1"

    def topology_config(self) -> TopologyConfig:
        """The topology configuration at this scenario's scale."""
        return TopologyConfig(scale=self.scale)

    def scaled(self, value: int | float) -> int:
        """``value`` scaled down, never below 1."""
        return max(1, round(value * self.scale))


class ScenarioWorld:
    """Mutable simulation state across the study window."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.streams = RngStreams(config.seed)
        self.calendar = config.calendar
        if config.paper_archive_gaps and config.calendar == PAPER_CALENDAR:
            self.timeline = StudyTimeline.paper_timeline(self.streams)
        else:
            self.timeline = StudyTimeline.fully_observed(config.calendar)

        topo_config = config.topology_config()
        self.model, self._plan, self._asn_factory = build_initial_model(
            topo_config, self.streams
        )
        self.growth = GrowthModel(
            self.model,
            self._plan,
            self._asn_factory,
            topo_config,
            self.streams,
            num_days=self.calendar.num_days,
        )
        self.collector = CollectorConfig.default_for_model(
            self.model,
            self.streams,
            num_days=self.calendar.num_days,
            num_peers=config.num_peers,
            initial_peers=config.initial_peers,
        )
        self.routing = CollectorRouting(
            self.model.graph, list(self.collector.all_peer_asns)
        )
        self.active_events: dict[Prefix, ConflictEvent] = {}
        self.event_log: list[dict] = []
        #: Prefixes any event ever conflicted (injected incidents avoid
        #: them so episode-level ground truth stays unambiguous).
        self._conflicted_ever: set[Prefix] = set()
        #: Per-conflicted-prefix cached day rows: prefix -> (n_peers, rows).
        self._row_cache: dict[Prefix, tuple[int, tuple[PeerRow, ...]]] = {}
        self.generator = EventGenerator(
            self.model,
            self.routing,
            config.calibration,
            self.streams,
            num_days=self.calendar.num_days,
            scale=config.scale,
            is_conflicted=self._organic_blocked,
        )
        self.incident_injector: IncidentInjector | None = None
        if config.incidents is not None:
            self.incident_injector = IncidentInjector(
                config.incidents,
                model=self.model,
                routing=self.routing,
                streams=self.streams,
                num_days=self.calendar.num_days,
                is_conflicted=lambda prefix: (
                    prefix in self.active_events
                    or prefix in self._conflicted_ever
                ),
            )

    def _organic_blocked(self, prefix: Prefix) -> bool:
        """Whether the organic generator must avoid ``prefix``.

        Actively conflicted prefixes are always off limits; prefixes an
        injected incident ever touched stay off limits for the rest of
        the study, so each incident label remains the sole explanation
        of its prefix's episode.  Without incidents this is exactly the
        pre-incident behavior (organic conflicts may recur).
        """
        if prefix in self.active_events:
            return True
        injector = self.incident_injector
        return injector is not None and injector.touched(prefix)

    # -- scripted incidents ------------------------------------------------

    def _scripted_events(
        self, day: datetime.date, day_index: int, active_peers: list[int]
    ) -> list[ConflictEvent]:
        config = self.config
        calibration = config.calibration
        if day == PAPER.spike_1998_date:
            count = config.scaled(calibration.spike_1998_conflicts)
            return self.generator.mass_origination(
                faulty_asn=PAPER.spike_1998_faulty_asn,
                day_index=day_index,
                durations=[1] * count,
                active_peers=active_peers,
            )
        if day == PAPER.spike_2001_start:
            durations = _decay_durations(
                [config.scaled(n) for n in calibration.spike_2001_daily]
            )
            return self.generator.mass_origination(
                faulty_asn=PAPER.spike_2001_faulty_asn,
                day_index=day_index,
                durations=durations,
                active_peers=active_peers,
            )
        return []

    # -- the main loop --------------------------------------------------------

    def run(
        self,
        archive_dir: FsPath | str,
        *,
        mrt_export_days: set[datetime.date] | None = None,
        workers: int = 1,
    ) -> dict:
        """Simulate the whole window and write the archive.

        ``mrt_export_days`` additionally dumps those days as genuine
        binary MRT TABLE_DUMP_V2 files under ``<archive_dir>/mrt/`` —
        the bridge to standard MRT tooling and the integration tests'
        proof that the compact archive and a full table dump agree.

        World evolution is a sequential stochastic process and always
        runs serially, but with ``workers > 1`` the MRT day dumps are
        encoded and written on a process pool, overlapping export I/O
        with the simulation itself (``0`` auto-detects the CPU count;
        ``1``, the default, never spawns a process).  The archive and
        dump bytes are identical either way.

        The write is atomic: the archive is built in a hidden staging
        directory and renamed to ``archive_dir`` only once complete
        (see :func:`~repro.scenario.archive.staged_archive`), so a
        failed run leaves no partial archive behind.

        Returns a summary dict (also stored in the archive manifest).
        """
        with staged_archive(FsPath(archive_dir), "simulating") as staging:
            return self._write_archive(
                staging, mrt_export_days=mrt_export_days, workers=workers
            )

    def _write_archive(
        self,
        archive_dir: FsPath,
        *,
        mrt_export_days: set[datetime.date] | None,
        workers: int,
    ) -> dict:
        from repro.util.workers import resolve_workers

        mrt_export_days = mrt_export_days or set()
        workers = resolve_workers(workers)
        writer = ArchiveWriter(
            archive_dir, format=self.config.archive_format
        )
        self._register_initial_prefixes(writer)

        first_peers = list(self.collector.active_peers(0))
        for event in self.generator.initial_events(first_peers):
            self._admit_event(event)

        export_pool = None
        export_futures = []
        if workers > 1 and mrt_export_days:
            from concurrent.futures import ProcessPoolExecutor

            export_pool = ProcessPoolExecutor(
                max_workers=min(workers, len(mrt_export_days))
            )
        try:
            observed_days = 0
            for day_index, day in enumerate(self.calendar):
                new_asns, new_prefixes = self.growth.grow_one_day(day_index)
                for prefix in new_prefixes:
                    writer.register_prefix(
                        prefix, self.model.prefix_owner[prefix], day_index
                    )
                active_peers = list(self.collector.active_peers(day_index))
                self._expire_events(day_index)
                for event in self.generator.births(day_index, active_peers):
                    self._admit_event(event)
                for event in self._scripted_events(
                    day, day_index, active_peers
                ):
                    self._admit_event(event)
                if self.incident_injector is not None:
                    for event in self.incident_injector.inject_day(
                        day_index, active_peers, writer
                    ):
                        self._admit_event(event)
                if self.timeline.is_observed(day):
                    record = self._day_record(
                        writer, day, day_index, active_peers
                    )
                    writer.write_day(record)
                    observed_days += 1
                    if day in mrt_export_days:
                        export_futures.append(
                            self._export_mrt_day(
                                archive_dir,
                                writer,
                                record,
                                pool=export_pool,
                            )
                        )
            for future in export_futures:
                if hasattr(future, "result"):
                    future.result()
        finally:
            if export_pool is not None:
                export_pool.shutdown()

        summary = {
            "calendar_start": self.calendar.start.isoformat(),
            "calendar_end": self.calendar.end.isoformat(),
            "observed_days": observed_days,
            "scale": self.config.scale,
            "seed": self.config.seed,
            "num_ases_final": self.model.num_ases(),
            "num_prefixes_final": self.model.num_prefixes(),
            "events_total": len(self.event_log),
            "invisible_births": self.generator.invisible_births,
            "peers": [
                {"asn": asn, "join_day": join_day}
                for asn, join_day in self.collector.peer_schedule
            ],
        }
        if self.incident_injector is not None:
            summary["incidents_injected"] = len(
                self.incident_injector.labels
            )
            summary["incidents_unrealized"] = len(
                self.incident_injector.unrealized
            )
        roa_rows: list[dict] | None = None
        if self.config.rpki is not None:
            roa_rows = self._issue_roas(writer)
            summary["rpki"] = self.config.rpki.to_dict()
            summary["roas_issued"] = len(roa_rows)
        writer.finalize(summary)
        writer.write_ground_truth(self.event_log)
        if self.incident_injector is not None:
            writer.write_incidents(
                [label.to_dict() for label in self.incident_injector.labels]
            )
        if roa_rows is not None:
            writer.write_roas(roa_rows)
        return summary

    def _issue_roas(self, writer: ArchiveWriter) -> list[dict]:
        """The world's ROA database as canonical ``roas.json`` rows.

        Issued once the study has fully run, from the final registry
        and incident ground truth (see :mod:`repro.scenario.rpki`);
        draws come from the dedicated ``"rpki"`` RNG stream, so the
        database is deterministic per (seed, config, script).
        """
        from repro.netbase.rpki import RoaTable

        labels = (
            self.incident_injector.labels
            if self.incident_injector is not None
            else []
        )
        table = RoaTable(
            issue_roas(
                [
                    writer.registry_entry(prefix_id)
                    for prefix_id in range(writer.num_registered)
                ],
                labels,
                config=self.config.rpki,
                asns=sorted(self.model.as_info),
                rng=self.streams.python("rpki"),
                date_of_index=self.calendar.date_of,
                organic_events=self.event_log,
            )
        )
        return [roa.to_dict() for roa in table]

    # -- internals --------------------------------------------------------

    def _register_initial_prefixes(self, writer: ArchiveWriter) -> None:
        for prefix in sorted(
            self.model.prefix_owner, key=lambda p: p.sort_key()
        ):
            writer.register_prefix(
                prefix, self.model.prefix_owner[prefix], 0
            )
        for ixp in self.model.ixps:
            writer.register_prefix(
                ixp.prefix,
                ixp.members[0],
                0,
                flags=FLAG_EXCHANGE_POINT,
            )
        # AS-set-terminated aggregates: stable, excluded by the paper's
        # methodology; flagged so the detector can exclude and count.
        rng = self.streams.python("as-set-prefixes")
        count = max(2, round(self.config.as_set_prefix_count * self.config.scale))
        population = sorted(
            self.model.prefix_owner, key=lambda p: p.sort_key()
        )
        self._as_set_prefixes = rng.sample(population, k=count)
        for prefix in self._as_set_prefixes:
            # A covering aggregate whose route carries an AS_SET tail.
            aggregate = Prefix(
                prefix.network, max(8, prefix.length - 2), strict=False
            )
            if writer.has_prefix(aggregate):
                continue
            writer.register_prefix(
                aggregate,
                self.model.prefix_owner[prefix],
                0,
                flags=FLAG_AS_SET_TAIL,
            )

    def _admit_event(self, event: ConflictEvent) -> None:
        if event.prefix in self.active_events:
            return
        self.active_events[event.prefix] = event
        self._conflicted_ever.add(event.prefix)
        self.event_log.append(
            {
                "prefix": str(event.prefix),
                "origins": list(event.origins),
                "cause": event.cause.value,
                "valid": event.cause.is_valid,
                "start_index": event.start_index,
                "end_index": event.end_index,
                "duty_cycle": event.duty_cycle,
            }
        )

    def _expire_events(self, day_index: int) -> None:
        expired = [
            prefix
            for prefix, event in self.active_events.items()
            if event.end_index < day_index
        ]
        for prefix in expired:
            del self.active_events[prefix]
            self._row_cache.pop(prefix, None)

    def _day_record(
        self,
        writer: ArchiveWriter,
        day: datetime.date,
        day_index: int,
        active_peers: list[int],
    ) -> DayRecord:
        rows: list[PeerRow] = []
        for prefix, event in self.active_events.items():
            if not event.active_on(day_index):
                continue
            rows.extend(
                self._rows_for_event(writer, event, active_peers)
            )
        alive = writer.num_registered
        return DayRecord(
            day=day,
            day_index=day_index,
            alive_count=alive,
            active_peers=tuple(active_peers),
            rows=tuple(rows),
        )

    def _rows_for_event(
        self,
        writer: ArchiveWriter,
        event: ConflictEvent,
        active_peers: list[int],
    ) -> tuple[PeerRow, ...]:
        cached = self._row_cache.get(event.prefix)
        if cached is not None and cached[0] == len(active_peers):
            return cached[1]
        prefix_id = writer.prefix_id(event.prefix)
        if event.pivot is not None:
            chosen = self.routing.pivot_views(
                event.pivot, event.origins, active_peers
            )
        else:
            chosen = self.routing.choose_origins(
                list(event.origins), active_peers
            )
        rows = tuple(
            PeerRow(
                prefix_id=prefix_id,
                peer_asn=peer,
                origin=origin,
                path_id=writer.intern_path(view.path),
            )
            for peer, (origin, view) in sorted(chosen.items())
        )
        self._row_cache[event.prefix] = (len(active_peers), rows)
        return rows

    def _export_mrt_day(
        self,
        archive_dir: FsPath,
        writer: ArchiveWriter,
        record: DayRecord,
        *,
        pool=None,
    ):
        """Dump one day as a full MRT TABLE_DUMP_V2 file.

        The table holds every alive prefix for every active peer:
        non-conflicted prefixes carry the peer's converged path to the
        owner, event-touched prefixes carry exactly the day-record
        rows, and AS_SET-flagged aggregates end in a genuine AS_SET.

        The snapshot is always assembled inline (it reads live world
        state); with ``pool`` the encode-and-write step is submitted to
        the pool and its future returned instead of the output path,
        overlapping MRT serialization with the ongoing simulation.
        """
        from repro.mrt.writer import write_rib_snapshot
        from repro.netbase.aspath import ASPath
        from repro.netbase.rib import PeerId, RibSnapshot, Route

        overridden: dict[int, list[PeerRow]] = {}
        for row in record.rows:
            overridden.setdefault(row.prefix_id, []).append(row)

        snapshot = RibSnapshot(record.day)
        path_of: dict[int, tuple[int, ...]] = {}
        for prefix_id in range(record.alive_count):
            entry = writer.registry_entry(prefix_id)
            rows = overridden.get(prefix_id)
            if rows is not None:
                for row in rows:
                    snapshot.add(
                        Route(
                            entry.prefix,
                            ASPath.from_sequence(
                                writer.path_by_id(row.path_id)
                            ),
                            PeerId(asn=row.peer_asn),
                        )
                    )
                continue
            views = self.routing.peer_views(entry.owner)
            for peer in record.active_peers:
                view = views.get(peer)
                if view is None:
                    continue
                path = ASPath.from_sequence(view.path)
                if entry.flags & FLAG_AS_SET_TAIL:
                    # Aggregates announced with an AS_SET tail: the
                    # owner plus a neighbor form the set, as proxy
                    # aggregation produces.
                    base = view.path[:-1] or (peer,)
                    path = ASPath.from_sequence(base).with_set_tail(
                        (entry.owner, entry.owner + 1)
                    )
                snapshot.add(Route(entry.prefix, path, PeerId(asn=peer)))

        mrt_dir = archive_dir / "mrt"
        mrt_dir.mkdir(parents=True, exist_ok=True)
        out = mrt_dir / f"rib.{record.day.isoformat()}.mrt"
        if pool is not None:
            return pool.submit(
                write_rib_snapshot, out, snapshot, dump_format="table_dump_v2"
            )
        write_rib_snapshot(out, snapshot, dump_format="table_dump_v2")
        return out


def simulate_study(
    archive_dir: FsPath | str,
    config: ScenarioConfig | None = None,
    *,
    mrt_export_days: set[datetime.date] | None = None,
    workers: int = 1,
) -> dict:
    """Run a full study simulation and write its archive.

    Convenience wrapper over :class:`ScenarioWorld`; returns the run
    summary (also persisted in the archive manifest).  ``workers``
    parallelizes the optional MRT day dumps (see
    :meth:`ScenarioWorld.run`).
    """
    world = ScenarioWorld(config or ScenarioConfig())
    return world.run(
        archive_dir, mrt_export_days=mrt_export_days, workers=workers
    )


def _decay_durations(daily_alive: list[int]) -> list[int]:
    """Convert an alive-count profile into per-event durations.

    ``daily_alive[k]`` conflicts must still be active ``k`` days after
    the start, so ``daily_alive[k] - daily_alive[k+1]`` events last
    exactly ``k+1`` days.
    """
    durations: list[int] = []
    padded = list(daily_alive) + [0]
    for day, (now, later) in enumerate(zip(padded, padded[1:])):
        lasting = now - later
        if lasting < 0:
            raise ValueError(
                "alive-count profile must be non-increasing, got "
                f"{daily_alive}"
            )
        durations.extend([day + 1] * lasting)
    return durations
