"""The repro benchmark: ``scan``, ``study`` and ``live`` workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Every workload generates its archive with ``repro simulate`` from
``--seed``, measures for about ``--seconds``, checks the program's
outputs against the library, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
runs one traced pass and reports its per-layer metrics.  Why each
workload exists, and what every metric means, is in ``WORKLOADS.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from layers import Tracer, install  # noqa: E402

#: Largest scale at which ``repro simulate`` completes for every seed
#: from 0 to 7999 (WORKLOADS.md, "Scale").
SCALE = "0.03"
SIMULATE_FLAGS = (
    "--archive-format", "v2", "--incidents", "canned", "--rpki",
    "--scale", SCALE,
)
SETUP_REPEATS = 3
#: Scan and study cycles per second of ``--seconds`` (10 at 20 s), and
#: answer children per cycle: 40 answers at 20 s, so the answer tail is
#: a p75 with ten samples above it (WORKLOADS.md, "Tails").
CYCLES_PER_SECOND = 0.5
MIN_CYCLES = 3
ANSWERS_PER_CYCLE = 4
LIVE_DAYS = 100
#: Settled live requests per second of ``--seconds``, spread evenly
#: over the days (4800 at 20 s, so the answer tail is the p99).
LIVE_ANSWERS_PER_SECOND = 240
LIVE_PREFIXES = 200
#: The settled-request mix: share of requests per route.  The split of
#: the last 2% keeps the p99 inside one route (WORKLOADS.md, "Tails").
LIVE_MIX = (
    ("history", 0.60),
    ("episodes", 0.20),
    ("figure1", 0.10),
    ("summary", 0.08),
    ("verdicts", 0.005),
    ("episodes_json", 0.015),
)
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
TIME_UNITS = ("s", "ms", "us")
#: Median time of :func:`calibrate` on the 2-vCPU VM the benchmark was
#: built on.  Reported times are scaled to that host speed.
CALIBRATION_S = 0.015
CLI = "import sys; from repro.api.cli import main; sys.exit(main(sys.argv[1:]))"


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (set-up or program crash)."""


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of ``samples``."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def tail(samples: list[float]) -> float:
    """The highest percentile with at least ten samples above it.

    With fewer than 20 samples no percentile qualifies; the p75, by
    linear interpolation, stands in (WORKLOADS.md, "Tails").
    """
    ordered = sorted(samples)
    best = None
    for q in PERCENTILES:
        if len(ordered) - max(1, math.ceil(q / 100 * len(ordered))) >= 10:
            best = q
    if best is None:
        return statistics.quantiles(ordered, n=4, method="inclusive")[-1]
    return percentile(ordered, best)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def calibrate() -> float:
    """Time a fixed pure-Python workload, with the collector off."""
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(20000):
            table[(i * 7919) % 10007] = (i, str(i))
        json.dumps(sorted(table.items())[:2000])
        return time.perf_counter() - start
    finally:
        gc.enable()


class HostSpeed:
    """Calibrations interleaved with the measured work of one run.

    This host's speed drifts by tens of percent over minutes
    (WORKLOADS.md, "Noise, hash seeds and host speed").  A run's times
    are scaled by ``CALIBRATION_S`` over its median calibration, so runs
    taken while the host was fast or slow compare; the factor goes to
    stderr, and a measured time is the reported one divided by it.  The
    calibration imports nothing from repro, so no change to the program
    can move it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, repeats: int = 3) -> None:
        self.samples.extend(calibrate() for _ in range(repeats))

    def factor(self) -> float:
        return CALIBRATION_S / statistics.median(self.samples)


# -- child processes ------------------------------------------------------------


@dataclass
class Child:
    """One finished ``repro`` CLI child: wall clock, peak RSS, output."""

    wall: float
    rss_mb: float
    code: int
    stdout: bytes
    trace: dict | None


def run_cli(work: Path, speed: HostSpeed, args: list[str], *,
            trace_mode: str | None = None, keep_stdout: bool = False) -> Child:
    """Run ``repro ARGS`` in a child process and wait for it.

    Samples the host speed first.  With ``trace_mode`` the command runs
    under ``traced_cli.py`` and its spans come back in
    :attr:`Child.trace`.
    """
    speed.sample()
    if trace_mode is None:
        argv = [sys.executable, "-c", CLI, *args]
    else:
        trace_path = work / f"trace-{len(list(work.glob('trace-*')))}.json"
        argv = [sys.executable, str(HERE / "traced_cli.py"),
                str(trace_path), trace_mode, "--", *args]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(work / "child.out", "w+b") as out, \
            open(work / "child.err", "w+b") as err:
        start = time.perf_counter()
        process = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                   cwd=ROOT)
        _pid, status, usage = os.wait4(process.pid, 0)
        wall = time.perf_counter() - start
        process.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read() if keep_stdout else b""
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    if code != 0:
        print(f"run.py: repro {args[0]} exited {code}:\n{stderr}",
              file=sys.stderr)
    trace = None
    if trace_mode is not None and code == 0:
        trace = json.loads(trace_path.read_text())
    return Child(wall, usage.ru_maxrss / 1024, code, stdout, trace)


def simulate(work: Path, speed: HostSpeed, seed: int, archive: Path,
             trace_mode: str | None = None) -> Child:
    shutil.rmtree(archive, ignore_errors=True)
    args = ["simulate", str(archive), *SIMULATE_FLAGS, "--seed", str(seed)]
    child = run_cli(work, speed, args, trace_mode=trace_mode)
    if child.code != 0:
        raise BenchError("repro simulate failed")
    return child


# -- batch workloads: scan and study --------------------------------------------


class Batch:
    """A ``repro analyze`` command plus the CLI reads of its answers.

    One cycle is the analyze child followed by ``ANSWERS_PER_CYCLE``
    answer children that read what it wrote (``repro report`` for scan,
    ``repro query`` for study).  Every output is checked against the
    same computation done through the library.  A run makes
    ``CYCLES_PER_SECOND * --seconds`` cycles: a fixed count, so the
    tail is the same statistic on any machine.
    """

    def __init__(self, work: Path, speed: HostSpeed, archive: Path,
                 seed: int) -> None:
        self.work = work
        self.speed = speed
        self.archive = archive
        self.out = work / "out"
        self.index = work / "episodes.idx"
        self.rng = random.Random(seed)

    def analyze_args(self) -> list[str]:
        return ["analyze", str(self.archive), str(self.out)]

    def cycle(self, trace_mode: str | None) -> tuple[list[Child], int, int]:
        """Run one cycle; returns (children, attempted, failed)."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.index.unlink(missing_ok=True)
        analyze = run_cli(self.work, self.speed, self.analyze_args(),
                          trace_mode=trace_mode)
        failed = int(analyze.code != 0 or not self.analysis_matches())
        children = [analyze]
        for _ in range(ANSWERS_PER_CYCLE):
            args, expected = self.answer()
            answer = run_cli(self.work, self.speed, args,
                             trace_mode=trace_mode, keep_stdout=True)
            failed += int(answer.code != 0 or answer.stdout != expected)
            children.append(answer)
        return children, len(children), failed


class Scan(Batch):
    """``repro analyze ARCH OUT``: the study fold alone."""

    def prepare(self) -> None:
        from repro.api import MoasService
        from repro.api.cli import write_analysis
        from repro.api.sources import ArchiveSource

        service = MoasService()
        service.feed(self.archive)
        scale = ArchiveSource(self.archive).manifest.get("scale")
        reference = self.work / "reference"
        write_analysis(service.results(), reference,
                       scale=float(scale) if scale else None)
        self.expected = {
            name: digest((reference / name).read_bytes())
            for name in ("report.txt", "summary.json")
        }
        self.report = (reference / "report.txt").read_bytes()

    def analysis_matches(self) -> bool:
        return all(
            (self.out / name).is_file()
            and digest((self.out / name).read_bytes()) == expected
            for name, expected in self.expected.items()
        )

    def answer(self) -> tuple[list[str], bytes]:
        return ["report", str(self.out)], self.report


class Study(Batch):
    """``repro analyze ARCH OUT --rpki ARCH --index IDX``: the full study."""

    def analyze_args(self) -> list[str]:
        return [*super().analyze_args(), "--rpki", str(self.archive),
                "--index", str(self.index)]

    def prepare(self) -> None:
        index, _results = reference_index(self.archive)
        self.expected = digest(index.to_bytes())
        self.reference = index
        self.prefixes = sorted(index.prefixes(), key=lambda p: p.sort_key())

    def analysis_matches(self) -> bool:
        return (self.index.is_file()
                and digest(self.index.read_bytes()) == self.expected)

    def answer(self) -> tuple[list[str], bytes]:
        from repro.api.renderers import render_query

        prefix = self.rng.choice(self.prefixes)
        expected = render_query(self.reference.query(prefix), "ascii")
        return (["query", str(self.index), str(prefix)],
                expected.encode())


def reference_index(archive: Path):
    """The batch episode index (with verdicts) and study results."""
    from repro.analysis.index import EpisodeIndex
    from repro.api import MoasService

    service = MoasService(roa_table=archive)
    service.feed(archive)
    results = service.results()
    verdicts = service.evaluate(archive).verdicts
    return EpisodeIndex.build(results, verdicts=verdicts), results


def run_batch(kind: type[Batch], args, work: Path,
              speed: HostSpeed) -> tuple:
    archive = work / "archive"
    if args.trace:
        sim = simulate(work, speed, args.seed, archive, "simulate")
        bench = kind(work, speed, archive, args.seed)
        bench.prepare()
        plain, attempted, failed = bench.cycle(None)
        children, more, more_failed = bench.cycle("layers")
        traces = [sim.trace] + [child.trace for child in children
                                if child.trace is not None]
        traced = sum(child.wall for child in children)
        untraced = sum(child.wall for child in plain)
        metrics = layer_metrics(traces, sim.wall + traced, traced - untraced)
        return attempted + more, failed + more_failed, metrics

    setups = [simulate(work, speed, args.seed, archive).wall
              for _ in range(SETUP_REPEATS)]
    bench = kind(work, speed, archive, args.seed)
    bench.prepare()
    analyze, rss, fresh, answers = [], [], [], []
    attempted = failed = 0
    cycles = max(MIN_CYCLES, round(CYCLES_PER_SECOND * args.seconds))
    for _ in range(cycles):
        children, tried, bad = bench.cycle(None)
        attempted += tried
        failed += bad
        analyze.append(children[0].wall)
        rss.append(children[0].rss_mb)
        fresh.append((children[0].wall + children[1].wall) * 1e3)
        answers.extend(child.wall * 1e3 for child in children[1:])
    return attempted, failed, {
        "setup_s": statistics.median(setups),
        "analyze_s": statistics.median(analyze),
        "peak_rss_mb": statistics.median(rss),
        "fresh_p50_ms": statistics.median(fresh),
        "fresh_tail_ms": tail(fresh),
        "answer_p50_ms": statistics.median(answers),
        "answer_tail_ms": tail(answers),
    }


# -- live workload ----------------------------------------------------------------


class Live:
    """The serve core, driven through ``ServeApp`` without a socket.

    Boot folds all but the last ``LIVE_DAYS`` days; the pass then folds
    each remaining day, asks one fresh ``/v1/history`` question, and
    sends a burst of settled requests.  The bursts together hold
    ``answers`` requests with exactly the shares of ``LIVE_MIX``, in a
    seeded order.
    """

    def __init__(self, archive: Path, seed: int, answers: int) -> None:
        self.archive = archive
        self.seed = seed
        self.burst = max(1, answers // LIVE_DAYS)

    def boot(self) -> float:
        """Build the app and fold the warm-up days; returns the seconds."""
        from repro.analysis.sources import detections_from_archive
        from repro.api.serve import ServeConfig, ServeDaemon

        start = time.perf_counter()
        self.app = ServeDaemon(ServeConfig(archive=self.archive, port=0)).app
        detections = detections_from_archive(self.archive)
        num_days = json.loads(
            (self.archive / "manifest.json").read_text())["num_days"]
        for _ in range(num_days - LIVE_DAYS):
            self.app.fold_detection(next(detections))
        self.pending = list(detections)
        elapsed = time.perf_counter() - start
        episodes = self.app.current().results.episodes
        population = sorted(episodes, key=lambda p: p.sort_key())
        self.rng = random.Random(self.seed)
        self.prefixes = self.rng.sample(
            population, min(LIVE_PREFIXES, len(population)))
        return elapsed

    def target(self, route: str) -> str:
        if route in ("history", "episodes"):
            return f"/v1/{route}/{self.rng.choice(self.prefixes)}"
        return {
            "figure1": "/v1/figure/figure1?format=csv",
            "summary": "/v1/figure/summary?format=json",
            "verdicts": "/v1/verdicts",
            "episodes_json": "/v1/figure/episodes?format=json",
        }[route]

    def schedule(self, days: int) -> list[str]:
        """The settled requests of the pass, in the order they are sent."""
        total = self.burst * days
        counts = {route: round(share * total) for route, share in LIVE_MIX}
        counts["history"] += total - sum(counts.values())
        targets = [self.target(route)
                   for route, count in counts.items() for _ in range(count)]
        self.rng.shuffle(targets)
        return targets

    def run(self, speed: HostSpeed) -> tuple:
        """The measured pass.

        Returns (fresh ms, answer ms, busy seconds, attempted, failed);
        the busy time leaves out the host-speed samples between days.
        """
        handle = self.app.handle
        fresh, answers = [], []
        failed = 0
        busy = 0.0
        clock = time.perf_counter
        targets = iter(self.schedule(len(self.pending)))
        for detection in self.pending:
            speed.sample(1)
            day_start = start = clock()
            self.app.fold_detection(detection)
            response = handle(
                "GET", f"/v1/history/{self.rng.choice(self.prefixes)}")
            fresh.append((clock() - start) * 1e3)
            failed += response.status != 200
            for _ in range(self.burst):
                target = next(targets)
                start = clock()
                response = handle("GET", target)
                answers.append((clock() - start) * 1e3)
                failed += response.status != 200
            busy += clock() - day_start
        return fresh, answers, busy, len(fresh) + len(answers), failed

    def check(self) -> tuple[int, int]:
        """Compare served answers with a batch fold of the same days."""
        from repro.api.renderers import render
        from repro.api.serve import Response

        index, results = reference_index(self.archive)
        failed = 0
        for prefix in self.prefixes:
            body = self.app.handle("GET", f"/v1/history/{prefix}").body
            expected = Response.json(index.query(prefix).to_dict()).body
            failed += body != expected
        summary = self.app.handle("GET", "/v1/figure/summary?format=json")
        failed += summary.body != render(results, "summary", "json").encode()
        return len(self.prefixes) + 1, failed


def run_live(args, work: Path, speed: HostSpeed) -> tuple:
    archive = work / "archive"
    requests = LIVE_ANSWERS_PER_SECOND * args.seconds
    # Import the serve stack before any timing: imports are not a layer
    # of the live workload (cli.import_s covers them for scan and study).
    import repro.analysis.sources  # noqa: F401
    import repro.api.serve  # noqa: F401

    if args.trace:
        sim = simulate(work, speed, args.seed, archive, "simulate")
        live = Live(archive, args.seed, requests)
        untraced = live.boot()
        *_samples, busy, attempted, failed = live.run(speed)
        untraced += busy
        del live
        tracer = Tracer()
        uninstall = install(tracer)
        try:
            live = Live(archive, args.seed, requests)
            traced = live.boot()
            *_samples, busy, more, more_failed = live.run(speed)
            traced += busy
        finally:
            uninstall()
        tracer.dump(str(work / "trace-live.json"))
        checked, wrong = live.check()
        metrics = layer_metrics([sim.trace, tracer.summary()],
                                sim.wall + traced, traced - untraced)
        return (attempted + more + checked,
                failed + more_failed + wrong, metrics)

    setups = []
    for _ in range(SETUP_REPEATS):
        live = None
        child = simulate(work, speed, args.seed, archive)
        speed.sample()
        live = Live(archive, args.seed, requests)
        setups.append(child.wall + live.boot())
    fresh, answers, busy, attempted, failed = live.run(speed)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checked, wrong = live.check()
    return attempted + checked, failed + wrong, {
        "setup_s": statistics.median(setups),
        "analyze_s": busy,
        "peak_rss_mb": rss,
        "fresh_p50_ms": statistics.median(fresh),
        "fresh_tail_ms": tail(fresh),
        "answer_p50_ms": statistics.median(answers),
        "answer_tail_ms": tail(answers),
    }


# -- per-layer metrics --------------------------------------------------------------


def layer_metrics(traces: list[dict], wall: float, overhead: float) -> dict:
    """Per-layer metrics from the traces of one traced run.

    ``wall`` is the traced wall clock (the traced processes and
    in-process phases); ``overhead`` the traced minus the untraced
    wall clock of the measured operation.
    """
    inclusive: Counter[str] = Counter()
    counts: Counter[str] = Counter()
    durations: dict[str, list[int]] = {}
    attributed = 0
    for trace in traces:
        inclusive.update(trace["inclusive_ns"])
        counts.update(trace["counts"])
        for name, values in trace["durations_ns"].items():
            durations.setdefault(name, []).extend(values)
        attributed += trace["top_level_ns"]

    def seconds(name: str) -> float:
        return inclusive[name] / 1e9

    def mean(name: str, scale: float) -> float:
        values = durations.get(name)
        return sum(values) / len(values) / scale if values else 0.0

    def median_ms(name: str) -> float:
        values = durations.get(name)
        return statistics.median(values) / 1e6 if values else 0.0

    metrics = {
        "cli.import_s": seconds("cli.import"),
        "archive.open_s": seconds("archive.open"),
        "archive.opens": counts["archive.opens"],
        "archive.decode_s": seconds("archive.decode"),
        "archive.decode_passes": counts["archive.decode_passes"],
        "archive.rows": counts["archive.rows"],
        "detector.detect_s": seconds("detector.detect"),
        "detector.conflict_days": counts["detector.conflict_days"],
        "pipeline.fold_s": seconds("pipeline.fold"),
        "pipeline.results_s": seconds("pipeline.results"),
        "pipeline.classify_s": seconds("pipeline.classify"),
        "pipeline.classify_calls": counts["pipeline.classify_calls"],
        "verdict.fold_s": seconds("verdict.fold"),
        "classifier.classify_s": seconds("classifier.classify"),
        "classifier.calls": counts["classifier.calls"],
        "verdict.finalize_s": seconds("verdict.finalize"),
        "verdict.finalize_calls": counts["verdict.finalize_calls"],
        "rpki.load_s": seconds("rpki.load"),
        "rpki.loads": counts["rpki.loads"],
        "evaluation.score_s": seconds("evaluation.score"),
        "index.build_s": seconds("index.build"),
        "index.builds": counts["index.builds"],
        "index.bytes": counts["index.bytes"],
        "index.queries": counts["index.queries"],
        "index.query_us": mean("index.query", 1e3),
        "renderers.render_s": seconds("renderers.render"),
        "renderers.calls": counts["renderers.calls"],
        "serve.fold_ms": mean("serve.fold", 1e6),
        "serve.snapshot_ms": inclusive["serve.snapshot"] / 1e6,
        "serve.verdicts_ms": inclusive["serve.verdicts"] / 1e6,
        "serve.index_ms": inclusive["serve.index"] / 1e6,
        "world.simulate_s": seconds("world.simulate"),
        "trace.unattributed_s": wall - attributed / 1e9,
        "trace.overhead_s": overhead,
    }
    for route in ("history", "episodes", "figure", "verdicts"):
        metrics[f"serve.handle_ms.{route}"] = median_ms(
            f"serve.handle.{route}")
    return metrics


# -- entry point ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan", "study", "live"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        # The string-hash order is part of what --seed fixes
        # (WORKLOADS.md, "Noise, hash seeds and host speed").  The live
        # workload runs in this process, so restart it under that hash
        # seed; exec replaces the process, nothing is left.  Children
        # inherit the variable.
        os.environ["PYTHONHASHSEED"] = hash_seed
        os.execv(sys.executable, [sys.executable, __file__, *sys.argv[1:]])
    if not (SRC / "repro" / "api" / "cli.py").is_file():
        print(f"run.py: no repro sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    # Byte-compile outside any timing, as an installed package would be.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   check=True, stdout=subprocess.DEVNULL)

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    speed = HostSpeed()
    try:
        if args.workload == "live":
            attempted, failed, values = run_live(args, work, speed)
        else:
            kind = Scan if args.workload == "scan" else Study
            attempted, failed, values = run_batch(kind, args, work, speed)
        if args.trace:
            # Keep the last traced run's spans for inspection.
            traces = WORK / "traces" / args.workload
            shutil.rmtree(traces, ignore_errors=True)
            traces.mkdir(parents=True)
            for path in work.glob("trace-*.json"):
                shutil.copy(path, traces / path.name)
    except BenchError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    names = {metric["name"] for metric in declared}
    if names != set(values):
        print(f"run.py: metrics {sorted(set(values) ^ names)} do not match "
              f"BENCHMARK.json", file=sys.stderr)
        return 1
    factor = speed.factor()
    print(f"run.py: host speed factor {factor:.4f}", file=sys.stderr)
    metrics = {
        metric["name"]: {
            "value": values[metric["name"]]
            * (factor if metric["unit"] in TIME_UNITS else 1),
            "unit": metric["unit"],
        }
        for metric in declared
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
