"""The renderer registry: every figure/table behind one ``render()``.

The legacy surface was a pair of free functions per figure
(``figure1_csv`` / ``figure1_ascii``, ...).  This module unifies them:
each output is a ``(figure, format)`` registration, and
:func:`render` dispatches.  New figures or formats are one
:func:`register_renderer` call away; the legacy functions stay the
implementations, so registry output is byte-identical to them.
"""

from __future__ import annotations

import json
from collections.abc import Callable

from repro.analysis.evaluation import (
    evaluation_ascii,
    evaluation_csv,
    evaluation_json,
)
from repro.analysis.export import episodes_csv, episodes_json, summary_json
from repro.analysis.figures import (
    figure1_ascii,
    figure1_csv,
    figure3_ascii,
    figure3_csv,
    figure5_ascii,
    figure5_csv,
    figure6_ascii,
    figure6_csv,
)
from repro.analysis.index import render_query  # noqa: F401 — re-exported
from repro.analysis.pipeline import StudyResults
from repro.analysis.report import figure2_table, figure4_table, summary_report
from repro.netbase.rpki import STATE_NOT_EVALUATED, ValidationState

#: A renderer turns :class:`StudyResults` into one output document.
Renderer = Callable[[StudyResults], str]

_RENDERERS: dict[tuple[str, str], Renderer] = {}


def register_renderer(
    figure: str, format: str
) -> Callable[[Renderer], Renderer]:
    """Decorator registering a renderer for ``(figure, format)``."""

    def decorate(renderer: Renderer) -> Renderer:
        key = (figure, format)
        if key in _RENDERERS:
            raise ValueError(f"renderer for {figure}/{format} already exists")
        _RENDERERS[key] = renderer
        return renderer

    return decorate


def available_renderings() -> dict[str, tuple[str, ...]]:
    """Registered figures mapped to their available formats."""
    figures: dict[str, list[str]] = {}
    for figure, format in sorted(_RENDERERS):
        figures.setdefault(figure, []).append(format)
    return {figure: tuple(formats) for figure, formats in figures.items()}


def render(results: StudyResults, figure: str, format: str = "csv") -> str:
    """Render ``figure`` from ``results`` in ``format``.

    ``figure`` is one of :func:`available_renderings`'s keys
    (``figure1`` ... ``figure6``, ``episodes``, ``summary``, ``rpki``,
    ``longevity``, ``evaluation``); ``format`` is ``csv``, ``ascii``,
    or ``json`` where registered.  Dispatch is purely by name: most
    renderers consume :class:`StudyResults`, while ``evaluation``
    renders an :class:`~repro.analysis.evaluation.EvaluationResult`.

    Every failure mode is a :class:`ValueError` with a usable message —
    an unknown figure, an unknown format for a known figure, or a
    ``results`` object that does not carry what the renderer needs
    (e.g. a plain dict, or an ``EvaluationResult`` handed to a
    ``StudyResults`` figure) — never a bare ``KeyError`` or
    ``AttributeError`` from inside a renderer.
    """
    renderer = _RENDERERS.get((figure, format))
    if renderer is None:
        available = available_renderings()
        if figure not in available:
            raise ValueError(
                f"unknown figure {figure!r}; "
                f"available: {', '.join(sorted(available))}"
            )
        raise ValueError(
            f"figure {figure!r} has no {format!r} renderer; "
            f"available formats: {', '.join(available[figure])}"
        )
    try:
        return renderer(results)
    except (AttributeError, KeyError, TypeError) as error:
        raise ValueError(
            f"cannot render {figure!r} from a "
            f"{type(results).__name__}: the renderer needs a different "
            f"results object ({error})"
        ) from error


# -- figure 1: daily conflict counts -----------------------------------------

register_renderer("figure1", "csv")(figure1_csv)
register_renderer("figure1", "ascii")(figure1_ascii)


@register_renderer("figure1", "json")
def _figure1_json(results: StudyResults) -> str:
    """Figure 1 series as JSON records."""
    return json.dumps(
        [
            {"date": day.isoformat(), "conflicts": count}
            for day, count in results.daily_series
        ],
        indent=2,
    )


# -- figure 2: yearly medians -------------------------------------------------


register_renderer("figure2", "ascii")(figure2_table)


@register_renderer("figure2", "csv")
def _figure2_csv(results: StudyResults) -> str:
    """Figure 2 series: year, median, increase rate."""
    lines = ["year,median_conflicts,increase_rate"]
    for year, median in sorted(results.yearly_medians.items()):
        rate = results.yearly_increase_rates.get(year)
        lines.append(
            f"{year},{median},{'' if rate is None else f'{rate:.4f}'}"
        )
    return "\n".join(lines) + "\n"


@register_renderer("figure2", "json")
def _figure2_json(results: StudyResults) -> str:
    """Figure 2 series as JSON records."""
    return json.dumps(
        [
            {
                "year": year,
                "median_conflicts": median,
                "increase_rate": results.yearly_increase_rates.get(year),
            }
            for year, median in sorted(results.yearly_medians.items())
        ],
        indent=2,
    )


# -- figure 3: duration histogram ---------------------------------------------

register_renderer("figure3", "csv")(figure3_csv)
register_renderer("figure3", "ascii")(figure3_ascii)


@register_renderer("figure3", "json")
def _figure3_json(results: StudyResults) -> str:
    """Figure 3 histogram as JSON records."""
    return json.dumps(
        [
            {
                "duration_days": duration,
                "conflicts": results.duration_histogram[duration],
            }
            for duration in sorted(results.duration_histogram)
        ],
        indent=2,
    )


# -- figure 4: duration expectations ------------------------------------------


register_renderer("figure4", "ascii")(figure4_table)


@register_renderer("figure4", "csv")
def _figure4_csv(results: StudyResults) -> str:
    """Figure 4 series: minimum duration filter, expectation."""
    lines = ["min_duration_days,expectation_days"]
    for threshold, expectation in sorted(
        results.duration_expectations.items()
    ):
        lines.append(f"{threshold},{expectation}")
    return "\n".join(lines) + "\n"


@register_renderer("figure4", "json")
def _figure4_json(results: StudyResults) -> str:
    """Figure 4 expectations as JSON records."""
    return json.dumps(
        [
            {"min_duration_days": threshold, "expectation_days": expectation}
            for threshold, expectation in sorted(
                results.duration_expectations.items()
            )
        ],
        indent=2,
    )


# -- figure 5: prefix-length distribution -------------------------------------

register_renderer("figure5", "csv")(figure5_csv)
register_renderer("figure5", "ascii")(figure5_ascii)


@register_renderer("figure5", "json")
def _figure5_json(results: StudyResults) -> str:
    """Figure 5 distribution as JSON records."""
    return json.dumps(
        [
            {
                "year": year,
                "prefix_length": length,
                "mean_daily_conflicts": value,
            }
            for year, by_length in sorted(
                results.length_distribution.items()
            )
            for length, value in sorted(by_length.items())
        ],
        indent=2,
    )


# -- figure 6: classification series ------------------------------------------

register_renderer("figure6", "csv")(figure6_csv)
register_renderer("figure6", "ascii")(figure6_ascii)


@register_renderer("figure6", "json")
def _figure6_json(results: StudyResults) -> str:
    """Figure 6 per-class series as JSON records."""
    return json.dumps(
        [
            {
                "date": day.isoformat(),
                **{
                    conflict_class.value: count
                    for conflict_class, count in counts.items()
                },
            }
            for day, counts in results.classification_series
        ],
        indent=2,
    )


# -- episode table and study summary ------------------------------------------

register_renderer("episodes", "csv")(episodes_csv)
register_renderer("episodes", "json")(episodes_json)
register_renderer("summary", "json")(summary_json)
register_renderer("summary", "ascii")(summary_report)


# -- RPKI validation-state breakdown and long-lived-MOAS longevity ------------
#
# Both render :class:`StudyResults` produced with a ROA table (``repro
# analyze --rpki``); without one every episode lands in the single
# ``not_evaluated`` column, so the figures stay renderable either way.

#: Column order for validation states, worst first.
_RPKI_STATE_ORDER = (
    ValidationState.INVALID.value,
    ValidationState.VALID.value,
    ValidationState.NOT_FOUND.value,
    STATE_NOT_EVALUATED,
)

#: Longevity buckets: (label, min_days, max_days-inclusive).  Aligned
#: with the paper's duration thresholds (Figure 4) so the long-lived
#: tail ("Live Long and Prosper") is its own rows.
_LONGEVITY_BUCKETS = (
    ("1", 1, 1),
    ("2-9", 2, 9),
    ("10-29", 10, 29),
    ("30-89", 30, 89),
    ("90-299", 90, 299),
    ("300+", 300, None),
)


def _episode_state(results: StudyResults, prefix) -> str:
    state = results.rpki_episode_states.get(prefix)
    return STATE_NOT_EVALUATED if state is None else state


def _rpki_rows(results: StudyResults) -> list[dict]:
    """Per-validation-state episode aggregates, worst state first."""
    by_state: dict[str, list[int]] = {}
    for prefix, episode in results.episodes.items():
        by_state.setdefault(
            _episode_state(results, prefix), []
        ).append(episode.days_observed)
    total = len(results.episodes)
    rows = []
    for state in _RPKI_STATE_ORDER:
        durations = by_state.get(state)
        if durations is None:
            continue
        rows.append(
            {
                "state": state,
                "episodes": len(durations),
                "share": len(durations) / total if total else 0.0,
                "mean_duration_days": sum(durations) / len(durations),
                "max_duration_days": max(durations),
                "long_lived": sum(1 for days in durations if days >= 30),
            }
        )
    return rows


def _longevity_grid(
    results: StudyResults,
) -> tuple[tuple[str, ...], list[tuple[str, dict[str, int]]]]:
    """(state columns, [(bucket label, state -> episodes)]) rows."""
    present = {
        _episode_state(results, prefix) for prefix in results.episodes
    }
    states = tuple(
        state for state in _RPKI_STATE_ORDER if state in present
    ) or (STATE_NOT_EVALUATED,)
    rows = []
    for label, low, high in _LONGEVITY_BUCKETS:
        counts = dict.fromkeys(states, 0)
        for prefix, episode in results.episodes.items():
            days = episode.days_observed
            if days < low or (high is not None and days > high):
                continue
            counts[_episode_state(results, prefix)] += 1
        rows.append((label, counts))
    return states, rows


@register_renderer("rpki", "csv")
def _rpki_csv(results: StudyResults) -> str:
    """Validation-state breakdown as CSV."""
    lines = [
        "state,episodes,share,mean_duration_days,"
        "max_duration_days,long_lived"
    ]
    for row in _rpki_rows(results):
        lines.append(
            f"{row['state']},{row['episodes']},{row['share']:.4f},"
            f"{row['mean_duration_days']:.2f},"
            f"{row['max_duration_days']},{row['long_lived']}"
        )
    return "\n".join(lines) + "\n"


@register_renderer("rpki", "ascii")
def _rpki_ascii(results: StudyResults) -> str:
    """The human-readable validation-state breakdown."""
    lines = [
        "RPKI origin validation of MOAS episodes",
        "=======================================",
        "",
        f"{'state':<15} {'episodes':>9} {'share':>7} {'mean d':>8} "
        f"{'max d':>6} {'>=30d':>6}",
    ]
    for row in _rpki_rows(results):
        lines.append(
            f"{row['state']:<15} {row['episodes']:>9} "
            f"{row['share']:>7.1%} {row['mean_duration_days']:>8.1f} "
            f"{row['max_duration_days']:>6} {row['long_lived']:>6}"
        )
    lines.append("")
    lines.append(f"{len(results.episodes)} episodes total")
    return "\n".join(lines) + "\n"


@register_renderer("rpki", "json")
def _rpki_json(results: StudyResults) -> str:
    """Validation-state breakdown as JSON records."""
    return json.dumps(
        [
            {**row, "share": round(row["share"], 4),
             "mean_duration_days": round(row["mean_duration_days"], 2)}
            for row in _rpki_rows(results)
        ],
        indent=2,
    )


@register_renderer("longevity", "csv")
def _longevity_csv(results: StudyResults) -> str:
    """Duration-bucket x validation-state episode counts as CSV."""
    states, rows = _longevity_grid(results)
    lines = ["duration_days," + ",".join(states) + ",total"]
    for label, counts in rows:
        values = [counts[state] for state in states]
        lines.append(
            f"{label}," + ",".join(str(v) for v in values)
            + f",{sum(values)}"
        )
    return "\n".join(lines) + "\n"


@register_renderer("longevity", "ascii")
def _longevity_ascii(results: StudyResults) -> str:
    """The long-lived-MOAS duration x RPKI-state table."""
    states, rows = _longevity_grid(results)
    width = max(13, *(len(state) + 2 for state in states))
    lines = [
        "MOAS episode longevity by RPKI validation state",
        "===============================================",
        "",
        f"{'duration':<10}"
        + "".join(f"{state:>{width}}" for state in states)
        + f"{'total':>8}",
    ]
    for label, counts in rows:
        values = [counts[state] for state in states]
        lines.append(
            f"{label:<10}"
            + "".join(f"{value:>{width}}" for value in values)
            + f"{sum(values):>8}"
        )
    return "\n".join(lines) + "\n"


@register_renderer("longevity", "json")
def _longevity_json(results: StudyResults) -> str:
    """Longevity grid as JSON records."""
    _states, rows = _longevity_grid(results)
    return json.dumps(
        [
            {"duration_days": label, **counts, "total": sum(counts.values())}
            for label, counts in rows
        ],
        indent=2,
    )


# -- incident-attribution evaluation ------------------------------------------
#
# These render an
# :class:`~repro.analysis.evaluation.EvaluationResult` (the output of
# ``MoasService.evaluate()``), not a :class:`StudyResults` — the
# registry dispatches purely on the figure name, which is what lets the
# evaluation layer plug in without a parallel rendering surface.

register_renderer("evaluation", "csv")(evaluation_csv)
register_renderer("evaluation", "ascii")(evaluation_ascii)
register_renderer("evaluation", "json")(evaluation_json)
