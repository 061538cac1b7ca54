"""Tests for the OrigTranAS / SplitView / DistinctPaths classifier."""

import datetime
import gc
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import classifier
from repro.core.classifier import (
    ConflictClass,
    cached_class,
    classify_conflict,
    classify_day,
    classify_pair,
    representative_path,
)
from repro.core.detector import DailyConflict, DayDetection
from repro.core.verdict import VerdictEngine
from repro.netbase.prefix import Prefix

PREFIX = Prefix.parse("10.0.0.0/8")


class TestClassifyPair:
    def test_orig_tran_as(self):
        # Origin of P1 (42) is a transit hop of P2.
        assert (
            classify_pair((701, 42), (1239, 42, 7))
            is ConflictClass.ORIG_TRAN_AS
        )

    def test_orig_tran_as_symmetric(self):
        assert (
            classify_pair((1239, 42, 7), (701, 42))
            is ConflictClass.ORIG_TRAN_AS
        )

    def test_split_view(self):
        # Shared transit 3561, distinct origins 7 and 8.
        assert (
            classify_pair((701, 3561, 7), (1239, 3561, 8))
            is ConflictClass.SPLIT_VIEW
        )

    def test_distinct_paths(self):
        assert (
            classify_pair((701, 100, 7), (1239, 200, 8))
            is ConflictClass.DISTINCT_PATHS
        )

    def test_same_origin_rejected(self):
        with pytest.raises(ValueError, match="share origin"):
            classify_pair((701, 42), (1239, 42))

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            classify_pair((), (701, 42))

    def test_orig_tran_takes_precedence_over_shared_transit(self):
        # P2 contains both a shared transit AND P1's origin: OrigTranAS.
        assert (
            classify_pair((701, 3561, 42), (1239, 3561, 42, 7))
            is ConflictClass.ORIG_TRAN_AS
        )

    @given(
        st.lists(st.integers(1, 100), min_size=1, max_size=5),
        st.lists(st.integers(101, 200), min_size=1, max_size=5),
    )
    def test_disjoint_paths_always_distinct(self, left, right):
        assert classify_pair(left, right) is ConflictClass.DISTINCT_PATHS

    @given(
        st.lists(st.integers(1, 200), min_size=2, max_size=5),
        st.lists(st.integers(1, 200), min_size=2, max_size=5),
    )
    def test_classification_symmetric(self, left, right):
        if left[-1] == right[-1]:
            return
        assert classify_pair(left, right) is classify_pair(right, left)


class TestRepresentativePath:
    def test_most_common_wins(self):
        paths = [(1, 2), (1, 2), (3, 2)]
        assert representative_path(paths) == (1, 2)

    def test_tie_breaks_to_shortest(self):
        paths = [(5, 4, 2), (1, 2)]
        assert representative_path(paths) == (1, 2)

    def test_tie_breaks_lexicographically(self):
        paths = [(7, 2), (1, 2)]
        assert representative_path(paths) == (1, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            representative_path([])


def conflict(paths_by_origin: dict) -> DailyConflict:
    return DailyConflict(
        prefix=PREFIX,
        origins=frozenset(paths_by_origin),
        paths_by_origin=tuple(
            (origin, tuple(paths))
            for origin, paths in sorted(paths_by_origin.items())
        ),
    )


class TestClassifyConflict:
    def test_two_origin_conflict(self):
        result = classify_conflict(
            conflict({7: [(701, 100, 7)], 8: [(1239, 200, 8)]})
        )
        assert result is ConflictClass.DISTINCT_PATHS

    def test_precedence_across_pairs(self):
        # Three origins: one pair is SplitView, another OrigTranAS;
        # the conflict takes the most specific class.
        result = classify_conflict(
            conflict(
                {
                    7: [(701, 100, 7)],
                    8: [(1239, 100, 8)],  # SplitView with origin 7
                    100: [(7018, 100)],  # OrigTranAS with both
                }
            )
        )
        assert result is ConflictClass.ORIG_TRAN_AS

    def test_representative_selection_matters(self):
        # Origin 8's common path shares no AS; its rare path does.
        result = classify_conflict(
            conflict(
                {
                    7: [(701, 100, 7)],
                    8: [(1239, 200, 8), (1239, 200, 8), (9, 100, 8)],
                }
            )
        )
        assert result is ConflictClass.DISTINCT_PATHS

    def test_pathless_conflict_rejected(self):
        with pytest.raises(ValueError, match="lacks paths"):
            classify_conflict(
                DailyConflict(prefix=PREFIX, origins=frozenset({1, 2}))
            )

    def test_classify_day_counts(self):
        conflicts = [
            conflict({7: [(701, 100, 7)], 8: [(1239, 200, 8)]}),
            conflict({7: [(701, 3561, 7)], 8: [(1239, 3561, 8)]}),
            conflict({42: [(701, 42)], 7: [(1239, 42, 7)]}),
        ]
        counts = classify_day(conflicts)
        assert counts[ConflictClass.DISTINCT_PATHS] == 1
        assert counts[ConflictClass.SPLIT_VIEW] == 1
        assert counts[ConflictClass.ORIG_TRAN_AS] == 1


class TestClassMemo:
    """``cached_class``: one classification per conflict object."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Conflicts that reached ``classify_conflict`` (the misses)."""
        seen = []

        def counting(conflict):
            seen.append(conflict)
            return classify_conflict(conflict)

        monkeypatch.setattr(classifier, "classify_conflict", counting)
        return seen

    @staticmethod
    def feed(engine, conflict, offset):
        engine.feed_day(
            DayDetection(
                day=datetime.date(2001, 6, 1) + datetime.timedelta(offset),
                conflicts=(conflict,),
                prefixes_scanned=1,
                as_set_excluded=0,
            )
        )

    def test_study_and_verdict_folds_share_one_classification(self, calls):
        shared = conflict({42: [(701, 42)], 7: [(1239, 42, 7)]})
        engine = VerdictEngine()
        for offset in range(3):
            assert classify_day([shared])[ConflictClass.ORIG_TRAN_AS] == 1
            self.feed(engine, shared, offset)
        assert calls == [shared]
        votes = engine.state_dict()["evidence"][0][2]["class_votes"]
        assert votes == {"OrigTranAS": 3}

    def test_pathless_conflict_casts_no_vote_once(self, calls):
        pathless = DailyConflict(prefix=PREFIX, origins=frozenset({1, 2}))
        engine = VerdictEngine()
        for offset in range(3):
            self.feed(engine, pathless, offset)
        assert cached_class(pathless) is None
        assert calls == [pathless]
        assert engine.state_dict()["evidence"][0][2]["class_votes"] == {}
        with pytest.raises(ValueError, match="cannot be classified"):
            classify_day([pathless])
        assert calls == [pathless]

    def test_entries_evicted_with_their_conflict(self):
        doomed = conflict({7: [(701, 100, 7)], 8: [(1239, 200, 8)]})
        key = id(doomed)
        assert cached_class(doomed) is ConflictClass.DISTINCT_PATHS
        assert key in classifier._CLASS_MEMO
        del doomed
        gc.collect()
        assert key not in classifier._CLASS_MEMO

    def test_recycled_id_never_returns_a_stale_class(self):
        split = conflict({7: [(701, 3561, 7)], 8: [(1239, 3561, 8)]})
        distinct = conflict({7: [(701, 100, 7)], 8: [(1239, 200, 8)]})
        # A leftover entry under ``split``'s id that belongs to another
        # object, as if ``split`` reused a dead conflict's address.
        classifier._CLASS_MEMO[id(split)] = (
            weakref.ref(distinct),
            ConflictClass.DISTINCT_PATHS,
        )
        assert cached_class(split) is ConflictClass.SPLIT_VIEW
        # Churn: conflicts of different classes dying and being born,
        # so freed addresses come back under new conflicts.
        shapes = (
            ({7: [(701, 3561, 7)], 8: [(1239, 3561, 8)]},
             ConflictClass.SPLIT_VIEW),
            ({42: [(701, 42)], 7: [(1239, 42, 7)]},
             ConflictClass.ORIG_TRAN_AS),
            ({7: [(701, 100, 7)], 8: [(1239, 200, 8)]},
             ConflictClass.DISTINCT_PATHS),
        )
        wrong = []
        for round_ in range(300):
            paths, expected = shapes[round_ % 3]
            fresh = conflict(paths)
            if cached_class(fresh) is not expected:
                wrong.append(round_)
            del fresh
        assert wrong == []

    def test_dead_conflict_does_not_evict_its_successor(self):
        first = conflict({7: [(701, 100, 7)], 8: [(1239, 200, 8)]})
        second = conflict({7: [(701, 3561, 7)], 8: [(1239, 3561, 8)]})
        cached_class(second)
        key = id(second)
        successor = classifier._CLASS_MEMO[key]
        # The callback of a dead conflict once stored under this id.
        classifier._evict(key, weakref.ref(first))
        assert classifier._CLASS_MEMO[key] is successor
