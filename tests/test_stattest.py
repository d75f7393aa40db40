"""Rank statistics: Friedman test, Conover post-hoc, clique extraction."""

from __future__ import annotations

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import rankdata

from ctsbench.stattest import (
    conover_posthoc,
    friedman_test,
    rank_scores,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "conover_golden.json"


class TestRankScores:
    def test_row_example(self):
        table = rank_scores(np.array([[3.0, 1.0, 2.0], [3.0, 1.0, 2.0]]))
        assert table.ranks[0].tolist() == [3.0, 1.0, 2.0]

    def test_midranks_on_ties(self):
        table = rank_scores(np.array([[1.0, 1.0, 2.0], [1.0, 2.0, 2.0]]))
        assert table.ranks[0].tolist() == [1.5, 1.5, 3.0]
        assert table.ranks[1].tolist() == [1.0, 2.5, 2.5]

    @given(
        st.integers(2, 8).flatmap(
            lambda k: st.lists(
                st.lists(
                    st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(-1e6, 1e6)),
                    min_size=k,
                    max_size=k,
                ),
                min_size=2,
                max_size=10,
            )
        )
    )
    def test_midranks_match_scipy_average_ranks(self, rows):
        scores = np.array(rows)
        assert np.array_equal(rank_scores(scores).ranks, rankdata(scores, method="average", axis=1))

    def test_rank_sums_and_averages(self):
        table = rank_scores(np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]))
        assert table.rank_sums.tolist() == [2.0, 4.0, 6.0]
        assert table.avg_ranks.tolist() == [1.0, 2.0, 3.0]

    def test_nonfinite_located(self):
        scores = np.ones((3, 3))
        scores[1, 2] = np.nan
        with pytest.raises(ValueError, match="dataset 1, method 2"):
            rank_scores(scores)

    def test_minimum_shape(self):
        with pytest.raises(ValueError):
            rank_scores(np.ones((1, 3)))
        with pytest.raises(ValueError):
            rank_scores(np.ones((3, 1)))


class TestFriedman:
    def test_hand_example(self):
        # four datasets ranking three methods identically: R = (4, 8, 12)
        scores = np.tile(np.array([1.0, 2.0, 3.0]), (4, 1))
        result = friedman_test(rank_scores(scores))
        assert result.statistic == pytest.approx(8.0, abs=1e-12)
        assert result.df == 2
        assert result.p_value == pytest.approx(math.exp(-4.0), abs=1e-6)

    def test_identical_methods_accept_null(self):
        scores = np.ones((5, 4))
        result = friedman_test(rank_scores(scores))
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_p_value_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            scores = rng.standard_normal((int(rng.integers(2, 12)), int(rng.integers(2, 6))))
            result = friedman_test(rank_scores(scores))
            assert 0.0 <= result.p_value <= 1.0
            assert result.statistic >= 0.0


class TestConover:
    def test_identical_columns_share_clique(self):
        rng = np.random.default_rng(4)
        col = rng.standard_normal(6)
        other = rng.standard_normal(6) + 3.0
        scores = np.column_stack([col, col, other])
        ph = conover_posthoc(rank_scores(scores))
        assert not ph.significant[0, 1]
        clique_of_0 = next(c for c in ph.cliques if 0 in c)
        assert 1 in clique_of_0

    def test_degenerate_spread_zero_cd(self):
        # every row ranked identically: A == B exactly
        scores = np.tile(np.array([1.0, 2.0, 3.0]), (4, 1))
        ph = conover_posthoc(rank_scores(scores))
        assert ph.cd == 0.0
        assert ph.significant[0, 1] and ph.significant[0, 2] and ph.significant[1, 2]

    def test_diagonal_never_significant(self):
        rng = np.random.default_rng(5)
        ph = conover_posthoc(rank_scores(rng.standard_normal((8, 4))))
        assert not ph.significant.diagonal().any()

    def test_cliques_cover_all_methods(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            scores = rng.standard_normal((10, 5))
            ph = conover_posthoc(rank_scores(scores))
            seen = set()
            for c in ph.cliques:
                seen.update(c)
            assert seen == set(range(5))

    def test_cliques_are_maximal_runs(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            scores = rng.standard_normal((9, 5))
            table = rank_scores(scores)
            ph = conover_posthoc(table)
            sums = table.rank_sums
            for c in ph.cliques:
                gaps = [abs(sums[i] - sums[j]) for i in c for j in c]
                assert max(gaps) <= ph.cd + 1e-12
            # no clique contains another
            sets = [frozenset(c) for c in ph.cliques]
            for a in sets:
                for b in sets:
                    if a is not b:
                        assert not a < b

    def test_alpha_validated(self):
        scores = np.random.default_rng(8).standard_normal((5, 3))
        with pytest.raises(ValueError):
            conover_posthoc(rank_scores(scores), alpha=0.0)


class TestGolden:
    def test_reference_run_reproduced(self):
        g = json.loads(GOLDEN.read_text())
        table = rank_scores(np.array(g["table"]))
        assert table.rank_sums.tolist() == g["rank_sums"]
        fr = friedman_test(table)
        assert fr.statistic == pytest.approx(g["friedman_statistic"], abs=1e-10)
        assert fr.df == g["friedman_df"]
        assert fr.p_value == pytest.approx(g["friedman_p"], abs=1e-10)
        ph = conover_posthoc(table, alpha=g["alpha"])
        assert abs(ph.cd - g["cd"]) <= 1e-7
        assert ph.significant.tolist() == g["significant"]
