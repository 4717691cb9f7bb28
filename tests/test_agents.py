"""Strategy generation, action selection, and virtual scoring in the reference
oracle (tests/reference.py), which the engine must match bit for bit."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import choose, credit, draw_biases, draw_tables


def one_table(M: int, K: int, rng) -> np.ndarray:
    """The table of one strategy drawn with bias K."""
    return draw_tables([[K]], M, rng)[0][0]


class TestGenerateStrategy:
    def test_table_shape_and_binary_entries(self):
        tables = draw_tables([[4, 4, 4], [0, 8, 2]], 3, np.random.default_rng(0))
        assert len(tables) == 2
        assert all(t.shape == (3, 8) and t.dtype == bool for t in tables)

    def test_extreme_biases(self):
        rng = np.random.default_rng(1)
        assert one_table(2, 0, rng).all()
        assert not one_table(2, 4, rng).any()

    def test_homogeneous_zero_fraction_is_half(self):
        # 10^4 entries, binomial 3 sigma band around 1/2
        rng = np.random.default_rng(7)
        entries = np.concatenate([one_table(3, 4, rng) for _ in range(1250)])
        zeros = (~entries).mean()
        sigma = 0.5 / np.sqrt(entries.size)
        assert abs(zeros - 0.5) < 3 * sigma

    def test_determinism(self):
        a = one_table(4, 7, np.random.default_rng(42))
        b = one_table(4, 7, np.random.default_rng(42))
        assert (a == b).all()


class TestDrawBias:
    def test_homogeneous_is_half_p(self):
        rng = np.random.default_rng(0)
        for m, expected in [(1, 1), (2, 2), (3, 4), (8, 128)]:
            assert draw_biases("homogeneous", m, 2, 3, rng) == [[expected] * 3] * 2

    def test_heterogeneous_covers_full_range_uniformly(self):
        rng = np.random.default_rng(3)
        draws = np.array(draw_biases("heterogeneous", 2, 1000, 5, rng)).ravel()
        assert draws.min() == 0 and draws.max() == 4
        counts = np.bincount(draws, minlength=5)
        # chi-square against uniform over 5 cells, generous threshold
        chi2 = ((counts - 1000.0) ** 2 / 1000.0).sum()
        assert chi2 < 20.0

    def test_heterogeneous_spreads_more_than_homogeneous(self):
        # per-strategy zero-fraction variance is strictly larger
        rng = np.random.default_rng(11)
        frac = {}
        for mode in ("homogeneous", "heterogeneous"):
            tables = draw_tables(draw_biases(mode, 3, 1200, 1, rng), 3, rng)
            frac[mode] = [(~t[0]).mean() for t in tables]
        hom = np.var(frac["homogeneous"])
        het = np.var(frac["heterogeneous"])
        assert het > hom * 1.5
        assert abs(np.mean(frac["heterogeneous"]) - 0.5) < 0.03


def make_agent(tables: list[list[int]], scores: list[int]):
    return np.array(tables, dtype=bool), np.array(scores, dtype=np.int64)


class TestChooseAction:
    def test_single_strategy_returns_its_entry(self):
        table, scores = make_agent([[0, 1, 1, 0]], [0])
        rng = np.random.default_rng(0)
        assert choose(table, scores, 1, rng) is True
        assert choose(table, scores, 3, rng) is False

    def test_strict_argmax_wins(self):
        table, scores = make_agent([[1, 1, 1, 1], [0, 0, 0, 0]], [3, -1])
        rng = np.random.default_rng(0)
        assert all(choose(table, scores, 2, rng) for _ in range(20))

    def test_ties_split_uniformly(self):
        # all scores zero: each of 4 strategies picked ~1/4 of the time
        table, scores = make_agent([[1, 1], [1, 0], [0, 1], [0, 0]], [0, 0, 0, 0])
        rng = np.random.default_rng(15)
        n_draws = 10000
        hub = sum(choose(table, scores, 0, rng) for _ in range(n_draws))
        # at mu=0 the four tables suggest (1,1,0,0): expect a fair split
        assert abs(hub / n_draws - 0.5) < 3 * 0.5 / np.sqrt(n_draws)

    def test_random_policy_ignores_scores(self):
        rng = np.random.default_rng(8)
        scores = np.array([5, -5], dtype=np.int64)
        draws = [choose(None, scores, 0, rng) for _ in range(4000)]
        assert abs(np.mean(draws) - 0.5) < 3 * 0.5 / np.sqrt(len(draws))


class TestUpdateScores:
    def test_inside_cheaper_rewards_inside_suggestion(self):
        table, scores = make_agent([[1, 1, 1, 1], [0, 0, 0, 0]], [0, 0])
        credit(table, scores, 2, c_out=18, c_in=Fraction(23, 2))
        assert list(scores) == [1, -1]

    def test_inside_dearer_punishes_inside_suggestion(self):
        table, scores = make_agent([[1, 1, 1, 1], [0, 0, 0, 0]], [0, 0])
        credit(table, scores, 2, c_out=18, c_in=Fraction(49, 2))
        assert list(scores) == [-1, 1]

    def test_exact_tie_leaves_scores_unchanged(self):
        table, scores = make_agent([[1, 1, 1, 1], [0, 0, 0, 0]], [5, -3])
        credit(table, scores, 0, c_out=10, c_in=Fraction(10))
        assert list(scores) == [5, -3]

    def test_all_strategies_updated_even_unplayed(self):
        table, scores = make_agent([[1, 0], [1, 1], [0, 0]], [0, 0, 0])
        credit(table, scores, 0, c_out=5, c_in=3)
        # all three tables suggest for mu=0: 1, 1, 0
        assert list(scores) == [1, 1, -1]

    def test_agreeing_strategies_move_together(self):
        rng = np.random.default_rng(21)
        table = draw_tables([[4] * 6], 3, rng)[0]
        scores = np.zeros(6, dtype=np.int64)
        mu = 5
        credit(table, scores, mu, c_out=7, c_in=Fraction(13, 2))
        for i in range(6):
            for j in range(6):
                if table[i, mu] == table[j, mu]:
                    assert scores[i] == scores[j]
                else:
                    assert scores[i] == -scores[j]

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_score_magnitude_bounded_by_step_count(self, seed):
        rng = np.random.default_rng(seed)
        table = draw_tables([[2] * 4], 2, rng)[0]
        scores = np.zeros(4, dtype=np.int64)
        t_steps = 25
        for t in range(1, t_steps + 1):
            mu = int(rng.integers(0, 4))
            c_out = int(rng.integers(0, 6))
            c_in = int(rng.integers(0, 6))
            credit(table, scores, mu, c_out, c_in)
            assert (np.abs(scores) <= t).all()
