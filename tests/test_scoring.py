"""Score functions against extended-precision oracles and hand traces."""
import math
import threading
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from negtext import scoring
from negtext.embeddings import EmbeddingMatrix, LabelSpace, NegativeSpace
from negtext.errors import ConfigError, DataError, InputError
from negtext.mining import classify_batch
from negtext.scoring import (
    ScoreConfig,
    adaptive_lambda,
    fused_score,
    grouped_scores_batch,
    id_part,
    max_label_similarity,
    negative_scores,
)

from conftest import make_label_space, make_negative_space, unit_rows


def softmax_score_oracle(sim_id, sim_neg, temperature):
    """Arbitrary-precision reference for the softmax ratio."""
    with mpmath.workdps(60):
        num = mpmath.fsum(mpmath.e ** (mpmath.mpf(s) / temperature) for s in sim_id)
        den = num + mpmath.fsum(
            mpmath.e ** (mpmath.mpf(s) / temperature) for s in sim_neg
        )
        return float(num / den)


def grouped_score_oracle(v, ids, neg, cfg):
    """Longdouble brute force: mean of per-group softmax ratios, the groups
    cut from the stored rows in order, `cfg.group_size` at a time."""
    sim_id = (ids.features.data @ v).astype(np.longdouble)
    sim_neg = (neg.stored_rows() @ v).astype(np.longdouble)
    tau = np.longdouble(cfg.temperature)
    g = cfg.group_size
    scores = []
    for start in range(0, neg.size, g):
        group = sim_neg[start : start + g]
        shift = max(np.max(sim_id), np.max(group)) / tau
        n = np.sum(np.exp(sim_id / tau - shift))
        d = n + np.sum(np.exp(group / tau - shift))
        scores.append(n / d)
    return float(np.mean(scores))


def group_shares(images, ids, neg, cfg):
    """(images x groups) per-group scores from one product over every
    stored negative row."""
    tau = cfg.temperature

    def lse(sims):
        scaled = sims / tau
        shift = np.max(scaled, axis=1, keepdims=True)
        return shift[:, 0] + np.log(np.sum(np.exp(scaled - shift), axis=1))

    lse_id = lse(images @ ids.features.data.T)
    sim_neg = images @ neg.stored_rows().T
    g = cfg.group_size
    with np.errstate(over="ignore"):  # a share's limit 0 at a small tau
        return np.stack([
            1.0 / (1.0 + np.exp(lse(sim_neg[:, start : start + g]) - lse_id))
            for start in range(0, neg.size, g)
        ], axis=1)


def full_product_scores(images, ids, neg, cfg):
    """The grouped score from one product over every stored negative row:
    the group shares summed in group order, then divided."""
    shares = group_shares(images, ids, neg, cfg)
    total = np.zeros(images.shape[0])
    for share in shares.T:
        total += share
    return total / shares.shape[1]


def space_of(texts, data):
    """A negative space of these texts with these unit rows."""
    return NegativeSpace.from_rows(texts, data)


class TestScoreConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ScoreConfig(temperature=0.0)
        with pytest.raises(ConfigError):
            ScoreConfig(group_size=0)
        # 1e-320 is finite, but its reciprocal is not; 6e-309 has a finite
        # reciprocal, but the scaled similarities' span 2 / 6e-309 is not
        for bad in (-1.0, float("nan"), float("inf"), 1e-320, 6e-309):
            with pytest.raises(ConfigError, match="temperature must be finite"):
                ScoreConfig(temperature=bad)


def one_group_score(sim_id, sim_neg, temperature):
    """The grouped score, negatives in one group, of an image whose
    similarities to the labels and the negatives are `sim_id` and `sim_neg`.

    The image is the first axis; each label or negative row holds its
    similarity there and fills its unit norm on an axis of its own.
    """
    sims = np.concatenate([sim_id, sim_neg])
    dim = sims.size + 1
    data = np.zeros((sims.size, dim))
    data[:, 0] = sims
    data[np.arange(sims.size), np.arange(1, dim)] = np.sqrt(1.0 - sims**2)
    n_id = len(sim_id)
    ids = LabelSpace(
        labels=tuple(f"label_{i}" for i in range(n_id)),
        features=EmbeddingMatrix(tuple(f"t{i}" for i in range(n_id)), data[:n_id]),
    )
    neg = space_of([f"neg_{j}" for j in range(len(sim_neg))], data[n_id:])
    image = np.eye(1, dim)
    cfg = ScoreConfig(temperature=temperature, group_size=len(sim_neg))
    return float(grouped_scores_batch(image, ids, neg, cfg)[0])


class TestSoftmaxScore:
    """With its negatives in one group, the grouped score is the softmax
    ratio of the ID labels' mass."""

    def test_hand_value_tau_one(self):
        # sim_id [0.3, 0.1], sim_neg [0.2], tau = 1
        expected = softmax_score_oracle([0.3, 0.1], [0.2], 1.0)
        got = one_group_score([0.3, 0.1], [0.2], 1.0)
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.6678, abs=5e-5)

    def test_bad_temperature_rejected(self):
        for bad in (-1.0, float("nan"), float("inf"), 1e-320, 6e-309):
            with pytest.raises(ConfigError):
                one_group_score([0.5], [0.2], bad)

    @given(
        seed=st.integers(0, 2**32 - 1),
        tau=st.sampled_from([0.01, 0.1, 1.0]),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_oracle_and_range(self, seed, tau):
        rng = np.random.default_rng(seed)
        sim_id = rng.uniform(-1, 1, rng.integers(1, 8))
        sim_neg = rng.uniform(-1, 1, rng.integers(1, 30))
        got = one_group_score(sim_id, sim_neg, tau)
        assert 0.0 < got <= 1.0
        assert got == pytest.approx(
            softmax_score_oracle(sim_id, sim_neg, tau), rel=1e-12, abs=1e-300
        )

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_adding_a_negative_lowers_the_score(self, seed):
        rng = np.random.default_rng(seed)
        sim_id = rng.uniform(-1, 1, 3)
        sim_neg = list(rng.uniform(-1, 1, 5))
        before = one_group_score(sim_id, sim_neg, 0.1)
        after = one_group_score(sim_id, sim_neg + [0.9], 0.1)
        assert after < before


class TestGroupedScore:
    def test_single_group_reduces_to_softmax(self, label_space):
        neg = make_negative_space(m=5, seed=11)
        rng = np.random.default_rng(12)
        v = unit_rows(rng, 1, 8)[0]
        direct = softmax_score_oracle(
            label_space.features.data @ v, neg.stored_rows() @ v, 0.01
        )
        got = grouped_scores_batch(
            v[None, :], label_space, neg, ScoreConfig(group_size=5)
        )[0]
        assert got == pytest.approx(direct, abs=1e-12)

    def test_batch_matches_scalar_path(self, label_space):
        # a row scores the same in a batch as on its own
        neg = make_negative_space(m=12, seed=13)
        rng = np.random.default_rng(14)
        images = unit_rows(rng, 6, 8)
        cfg = ScoreConfig(group_size=4)
        batch = grouped_scores_batch(images, label_space, neg, cfg)
        for i in range(6):
            assert batch[i] == pytest.approx(
                grouped_scores_batch(images[i : i + 1], label_space, neg, cfg)[0],
                abs=1e-12,
            )

    def test_group_size_comes_from_the_config(self, label_space):
        neg = make_negative_space(m=24, seed=15)
        images = unit_rows(np.random.default_rng(16), 5, 8)
        by_size = {}
        for g in (4, 12):
            cfg = ScoreConfig(group_size=g)
            by_size[g] = grouped_scores_batch(images, label_space, neg, cfg)
            for v, score in zip(images, by_size[g]):
                assert score == pytest.approx(
                    grouped_score_oracle(v, label_space, neg, cfg), rel=1e-9
                )
        assert not np.allclose(by_size[4], by_size[12], rtol=1e-6, atol=0.0)

    @given(m=st.integers(1, 50), g=st.integers(1, 20))
    @settings(max_examples=50, deadline=None)
    def test_groups_cut_the_space_in_order(self, m, g):
        # one softmax ratio per run of g consecutive negatives, the last run
        # holding the rest, averaged
        ids = make_label_space()
        neg = make_negative_space(m=m, seed=m)
        v = unit_rows(np.random.default_rng(g), 1, 8)[0]
        sim_id, sim_neg = ids.features.data @ v, neg.stored_rows() @ v
        shares = [
            softmax_score_oracle(sim_id, sim_neg[k : k + g], 0.01)
            for k in range(0, m, g)
        ]
        assert len(shares) == -(-m // g)
        cfg = ScoreConfig(group_size=g)
        got = grouped_scores_batch(v[None, :], ids, neg, cfg)[0]
        assert got == pytest.approx(np.mean(shares), rel=1e-9)
        assert got == pytest.approx(grouped_score_oracle(v, ids, neg, cfg), rel=1e-9)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_longdouble_oracle(self, seed):
        rng = np.random.default_rng(seed)
        ids = make_label_space(n=int(rng.integers(1, 6)), dim=8, seed=seed)
        m = int(rng.integers(1, 40))
        group_size = int(rng.integers(1, 12))
        neg = make_negative_space(m=m, seed=seed + 1)
        cfg = ScoreConfig(
            temperature=float(rng.choice([0.01, 0.1, 1.0])), group_size=group_size
        )
        v = unit_rows(rng, 1, 8)[0]
        got = grouped_scores_batch(v[None, :], ids, neg, cfg)[0]
        assert 0.0 < got <= 1.0
        assert got == pytest.approx(
            grouped_score_oracle(v, ids, neg, cfg), rel=1e-9
        )


class TestDistinctRows:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_repeated_texts_match_longdouble_oracle(self, seed):
        rng = np.random.default_rng(seed)
        distinct = int(rng.integers(1, 8))
        base = unit_rows(rng, distinct, 8)
        counts = rng.integers(1, 6, distinct)
        order = rng.permutation(np.repeat(np.arange(distinct), counts))
        m = order.size
        group_size = int(rng.integers(1, m + 2))
        while m % group_size == 0:  # a ragged last group
            group_size += 1
        neg = NegativeSpace.from_rows(
            [f"sentence {j}" for j in order], base[order]
        )
        assert neg.rows.shape[0] == distinct
        assert (neg.inverse is None) == (distinct == m)
        assert np.array_equal(neg.stored_rows(), base[order])
        ids = make_label_space(n=int(rng.integers(1, 6)), dim=8, seed=seed)
        cfg = ScoreConfig(
            temperature=float(rng.choice([0.01, 0.1, 1.0])), group_size=group_size
        )
        images = unit_rows(rng, 3, 8)
        got = grouped_scores_batch(images, ids, neg, cfg)
        for v, score in zip(images, got):
            assert score == pytest.approx(
                grouped_score_oracle(v, ids, neg, cfg), abs=1e-12
            )

    @pytest.mark.parametrize("data", [
        [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]],  # a different row
        [[1.0, 0.0], [0.0, 1.0], [1.0, -0.0]],  # equal in value, not in bytes
    ])
    def test_repeated_text_with_a_different_row_is_not_merged(self, data):
        neg = space_of(["a", "b", "a"], data)
        assert neg.inverse is None
        assert neg.rows.tobytes() == np.array(data).tobytes()

    def test_only_byte_equal_repeats_merge(self):
        neg = space_of(["a", "a", "b", "a"], [[1, 0], [1, 0], [0, 1], [0.6, 0.8]])
        assert np.array_equal(neg.rows, [[1, 0], [0, 1], [0.6, 0.8]])
        assert neg.inverse.tolist() == [0, 0, 1, 2]

    def test_rows_differing_only_in_scale_stay_apart_with_unchanged_scores(
        self, label_space
    ):
        rng = np.random.default_rng(24)
        v, w = rng.standard_normal((2, 8))  # not unit norm
        # 2v normalizes to v's unit row byte for byte, yet as given the rows
        # differ: it keeps its own row, and only the byte-equal repeat merges
        neg = space_of(["a", "b", "a", "a"], [v, w, 2 * v, v])
        assert neg.rows.shape[0] == 3
        assert neg.inverse.tolist() == [0, 1, 2, 0]
        assert neg.rows[0].tobytes() == neg.rows[2].tobytes()
        merged = NegativeSpace(neg.texts, neg.rows[:2], np.array([0, 1, 0, 0]))
        assert neg.stored_rows().tobytes() == merged.stored_rows().tobytes()
        images = unit_rows(rng, 9, 8)
        cfg = ScoreConfig(group_size=2)
        assert np.array_equal(
            grouped_scores_batch(images, label_space, neg, cfg),
            grouped_scores_batch(images, label_space, merged, cfg),
        )

    def test_all_distinct_space_keeps_stored_rows_and_full_product_scores(
        self, label_space
    ):
        neg = make_negative_space(m=23, seed=21)
        assert neg.inverse is None and neg.rows.shape[0] == 23
        images = unit_rows(np.random.default_rng(22), 7, 8)
        cfg = ScoreConfig(group_size=5)
        assert np.array_equal(
            grouped_scores_batch(images, label_space, neg, cfg),
            full_product_scores(images, label_space, neg, cfg),
        )

    def test_id_part_predictions_equal_classify_batch(self, label_space):
        images = unit_rows(np.random.default_rng(23), 50, 8)
        rows = label_space.features.data
        tied = LabelSpace(  # labels 0 and 2 share a row: ties go to 0
            labels=("a", "b", "c"),
            features=EmbeddingMatrix(ids=("x", "y", "z"), data=rows[[1, 0, 1]]),
        )
        for ids in (label_space, tied):
            _, predictions = id_part(images, ids, ScoreConfig())
            assert np.array_equal(predictions, classify_batch(images, ids))
        assert 0 in predictions and 2 not in predictions


class TestGroupReductions:
    """A repeated-row space gets every group's sum from one product of its
    exponentiated distinct columns, shifted once per row, with a count
    matrix; an all-distinct space reduces its groups in place, each group
    shifted by its own maximum. Both sum the group shares in group order."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("tau, counted", [(0.01, True), (1e-3, False)])
    def test_repeated_rows_match_longdouble_oracle(self, monkeypatch, tau, counted):
        # each image's own row opens a group and its negation fills the
        # next: at tau = 1e-3 that group lies 2000 below the row maximum,
        # where one shift per row underflows it and its log is -inf
        rng = np.random.default_rng(51)
        images = unit_rows(rng, 4, 8)
        base = np.vstack([images, -images, unit_rows(rng, 8, 8)])
        order = [9, 9, 12]  # the ragged last group
        for i in reversed(range(4)):
            order = [i, *rng.integers(8, 16, 3).tolist(), *[4 + i] * 4, *order]
        neg = NegativeSpace.from_rows([f"sentence {j}" for j in order], base[order])
        assert neg.rows.shape[0] < 16 < neg.size
        ids = make_label_space(n=5, dim=8, seed=52)
        cfg = ScoreConfig(temperature=tau, group_size=4)
        calls = []
        counts = scoring._group_counts
        monkeypatch.setattr(
            scoring, "_group_counts", lambda *args: calls.append(1) or counts(*args)
        )
        got = grouped_scores_batch(images, ids, neg, cfg)
        assert bool(calls) == counted  # 2 / tau above ROW_SHIFT_SPAN gathers
        for v, score in zip(images, got):
            assert score == pytest.approx(
                grouped_score_oracle(v, ids, neg, cfg), rel=0, abs=4e-15
            )
        full = full_product_scores(images, ids, neg, cfg)
        assert np.allclose(got, full, rtol=0, atol=2e-15)

    def test_paper_shape_sentence_space_is_bit_equal_on_any_worker_count(
        self, monkeypatch
    ):
        # dim 512, 1,000 images, 10,000 texts over 264 distinct rows,
        # groups of 100: the product and the count product both split
        rng = np.random.default_rng(53)
        base = unit_rows(rng, 264, 512)
        order = rng.permutation(
            np.concatenate([np.arange(264), rng.integers(0, 264, 10000 - 264)])
        )
        neg = NegativeSpace.from_rows([f"sentence {j}" for j in order], base[order])
        assert neg.rows.shape[0] == 264
        ids = make_label_space(n=64, dim=512, seed=54)
        images = unit_rows(rng, 1000, 512)
        cfg = ScoreConfig()
        lse_id, _ = id_part(images, ids, cfg)
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(scoring, "SCORE_WORKERS", workers)
            assert len(scoring._row_blocks(1000, 264, 1000 * 10000)) == workers
            results.append(negative_scores(images, lse_id, neg, cfg))
        for got in results[1:]:
            assert np.array_equal(results[0], got)

    @pytest.mark.parametrize("tau", [0.01, 0.1])
    def test_group_mean_sums_in_group_order(self, label_space, tau):
        # 100 groups: a pairwise sum of the shares rounds otherwise
        neg = make_negative_space(m=300, seed=61)
        images = unit_rows(np.random.default_rng(62), 20, 8)
        cfg = ScoreConfig(temperature=tau, group_size=3)
        shares = group_shares(images, label_space, neg, cfg)
        in_order = full_product_scores(images, label_space, neg, cfg)
        assert not np.array_equal(shares.sum(axis=1) / 100, in_order)
        got = grouped_scores_batch(images, label_space, neg, cfg)
        assert np.array_equal(got, in_order)


def repeated_space(rng, distinct, dim):
    """A sentence-like space: `distinct` rows, each repeated 1-3 times."""
    base = unit_rows(rng, distinct, dim)
    order = rng.permutation(np.repeat(np.arange(distinct), rng.integers(1, 4, distinct)))
    return NegativeSpace.from_rows([f"sentence {j}" for j in order], base[order])


class TestRowBlocks:
    """Scores split into row blocks across threads equal the one-block scores."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        n_classes=st.sampled_from([5, 64, 72, 131]),
        distinct=st.sampled_from([7, 64, 80, 129, 203]),
        repeats=st.booleans(),
    )
    @example(seed=0, n=3, n_classes=131, distinct=203, repeats=False)
    @example(seed=1, n=300, n_classes=131, distinct=203, repeats=True)
    @settings(max_examples=40, deadline=None)
    def test_any_worker_count_gives_equal_scores(
        self, seed, n, n_classes, distinct, repeats
    ):
        rng = np.random.default_rng(seed)
        dim = 64  # at a small dim every split happens to round alike
        ids = make_label_space(n=n_classes, dim=dim, seed=seed)
        if repeats:  # the `inverse` path
            neg = repeated_space(rng, distinct, dim)
        else:
            neg = make_negative_space(m=distinct, dim=dim, seed=seed)
        cfg = ScoreConfig(temperature=float(rng.choice([0.01, 1.0])), group_size=9)
        images = unit_rows(rng, n, dim)
        results = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scoring, "MIN_SPLIT_CELLS", 1)
            for workers in (1, 2, 3):
                mp.setattr(scoring, "SCORE_WORKERS", workers)
                lse_id, predictions = id_part(images, ids, cfg)
                results.append(
                    (lse_id, predictions, negative_scores(images, lse_id, neg, cfg))
                )
        for got in results[1:]:
            for a, b in zip(results[0], got):
                assert np.array_equal(a, b)
                assert a.dtype == b.dtype

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_no_block_below_the_minimum(self, monkeypatch, workers):
        monkeypatch.setattr(scoring, "SCORE_WORKERS", workers)
        big = scoring.MIN_SPLIT_CELLS
        for n in range(0, 700):
            for width in (8, 63, 64, 100, 1000):
                for cells in (big - 1, big):
                    blocks = scoring._row_blocks(n, width, cells)
                    lows, highs = zip(*blocks)
                    assert lows[0] == 0 and highs[-1] == n
                    assert list(lows[1:]) == list(highs[:-1])
                    assert len(blocks) <= workers
                    splittable = cells >= big and width >= 64 and width % 8 == 0
                    if len(blocks) > 1:
                        assert splittable
                        assert min(hi - lo for lo, hi in blocks) >= scoring.MIN_BLOCK_ROWS
                    elif splittable and workers > 1:
                        assert n < 2 * scoring.MIN_BLOCK_ROWS

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_a_failing_block_raises_its_exception_after_every_block_stops(
        self, monkeypatch, failing
    ):
        monkeypatch.setattr(scoring, "MIN_SPLIT_CELLS", 1)
        ids = make_label_space(n=64, dim=8, seed=31)
        neg = make_negative_space(m=64, dim=8, seed=32)
        images = unit_rows(np.random.default_rng(33), 200, 8)
        cfg = ScoreConfig()
        lse_id, _ = id_part(images, ids, cfg)
        boom = RuntimeError("block failed")
        finished = []
        logsumexp = scoring._logsumexp_rows

        def flaky(scaled):
            in_caller = threading.current_thread() is threading.main_thread()
            if in_caller == (failing == "caller"):
                raise boom
            time.sleep(0.05)  # the other block is still running when one fails
            finished.append(threading.current_thread().name)
            return logsumexp(scaled)

        baseline = threading.active_count()
        monkeypatch.setattr(scoring, "_logsumexp_rows", flaky)
        for call in (
            lambda: id_part(images, ids, cfg),
            lambda: negative_scores(images, lse_id, neg, cfg),
        ):
            finished.clear()
            with pytest.raises(RuntimeError) as excinfo:
                call()
            assert excinfo.value is boom
            assert threading.active_count() == baseline
            if failing == "caller":  # the worker's block ran to its end
                assert finished and len(set(finished)) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("min_cells", [1, 2**62])
    def test_tiny_temperature_scores_stay_in_range_silently(
        self, monkeypatch, min_cells
    ):
        # with a negative row equal to an image row, exp(lse_neg - lse_id)
        # overflows at tau = 1e-300; the group's share goes to its limit 0
        monkeypatch.setattr(scoring, "MIN_SPLIT_CELLS", min_cells)
        rng = np.random.default_rng(34)
        images = unit_rows(rng, 150, 8)
        ids = make_label_space(n=64, dim=8, seed=35)
        data = np.vstack([images[:48], unit_rows(rng, 48, 8)])
        # all 96 rows distinct, then 120 texts over them (the first 24 twice)
        for order in (np.arange(96), np.arange(120) % 96):
            neg = NegativeSpace.from_rows([f"neg_{i}" for i in order], data[order])
            assert neg.rows.shape[0] == 96
            assert (neg.inverse is None) == (order.size == 96)
            assert len(scoring._row_blocks(150, 96, 150 * neg.size)) == (
                2 if min_cells == 1 else 1
            )
            cfg = ScoreConfig(temperature=1e-300, group_size=16)
            scores = grouped_scores_batch(images, ids, neg, cfg)
            assert np.all((scores >= 0.0) & (scores <= 1.0))


def tile_grid(runs: list, n: int, width: int) -> dict:
    """Row run `(start, rows)` -> its tiles' `(start, columns)` in the order
    they were made, from `TestWalkedScores.record_runs`; asserts that the
    row runs cover the n rows once and each run's tiles its width once,
    from left to right."""
    grid = {}
    for row, rows, col, cols, _ in runs:
        grid.setdefault((row, rows), []).append((col, cols))
    row_runs = sorted(grid)
    assert [r for r, _ in row_runs] == [0] + [r + k for r, k in row_runs[:-1]]
    assert sum(k for _, k in row_runs) == n
    for tiles in grid.values():
        assert [c for c, _ in tiles] == [0] + [c + k for c, k in tiles[:-1]]
        assert sum(k for _, k in tiles) == width
    return grid


class TestWalkedScores:
    """The ID and score products are walked in tiles, as the selection's is:
    their scores equal one unsplit product's and each worker holds one
    tile-sized buffer. Only an all-distinct space's tiles are narrower than
    the product: each holds whole groups, the last may end in the ragged one."""

    @staticmethod
    def record_runs(monkeypatch) -> list:
        """(row start, rows, column start, columns, buffer) of every product
        the scorer makes, the starts read from the operands' offsets."""
        runs = []
        matmul = np.matmul

        def recorded(a, b, out):
            row = (a.ctypes.data - a.base.ctypes.data) // a.strides[0]
            col = (b.ctypes.data - b.base.ctypes.data) // b.strides[1]
            rows, cols = out.shape
            runs.append((row, rows, col, cols, id(out.base)))
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", recorded)
        return runs

    CASES = [
        (10000, 10000, 880, None, (440, 1000)),  # ten tiles per worker
        (10000, 10000, 880, 100 * 200, (100, 200)),  # a 40-row tail joins its run
        (1040, 1040, 460, 230 * 200, (230, 200)),  # a 40-column tail joins its tile
        (200, 200, 460, 100 * 200, (100, 200)),  # one group unit wide: row runs
        (203, 203, 460, 100 * 203, (460, 203)),  # a width not a multiple of 8: one run
        (400, 200, 460, 100 * 200, (100, 200)),  # the count path: whole-width runs
    ]

    @pytest.mark.parametrize(
        "m, distinct, n, block_cells, tile", CASES,
        ids=["-".join(map(str, case[:4])) for case in CASES],
    )
    def test_equal_one_unsplit_product(
        self, monkeypatch, m, distinct, n, block_cells, tile
    ):
        monkeypatch.setattr(scoring, "MIN_SPLIT_CELLS", 1)
        if block_cells is not None:
            monkeypatch.setattr(scoring, "BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(71)
        dim = 64
        ids = make_label_space(n=200, dim=dim, seed=72)
        base = unit_rows(rng, distinct, dim)
        order = np.concatenate([np.arange(distinct), rng.integers(0, distinct, m - distinct)])
        neg = NegativeSpace.from_rows([f"neg_{j}" for j in order], base[order])
        assert neg.rows.shape[0] == distinct and (neg.inverse is None) == (m == distinct)
        images = unit_rows(rng, n, dim)
        cfg = ScoreConfig()
        runs = self.record_runs(monkeypatch)
        lse_id, predictions = id_part(images, ids, cfg)
        id_runs = runs[:]
        runs.clear()
        scores = negative_scores(images, lse_id, neg, cfg)
        neg_runs = runs[:]

        sims = images @ ids.features.data.T
        assert np.array_equal(predictions, np.argmax(sims, axis=1))
        sims /= cfg.temperature
        assert np.array_equal(lse_id, scoring._logsumexp_rows(sims))
        if neg.inverse is None:
            assert np.array_equal(scores, full_product_scores(images, ids, neg, cfg))
        monkeypatch.setattr(scoring, "SCORE_WORKERS", 1)
        monkeypatch.setattr(scoring, "BLOCK_CELLS", n * distinct)
        assert np.array_equal(scores, negative_scores(images, lse_id, neg, cfg))
        assert [r[:4] for r in runs[len(neg_runs):]] == [(0, n, 0, distinct)]  # one run

        for products, width in ((id_runs, 200), (neg_runs, distinct)):
            tile_grid(products, n, width)
            if width % scoring.WIDTH_MULTIPLE:
                assert len(products) == 1
                continue
            assert len({run[4] for run in products}) == 2  # one buffer per worker
            assert min(run[1] for run in products) >= scoring.MIN_BLOCK_ROWS
        assert {cols for _, _, _, cols, _ in id_runs} == {200}  # rows reduced whole
        # each worker's first tile is one step; only a short tail makes one larger
        first = [
            (rows, cols) for row, rows, col, cols, _ in neg_runs
            if row in (0, n // 2) and col == 0
        ]
        assert first == [tile] * len(first)
        assert max(rows for _, rows, _, _, _ in neg_runs) < tile[0] + scoring.MIN_BLOCK_ROWS
        assert max(cols for _, _, _, cols, _ in neg_runs) < tile[1] + scoring.MIN_BLOCK_ROWS

    @given(
        n=st.integers(64, 1000),
        width=st.integers(8, 375).map(lambda k: 8 * k),
        group=st.integers(1, 150),
        block_cells=st.sampled_from([64 * 64, 100 * 300, 1 << 16]),
        workers=st.integers(1, 3),
    )
    @example(n=880, width=1040, group=100, block_cells=230 * 200, workers=2)
    @settings(max_examples=60, deadline=None)
    def test_tiles_keep_the_rule(self, n, width, group, block_cells, workers):
        # every tile at least MIN_BLOCK_ROWS rows and columns, starting on
        # its block's row step and on a column step of whole group units;
        # only a short tail is narrower or wider than the step
        unit = math.lcm(group, scoring.WIDTH_MULTIPLE)
        rng = np.random.default_rng(n * width + group)
        neg = make_negative_space(m=width, dim=8, seed=group)
        images = unit_rows(rng, n, 8)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scoring, "MIN_SPLIT_CELLS", 1)
            mp.setattr(scoring, "BLOCK_CELLS", block_cells)
            mp.setattr(scoring, "SCORE_WORKERS", workers)
            runs = self.record_runs(mp)
            negative_scores(images, np.zeros(n), neg, ScoreConfig(group_size=group))
            blocks = scoring._row_blocks(n, width, n * width)
        grid = tile_grid(runs, n, width)
        assert len({run[4] for run in runs}) == len(blocks)
        if width < scoring.MIN_BLOCK_ROWS:  # the rule cannot split it
            assert list(grid) == [(0, n)]
            return
        for lo, hi in blocks:
            row_runs = sorted(key for key in grid if lo <= key[0] < hi)
            row_step = row_runs[0][1]
            assert all((row - lo) % row_step == 0 for row, _ in row_runs)
            assert all(
                scoring.MIN_BLOCK_ROWS <= rows < row_step + scoring.MIN_BLOCK_ROWS
                for _, rows in row_runs
            )
            for key in row_runs:
                tiles = grid[key]
                col_step = tiles[0][1]
                assert col_step == width or col_step % unit == 0
                assert all(col % col_step == 0 for col, _ in tiles)
                assert all(
                    scoring.MIN_BLOCK_ROWS <= cols < col_step + scoring.MIN_BLOCK_ROWS
                    for _, cols in tiles
                )
                assert tiles == grid[row_runs[0]]  # one column walk per block

    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(8, 768),
        n=st.integers(64, 1000),
        width=st.integers(8, 375).map(lambda k: 8 * k),
        group=st.integers(3, 300),
        block_cells=st.sampled_from([64 * 64, 100 * 300, 1 << 16]),
    )
    @settings(max_examples=25, deadline=None)
    def test_tiles_equal_the_full_product(
        self, seed, dim, n, width, group, block_cells
    ):
        # a ragged last group in a tile of its own or joined to whole ones
        assume(width % group)
        rng = np.random.default_rng(seed)
        ids = make_label_space(n=64, dim=dim, seed=seed)
        neg = make_negative_space(m=width, dim=dim, seed=seed + 1)
        images = unit_rows(rng, n, dim)
        cfg = ScoreConfig(temperature=float(rng.choice([0.01, 1.0])), group_size=group)
        expected = full_product_scores(images, ids, neg, cfg)
        lse_id, _ = id_part(images, ids, cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scoring, "MIN_SPLIT_CELLS", 1)
            mp.setattr(scoring, "BLOCK_CELLS", block_cells)
            for workers in (1, 2, 3):
                mp.setattr(scoring, "SCORE_WORKERS", workers)
                got = negative_scores(images, lse_id, neg, cfg)
                assert got.tobytes() == expected.tobytes(), workers

    def test_paper_shape_scores_hold_one_run_per_worker(self):
        # 1,000 images x 10,000 negatives: the whole product is 80 MB
        neg = make_negative_space(m=10000, dim=16, seed=73)
        ids = make_label_space(n=1000, dim=16, seed=74)
        images = unit_rows(np.random.default_rng(75), 1000, 16)
        lse_id, _ = id_part(images, ids, ScoreConfig())
        tracemalloc.start()
        try:
            scores = negative_scores(images, lse_id, neg, ScoreConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * scoring.BLOCK_CELLS * 8 + scores.nbytes

    def test_checkpoint_rebuild_holds_one_tile_per_worker(self, monkeypatch):
        # 20,000 cache rows against 10,000 word-space rows in groups of 100:
        # each worker's 10,000 rows are cut into row runs too, so a tile
        # stays within the budget; the products are not computed
        runs = []
        monkeypatch.setattr(np, "matmul", lambda a, b, out: runs.append(out.shape) or out)
        rows, cols = np.zeros((20000, 8)), np.zeros((10000, 8))
        tracemalloc.start()
        try:
            scoring._blockwise(rows, cols, rows.size, lambda *args: None, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(r * c for r, c in runs) == 20000 * 10000
        assert max(r * c for r, c in runs) <= scoring.BLOCK_CELLS
        assert peak < 2.5 * scoring.BLOCK_CELLS * 8


class TestMaxLabelSimilarity:
    """The word-space selection's product, walked in blocks on the workers,
    equals the one product bit for bit and is never held whole."""

    # 100 rows per block at 72 labels: with 777 rows, three workers' blocks
    # of 259 rows end in a 59-row tail that joins the block before it
    CELLS = 100 * 72

    @pytest.mark.parametrize("n_classes", [72, 75])
    @pytest.mark.parametrize("n", [1, 63, 64, 130, 777])
    def test_equals_the_one_product(self, monkeypatch, n_classes, n):
        monkeypatch.setattr(scoring, "MIN_SPLIT_CELLS", 1)
        monkeypatch.setattr(scoring, "BLOCK_CELLS", self.CELLS)
        ids = make_label_space(n=n_classes, dim=64, seed=41)
        rows = unit_rows(np.random.default_rng(42), n, 64)
        expected = np.max(rows @ ids.features.data.T, axis=1)
        for workers in (1, 2, 3):
            monkeypatch.setattr(scoring, "SCORE_WORKERS", workers)
            got = max_label_similarity(rows, ids)
            assert got.tobytes() == expected.tobytes(), workers

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_blocks_keep_the_minimum_and_hold_one_block(self, monkeypatch, workers):
        monkeypatch.setattr(scoring, "MIN_SPLIT_CELLS", 1)
        monkeypatch.setattr(scoring, "BLOCK_CELLS", self.CELLS)
        monkeypatch.setattr(scoring, "SCORE_WORKERS", workers)
        n, width = 777, 72
        step = self.CELLS // width
        ids = make_label_space(n=width, dim=64, seed=43)
        rows = unit_rows(np.random.default_rng(44), n, 64)
        products, buffers = [], []
        matmul = np.matmul

        def recorded(a, b, out):
            products.append(out.shape[0])
            buffers.append(out.base.shape)
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", recorded)
        tracemalloc.start()
        try:
            max_label_similarity(rows, ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(products) == n and len(buffers) > workers
        assert min(products) >= scoring.MIN_BLOCK_ROWS
        assert max(products) < step + scoring.MIN_BLOCK_ROWS
        assert len(set(buffers)) <= workers
        assert all(shape[0] < step + scoring.MIN_BLOCK_ROWS for shape in buffers)
        if workers == 3:
            assert step < max(products)  # a short tail joined its block
        # one block's product per worker; the whole product is never allocated
        assert peak < n * width * 8

    @pytest.mark.parametrize("n_classes", [56, 75])
    def test_label_count_the_rules_cannot_split_keeps_one_product(
        self, monkeypatch, n_classes
    ):
        # a block of a ragged-width or narrow product can round otherwise
        monkeypatch.setattr(scoring, "MIN_SPLIT_CELLS", 1)
        monkeypatch.setattr(scoring, "BLOCK_CELLS", self.CELLS)
        products = []
        matmul = np.matmul
        monkeypatch.setattr(
            np, "matmul", lambda a, b, out: products.append(out.shape) or matmul(a, b, out=out)
        )
        ids = make_label_space(n=n_classes, dim=64, seed=46)
        rows = unit_rows(np.random.default_rng(47), 777, 64)
        expected = np.max(rows @ ids.features.data.T, axis=1)
        assert max_label_similarity(rows, ids).tobytes() == expected.tobytes()
        assert products == [(777, n_classes)]

    def test_dim_mismatch_rejected(self):
        ids = make_label_space(n=64, dim=8, seed=45)
        with pytest.raises(DataError):
            max_label_similarity(np.zeros((3, 4)), ids)


class TestAdaptiveLambda:
    def test_hand_values_exact(self):
        assert adaptive_lambda([0.2], [0.8]) == 0.8
        assert adaptive_lambda([0.9], [0.1]) == pytest.approx(0.1, abs=1e-15)

    def test_equal_means_give_half(self):
        for a in (0.0, 0.3, 0.999):
            assert adaptive_lambda([a], [a]) == 0.5

    def test_degenerate_both_one(self):
        assert adaptive_lambda([1.0, 1.0], [1.0, 1.0]) == 0.5

    def test_errors(self):
        with pytest.raises(InputError):
            adaptive_lambda([], [])
        with pytest.raises(InputError):
            adaptive_lambda([0.5], [0.5, 0.5])

    @given(
        a=st.floats(0.01, 0.99),
        b=st.floats(0.01, 0.99),
        eps=st.floats(1e-6, 1e-3),
    )
    def test_strictly_decreasing_in_ens_mean(self, a, b, eps):
        if a + eps >= 1.0:
            return
        assert adaptive_lambda([a + eps], [b]) < adaptive_lambda([a], [b])

    @given(
        a=st.floats(0.01, 0.99),
        b=st.floats(0.01, 0.99),
        eps=st.floats(1e-6, 1e-3),
    )
    def test_strictly_increasing_in_vsnl_mean(self, a, b, eps):
        if b + eps >= 1.0:
            return
        assert adaptive_lambda([a], [b + eps]) > adaptive_lambda([a], [b])


class TestFusedScore:
    def test_endpoints_exact(self):
        assert fused_score(0.123456, 0.654321, 1.0) == 0.123456
        assert fused_score(0.123456, 0.654321, 0.0) == 0.654321

    def test_hand_value(self):
        assert fused_score(0.8, 0.4, 0.25) == pytest.approx(0.5, abs=1e-15)

    def test_out_of_range_lambda_rejected(self):
        with pytest.raises(InputError):
            fused_score(0.5, 0.5, 1.5)
