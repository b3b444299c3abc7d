"""Score functions against extended-precision oracles and hand traces."""
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
from negtext.spaces import CorpusCandidates, select_initial_nls

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


def padded_product(rows, cols):
    """`rows @ cols.T` as one product over `cols` padded with zero rows to
    `scoring._padded` of their count, the padding's columns dropped: the
    scorer pads every product so, and its tiles round as this product."""
    pad = np.zeros((scoring._padded(cols.shape[0]) - cols.shape[0], cols.shape[1]))
    return (rows @ np.vstack([cols, pad]).T)[:, : cols.shape[0]]


def numpy_blas() -> str:
    """The BLAS numpy was built with, as its build config names it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 2 only prints its config
        return "a BLAS numpy does not name"


def group_shares(images, ids, neg, cfg):
    """(images x groups) per-group scores from one product over every
    stored negative row (zero-padded, see `padded_product`)."""
    tau = cfg.temperature

    def lse(sims):
        scaled = sims / tau
        shift = np.max(scaled, axis=1, keepdims=True)
        return shift[:, 0] + np.log(np.sum(np.exp(scaled - shift), axis=1))

    lse_id = lse(padded_product(images, ids.features.data))
    sim_neg = padded_product(images, neg.stored_rows())
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
    matrix; every other space (and a repeated-row one above ROW_SHIFT_SPAN)
    reduces its groups in place, each group shifted by its own maximum.
    Both sum the group shares in group order."""

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
    """Scores made by any number of score workers equal the one-worker
    scores."""

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
            time.sleep(0.05)  # the other part is still running when one fails
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
            if failing == "caller":  # the worker's part ran to its end
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
            cfg = ScoreConfig(temperature=1e-300, group_size=16)
            scores = grouped_scores_batch(images, ids, neg, cfg)
            assert np.all((scores >= 0.0) & (scores <= 1.0))


class TestWalkedScores:
    """The ID and score products are walked in tiles, as the selection's is:
    their results equal one padded product's bit for bit (see
    `padded_product`), and the memory held stays under bounds far below the
    whole product."""

    @pytest.mark.parametrize("width", [75, 1000, 1001])
    def test_tiles_of_a_padded_product_round_as_the_whole(self, width):
        # the premise of every tile rule in `scoring`: a tile of at least
        # MIN_BLOCK_ROWS rows and columns, its columns starting and ending on
        # multiples of WIDTH_MULTIPLE, rounds as the same cells of the whole
        # padded product. It holds for the BLAS it was measured on; on any
        # other this test, not the score tests, should be the one to fail
        rng = np.random.default_rng(width)
        n, dim, least, step = 1000, 512, scoring.MIN_BLOCK_ROWS, scoring.WIDTH_MULTIPLE
        padded = scoring._padded(width)
        rows = unit_rows(rng, n, dim)
        cols = np.vstack([unit_rows(rng, width, dim), np.zeros((padded - width, dim))])
        whole = rows @ cols.T
        for _ in range(40):
            lo = int(rng.integers(0, n - least + 1))
            hi = int(rng.integers(lo + least, n + 1))
            start = step * int(rng.integers(0, (padded - least) // step + 1))
            stop = step * int(rng.integers((start + least) // step, padded // step + 1))
            tile = np.empty((hi - lo, stop - start))
            np.matmul(rows[lo:hi], cols[start:stop].T, out=tile)
            assert tile.tobytes() == whole[lo:hi, start:stop].tobytes(), (
                f"rows {lo}:{hi}, columns {start}:{stop} of a {n} x {padded} product "
                f"round otherwise than the whole product under numpy "
                f"{np.__version__} with {numpy_blas()}; the tile rules in `scoring` "
                f"were measured with numpy 2.4.6 and OpenBLAS 0.3.31"
            )

    CASES = [
        (10000, 10000, 880, None),  # paper width at the default budget
        (10000, 10000, 880, 100 * 200),  # a budget of 20,000 cells
        (1040, 1040, 460, 230 * 200),  # a ragged last group of 40 texts
        (200, 200, 460, 100 * 200),  # two groups
        (203, 203, 460, 100 * 203),  # padded to 208, a ragged last group of 3
        (400, 200, 460, 100 * 200),  # 400 texts over 200 rows: the count product
    ]

    @pytest.mark.parametrize("m, distinct, n, block_cells", CASES,
                             ids=["-".join(map(str, case)) for case in CASES])
    def test_equal_one_unsplit_product(self, monkeypatch, m, distinct, n, block_cells):
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
        lse_id, predictions = id_part(images, ids, cfg)
        scores = negative_scores(images, lse_id, neg, cfg)

        sims = images @ ids.features.data.T
        assert np.array_equal(predictions, np.argmax(sims, axis=1))
        sims /= cfg.temperature
        assert np.array_equal(lse_id, scoring._logsumexp_rows(sims))
        if neg.inverse is None:
            assert np.array_equal(scores, full_product_scores(images, ids, neg, cfg))
        # one worker and a budget past the product: one tile
        monkeypatch.setattr(scoring, "SCORE_WORKERS", 1)
        monkeypatch.setattr(scoring, "BLOCK_CELLS", 1 << 62)
        assert np.array_equal(scores, negative_scores(images, lse_id, neg, cfg))

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

    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(8, 512),
        n=st.integers(1, 700),
        width=st.one_of(
            st.integers(8, 190).map(lambda k: 8 * k), st.integers(1, 1500)
        ),
        group=st.integers(3, 300),
        block_cells=st.sampled_from([64 * 64, 100 * 300, 1 << 16]),
        temperature=st.sampled_from([0.01, 0.001]),
    )
    @settings(max_examples=30, deadline=None)
    def test_selection_scores_equal_its_stored_copy(
        self, seed, dim, n, width, group, block_cells, temperature
    ):
        # the word space selects its rows from a corpus with an ID word
        # filtered out; each column tile is gathered, at temperatures on both
        # sides of ROW_SHIFT_SPAN, and its products are those of the copy.
        # Above the span a repeated-row space is gathered so too, and scores
        # as its expanded copy, one stored row per text
        assume(width % group)  # a ragged last group
        rng = np.random.default_rng(seed)
        ids = make_label_space(n=64, dim=dim, seed=seed)
        words = [f"w{i}" for i in range(width + 40)]
        words[int(rng.integers(len(words)))] = "Label_7"
        corpus = CorpusCandidates(
            words=tuple(words),
            features=EmbeddingMatrix.from_rows(
                [f"c{i}" for i in range(len(words))], unit_rows(rng, len(words), dim)
            ),
        )
        space = select_initial_nls(corpus, ids, width)
        assert space.rows is corpus.features.data and not space.merges
        stored = NegativeSpace.from_rows(space.texts, space.stored_rows())
        assert stored.inverse is None
        pairs = [(space, stored)]
        if 2.0 / temperature > scoring.ROW_SHIFT_SPAN:
            order = rng.integers(0, -(-width // 3), width)
            order[-1] = order[0]
            rows = corpus.features.data[order]
            repeated = NegativeSpace.from_rows([f"s{j}" for j in order], rows)
            assert repeated.merges == (width > 1)
            expanded = NegativeSpace(repeated.texts, repeated.stored_rows(), None)
            pairs.append((repeated, expanded))
        images = unit_rows(rng, n, dim)
        cfg = ScoreConfig(temperature=temperature, group_size=group)
        lse_id, _ = id_part(images, ids, cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scoring, "MIN_SPLIT_CELLS", 1)
            mp.setattr(scoring, "BLOCK_CELLS", block_cells)
            for workers in (1, 2, 3):
                mp.setattr(scoring, "SCORE_WORKERS", workers)
                for neg, copy in pairs:
                    got = negative_scores(images, lse_id, neg, cfg)
                    expected = negative_scores(images, lse_id, copy, cfg)
                    assert got.tobytes() == expected.tobytes(), workers

    def test_paper_shape_scores_hold_one_run_per_worker(self):
        # 1,000 images x 10,000 negatives: the whole product is 80 MB. A
        # repeated-row space (10,000 texts over 264 rows, as a sentence
        # space) above ROW_SHIFT_SPAN is walked in text order in tiles too,
        # and so is a space of 9,999 texts, padded to 10,000 columns
        rng = np.random.default_rng(75)
        base = unit_rows(rng, 264, 16)
        order = np.concatenate([np.arange(264), rng.integers(0, 264, 10000 - 264)])
        repeated = NegativeSpace.from_rows([f"s{j}" for j in order], base[order])
        assert repeated.rows.shape[0] == 264
        ids = make_label_space(n=1000, dim=16, seed=74)
        images = unit_rows(rng, 1000, 16)
        for neg, tau in [(make_negative_space(m=10000, dim=16, seed=73), 0.01),
                         (repeated, 0.001),
                         (make_negative_space(m=9999, dim=16, seed=76), 0.01)]:
            cfg = ScoreConfig(temperature=tau)
            lse_id, _ = id_part(images, ids, cfg)
            tracemalloc.start()
            try:
                scores = negative_scores(images, lse_id, neg, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2.5 * scoring.BLOCK_CELLS * 8 + scores.nbytes, tau

    @pytest.mark.parametrize("product", ["labels", "counts"])
    def test_ragged_widths_hold_tiles_not_the_product(self, product):
        # 5,000 images against 1,001 labels, or against a sentence space of
        # 10,000 texts over 2,001 distinct rows: the whole products are 40
        # and 80 MB, and padded to 1,008 and 2,008 columns they walk tiles
        rng = np.random.default_rng(77)
        n, dim = 5000, 16
        images = unit_rows(rng, n, dim)
        cfg = ScoreConfig()
        if product == "labels":
            ids = make_label_space(n=1001, dim=dim, seed=78)
            call = lambda: id_part(images, ids, cfg)
            held = n * 16  # the log-sum-exps and predictions
        else:
            base = unit_rows(rng, 2001, dim)
            order = np.concatenate([np.arange(2001), rng.integers(0, 2001, 10000 - 2001)])
            neg = NegativeSpace.from_rows([f"s{j}" for j in order], base[order])
            assert neg.rows.shape[0] == 2001 and neg.merges
            lse_id = np.zeros(n)
            call = lambda: negative_scores(images, lse_id, neg, cfg)
            # the per-group array and the count matrix, 100 groups padded
            # to 104 columns
            held = (n + 2001) * 104 * 8
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two workers' tiles, each beside a gathered run and a copy of the
        # tile (argmax copies a tile whose rows are not contiguous)
        assert peak < 5 * scoring.BLOCK_CELLS * 8 + held, peak

    def test_checkpoint_rebuild_holds_one_tile_per_worker(self, monkeypatch):
        # 20,000 cache rows against 10,000 word-space rows in groups of 100,
        # a share of 10,000 rows per worker; the products are not computed
        monkeypatch.setattr(np, "matmul", lambda a, b, out: out)
        rows, cols = np.zeros((20000, 8)), np.zeros((10000, 8))
        tracemalloc.start()
        try:
            scoring._blockwise(rows, cols, lambda *args: None, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * scoring.BLOCK_CELLS * 8


class TestMaxLabelSimilarity:
    """The word-space selection's product, walked in tiles on the workers,
    equals the one padded product bit for bit and is never held whole."""

    CELLS = 100 * 72

    @pytest.mark.parametrize("n_classes", [56, 72, 75, 200, 1000])
    @pytest.mark.parametrize("n", [1, 63, 64, 130, 777])
    def test_equals_the_one_product(self, monkeypatch, n_classes, n):
        # 56 and 75 labels are padded to 64 and 80 columns
        monkeypatch.setattr(scoring, "MIN_SPLIT_CELLS", 1)
        monkeypatch.setattr(scoring, "BLOCK_CELLS", self.CELLS)
        ids = make_label_space(n=n_classes, dim=64, seed=41)
        rows = unit_rows(np.random.default_rng(42), n, 64)
        expected = np.max(padded_product(rows, ids.features.data), axis=1)
        for workers in (1, 2, 3):
            monkeypatch.setattr(scoring, "SCORE_WORKERS", workers)
            got = max_label_similarity(rows, ids)
            assert got.tobytes() == expected.tobytes(), workers

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_never_holds_the_product(self, monkeypatch, workers):
        monkeypatch.setattr(scoring, "MIN_SPLIT_CELLS", 1)
        monkeypatch.setattr(scoring, "BLOCK_CELLS", self.CELLS)
        monkeypatch.setattr(scoring, "SCORE_WORKERS", workers)
        n, width = 750, 72
        ids = make_label_space(n=width, dim=64, seed=43)
        rows = unit_rows(np.random.default_rng(44), n, 64)
        tracemalloc.start()
        try:
            max_label_similarity(rows, ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * width * 8

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
