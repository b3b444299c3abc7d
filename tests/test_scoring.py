"""Score functions against extended-precision oracles and hand traces."""
import threading
import time

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from negtext import scoring
from negtext.embeddings import EmbeddingMatrix, LabelSpace, NegativeSpace, SpaceKind
from negtext.errors import ConfigError, InputError
from negtext.mining import classify_batch
from negtext.scoring import (
    ScoreConfig,
    adaptive_lambda,
    detect,
    fused_score,
    grouped_score,
    grouped_scores_batch,
    id_part,
    negative_scores,
    softmax_score,
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
    """Longdouble brute force: mean of per-group softmax ratios."""
    sim_id = (ids.features.data @ v).astype(np.longdouble)
    sim_neg = (neg.features.data @ v).astype(np.longdouble)
    tau = np.longdouble(cfg.temperature)
    num = np.sum(np.exp(sim_id / tau - np.max(sim_id) / tau))
    scores = []
    for sl in neg.group_slices():
        group = sim_neg[sl]
        shift = max(np.max(sim_id), np.max(group)) / tau
        n = np.sum(np.exp(sim_id / tau - shift))
        d = n + np.sum(np.exp(group / tau - shift))
        scores.append(n / d)
    return float(np.mean(scores))


def full_product_scores(images, ids, neg, cfg):
    """The grouped score from one product over every stored negative row."""
    tau = cfg.temperature

    def lse(sims):
        scaled = sims / tau
        shift = np.max(scaled, axis=1, keepdims=True)
        return shift[:, 0] + np.log(np.sum(np.exp(scaled - shift), axis=1))

    lse_id = lse(images @ ids.features.data.T)
    sim_neg = images @ neg.features.data.T
    total = np.zeros(images.shape[0])
    for sl in neg.group_slices():
        total += 1.0 / (1.0 + np.exp(lse(sim_neg[:, sl]) - lse_id))
    return total / neg.n_groups


def space_of(texts, data, group_size=2):
    """A negative space holding exactly these texts and rows."""
    return NegativeSpace(
        kind=SpaceKind.ENS,
        texts=tuple(texts),
        features=EmbeddingMatrix(
            ids=tuple(f"n{i}" for i in range(len(texts))),
            data=np.array(data, dtype=np.float64),
        ),
        group_size=group_size,
    )


class TestScoreConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ScoreConfig(temperature=0.0)
        with pytest.raises(ConfigError):
            ScoreConfig(group_size=0)
        with pytest.raises(ConfigError):
            ScoreConfig(lambda_override=1.5)
        # 1e-320 is finite, but its reciprocal is not
        for bad in (float("nan"), float("inf"), 1e-320):
            with pytest.raises(ConfigError, match="temperature must be finite"):
                ScoreConfig(temperature=bad)
        ScoreConfig(lambda_override=0.0)


class TestSoftmaxScore:
    def test_hand_value_tau_one(self):
        # sim_id [0.3, 0.1], sim_neg [0.2], tau = 1
        expected = softmax_score_oracle([0.3, 0.1], [0.2], 1.0)
        got = softmax_score([0.3, 0.1], [0.2], 1.0)
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.6678, abs=5e-5)

    def test_empty_negatives_is_exactly_one(self):
        assert softmax_score([0.5, 0.2], [], 0.01) == 1.0

    def test_empty_id_rejected(self):
        with pytest.raises(InputError):
            softmax_score([], [0.5], 0.01)

    def test_bad_temperature_rejected(self):
        for bad in (-1.0, float("nan"), float("inf"), 1e-320):
            with pytest.raises(ConfigError):
                softmax_score([0.5], [0.2], bad)

    @given(
        seed=st.integers(0, 2**32 - 1),
        tau=st.sampled_from([0.01, 0.1, 1.0]),
    )
    @settings(max_examples=50)
    def test_matches_oracle_and_range(self, seed, tau):
        rng = np.random.default_rng(seed)
        sim_id = rng.uniform(-1, 1, rng.integers(1, 8))
        sim_neg = rng.uniform(-1, 1, rng.integers(1, 30))
        got = softmax_score(sim_id, sim_neg, tau)
        assert 0.0 < got <= 1.0
        assert got == pytest.approx(
            softmax_score_oracle(sim_id, sim_neg, tau), rel=1e-12, abs=1e-300
        )

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_adding_a_negative_lowers_the_score(self, seed):
        rng = np.random.default_rng(seed)
        sim_id = rng.uniform(-1, 1, 3)
        sim_neg = list(rng.uniform(-1, 1, 5))
        before = softmax_score(sim_id, sim_neg, 0.1)
        after = softmax_score(sim_id, sim_neg + [0.9], 0.1)
        assert after < before


class TestGroupedScore:
    def test_single_group_reduces_to_softmax(self, label_space):
        neg = make_negative_space(m=5, group_size=5, seed=11)
        rng = np.random.default_rng(12)
        v = unit_rows(rng, 1, 8)[0]
        direct = softmax_score(
            label_space.features.data @ v, neg.features.data @ v, 0.01
        )
        got = grouped_score(v, label_space, neg, ScoreConfig(group_size=5))
        assert got == pytest.approx(direct, abs=1e-12)

    def test_batch_matches_scalar_path(self, label_space):
        neg = make_negative_space(m=12, group_size=4, seed=13)
        rng = np.random.default_rng(14)
        images = unit_rows(rng, 6, 8)
        cfg = ScoreConfig(group_size=4)
        batch = grouped_scores_batch(images, label_space, neg, cfg)
        for i in range(6):
            assert batch[i] == pytest.approx(
                grouped_score(images[i], label_space, neg, cfg), abs=1e-12
            )

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_longdouble_oracle(self, seed):
        rng = np.random.default_rng(seed)
        ids = make_label_space(n=int(rng.integers(1, 6)), dim=8, seed=seed)
        neg = make_negative_space(
            m=int(rng.integers(1, 40)),
            group_size=int(rng.integers(1, 12)),
            seed=seed + 1,
        )
        cfg = ScoreConfig(
            temperature=float(rng.choice([0.01, 0.1, 1.0])),
            group_size=neg.group_size,
        )
        v = unit_rows(rng, 1, 8)[0]
        got = grouped_score(v, ids, neg, cfg)
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
        neg = NegativeSpace(
            kind=SpaceKind.ENS,
            texts=tuple(f"sentence {j}" for j in order),
            features=EmbeddingMatrix.from_rows(
                [f"n{i}" for i in range(m)], base[order]
            ),
            group_size=group_size,
        )
        rows, inverse = neg.distinct_rows
        assert rows.shape[0] == distinct
        assert (inverse is None) == (distinct == m)
        if inverse is not None:
            assert np.array_equal(rows[inverse], neg.features.data)
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
        rows, inverse = neg.distinct_rows
        assert rows is neg.features.data and inverse is None

    def test_only_byte_equal_repeats_merge(self):
        neg = space_of(["a", "a", "b", "a"], [[1, 0], [1, 0], [0, 1], [0.6, 0.8]])
        rows, inverse = neg.distinct_rows
        assert np.array_equal(rows, [[1, 0], [0, 1], [0.6, 0.8]])
        assert inverse.tolist() == [0, 0, 1, 2]

    def test_all_distinct_space_keeps_stored_rows_and_full_product_scores(
        self, label_space
    ):
        neg = make_negative_space(m=23, group_size=5, seed=21)
        rows, inverse = neg.distinct_rows
        assert rows is neg.features.data and inverse is None
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


def repeated_space(rng, distinct, dim, group_size):
    """A sentence-like space: `distinct` rows, each repeated 1-3 times."""
    base = unit_rows(rng, distinct, dim)
    order = rng.permutation(np.repeat(np.arange(distinct), rng.integers(1, 4, distinct)))
    return NegativeSpace(
        kind=SpaceKind.ENS,
        texts=tuple(f"sentence {j}" for j in order),
        features=EmbeddingMatrix.from_rows(
            [f"n{i}" for i in range(order.size)], base[order]
        ),
        group_size=group_size,
    )


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
            neg = repeated_space(rng, distinct, dim, group_size=9)
        else:
            neg = make_negative_space(m=distinct, dim=dim, group_size=9, seed=seed)
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
        neg = make_negative_space(m=64, dim=8, group_size=8, seed=32)
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
        neg = NegativeSpace(
            kind=SpaceKind.NL,
            texts=tuple(f"neg_{i}" for i in range(96)),
            features=EmbeddingMatrix.from_rows(
                [f"n{i}" for i in range(96)],
                np.vstack([images[:48], unit_rows(rng, 48, 8)]),
            ),
            group_size=16,
        )
        assert len(scoring._row_blocks(150, 96, 150 * 96)) == (
            2 if min_cells == 1 else 1
        )
        scores = grouped_scores_batch(images, ids, neg, ScoreConfig(temperature=1e-300))
        assert np.all((scores >= 0.0) & (scores <= 1.0))


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


class TestDetect:
    def test_threshold_rule(self):
        assert detect(0.9, 0.9) == "ID"
        assert detect(0.89999, 0.9) == "OOD"
