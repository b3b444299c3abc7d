"""Score functions against extended-precision oracles and hand traces."""
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        for bad in (float("nan"), float("inf")):
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
        for bad in (-1.0, float("nan"), float("inf")):
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
