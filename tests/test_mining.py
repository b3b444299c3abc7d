"""Mining laws, classifier ties, and the reservoir-sampled history cache."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negtext.embeddings import EmbeddingMatrix, LabelSpace, TestBatch
from negtext.errors import ConfigError, InputError
from negtext.mining import (
    HistoryCache,
    MiningConfig,
    classify_batch,
    mine_negative_images,
    mine_similar_classes,
)

from conftest import make_label_space, unit_rows


class TestMiningConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            MiningConfig(initial_threshold=1.0)
        with pytest.raises(ConfigError):
            MiningConfig(selection_ratio=0.0)
        with pytest.raises(ConfigError):
            MiningConfig(class_ratio=1.5)
        with pytest.raises(ConfigError):
            MiningConfig(cache_capacity=0)
        MiningConfig(class_ratio=1.0)


class TestMineNegativeImages:
    def test_worked_example(self):
        # scores [0.95, 0.2, 0.5, 0.1, 0.8] with threshold 0.9, ratio 0.5:
        # candidates {0.2, 0.5, 0.1, 0.8}, keep the two lowest, gamma* = 0.2
        ids = ["a", "b", "c", "d", "e"]
        scores = [0.95, 0.2, 0.5, 0.1, 0.8]
        mined = mine_negative_images(ids, scores, MiningConfig())
        assert mined.image_ids == ("d", "b")
        assert mined.indices == (3, 1)
        assert mined.gamma_star == 0.2

    def test_all_above_threshold_is_empty(self):
        mined = mine_negative_images(["a", "b"], [0.95, 0.91], MiningConfig())
        assert mined.empty
        assert mined.gamma_star is None

    def test_single_candidate_minimum_one(self):
        mined = mine_negative_images(["a", "b"], [0.95, 0.3], MiningConfig())
        assert mined.image_ids == ("b",)
        assert mined.gamma_star == 0.3

    def test_ties_keep_first_appearance_order(self):
        mined = mine_negative_images(
            ["a", "b", "c", "d"], [0.5, 0.5, 0.5, 0.5], MiningConfig()
        )
        assert mined.image_ids == ("a", "b")

    def test_empty_cache_rejected(self):
        with pytest.raises(InputError):
            mine_negative_images([], [], MiningConfig())

    def test_score_count_mismatch_rejected(self):
        with pytest.raises(InputError):
            mine_negative_images(["a"], [0.5, 0.6], MiningConfig())

    @given(
        seed=st.integers(0, 2**32 - 1),
        eta=st.floats(0.05, 0.95),
        n=st.integers(1, 60),
    )
    @settings(max_examples=100)
    def test_selection_and_gamma_star_laws(self, seed, eta, n):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(0, 1, n)
        cfg = MiningConfig(selection_ratio=eta)
        mined = mine_negative_images([f"i{k}" for k in range(n)], scores, cfg)
        candidates = scores[scores < cfg.initial_threshold]
        if candidates.size == 0:
            assert mined.empty
            return
        assert len(mined.image_ids) == max(1, int(np.floor(eta * candidates.size)))
        selected = scores[list(mined.indices)]
        assert mined.gamma_star == np.max(selected)
        unselected = np.delete(scores, list(mined.indices))
        unselected = unselected[unselected < cfg.initial_threshold]
        if unselected.size:
            assert mined.gamma_star <= np.min(unselected)

    def test_deterministic(self):
        rng = np.random.default_rng(21)
        scores = rng.uniform(0, 1, 40)
        ids = [f"i{k}" for k in range(40)]
        first = mine_negative_images(ids, scores, MiningConfig())
        second = mine_negative_images(ids, scores, MiningConfig())
        assert first == second


class TestClassify:
    def test_exact_feature_row_wins(self, label_space):
        predictions = classify_batch(label_space.features.data, label_space)
        assert predictions.tolist() == list(range(label_space.n_classes))

    def test_tie_goes_to_lowest_index(self):
        v = np.array([[1.0, 0.0]])
        ids = LabelSpace(
            labels=("a", "b"),
            features=EmbeddingMatrix(
                ids=("ta", "tb"), data=np.array([[1.0, 0.0], [1.0, 0.0]])
            ),
        )
        assert classify_batch(v, ids).tolist() == [0]

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_matches_brute_force_argmax(self, seed):
        rng = np.random.default_rng(seed)
        ids = make_label_space(n=6, dim=8, seed=seed)
        images = unit_rows(rng, 5, 8)
        best = [
            max(range(6), key=lambda i: float(np.dot(ids.features.data[i], v)))
            for v in images
        ]
        assert classify_batch(images, ids).tolist() == best

    def test_batch_matches_scalar(self, label_space):
        # a row gets the same class in a batch as on its own
        rng = np.random.default_rng(22)
        images = unit_rows(rng, 10, 8)
        batch = classify_batch(images, label_space)
        for i in range(10):
            assert batch[i] == classify_batch(images[i : i + 1], label_space)[0]


class TestMineSimilarClasses:
    def test_worked_example(self):
        # N=5, predictions A*5 B*3 C*2, class ratio 0.4 -> {A, B}
        ids = make_label_space(n=5, dim=8, seed=23)
        predictions = [0] * 5 + [1] * 3 + [2] * 2
        classes = mine_similar_classes(
            predictions, ids, MiningConfig(class_ratio=0.4)
        )
        assert classes == (0, 1)

    def test_minimum_one_class(self):
        ids = make_label_space(n=5, dim=8, seed=24)
        classes = mine_similar_classes([2, 2, 1], ids, MiningConfig(class_ratio=0.08))
        assert classes == (2,)

    def test_frequency_tie_goes_to_lowest_class(self):
        ids = make_label_space(n=4, dim=8, seed=25)
        classes = mine_similar_classes([3, 1, 1, 3], ids, MiningConfig(class_ratio=0.25))
        assert classes == (1,)

    def test_empty_rejected(self):
        ids = make_label_space(n=3, dim=8, seed=26)
        with pytest.raises(InputError):
            mine_similar_classes([], ids, MiningConfig())

    @given(
        predictions=st.lists(st.integers(0, 7), min_size=1, max_size=50),
        delta=st.floats(0.05, 1.0),
    )
    @settings(max_examples=100)
    def test_matches_count_oracle(self, predictions, delta):
        ids = make_label_space(n=8, dim=8, seed=27)
        classes = mine_similar_classes(predictions, ids, MiningConfig(class_ratio=delta))
        # most often predicted first; a tie goes to the lower class index
        ranked = sorted(range(8), key=lambda c: (-predictions.count(c), c))
        assert classes == tuple(ranked[: max(1, int(np.floor(delta * 8)))])


def _batch_of(ids, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return TestBatch(
        images=EmbeddingMatrix.from_rows(list(ids), unit_rows(rng, len(ids), dim))
    )


class TestHistoryCache:
    def test_under_capacity_holds_everything(self):
        cache = HistoryCache(capacity=10, dim=4, seed=0)
        cache.append_batch(_batch_of([f"a{i}" for i in range(4)], seed=1))
        cache.append_batch(_batch_of([f"b{i}" for i in range(4)], seed=2))
        assert len(cache) == 8
        assert cache.ids[:4] == ["a0", "a1", "a2", "a3"]

    def test_capacity_bound(self):
        cache = HistoryCache(capacity=8, dim=4, seed=0)
        for s in range(4):
            cache.append_batch(_batch_of([f"x{s}_{i}" for i in range(4)], seed=s))
        assert len(cache) == 8
        assert cache.n_seen == 16

    def test_matrix_matches_ids(self):
        cache = HistoryCache(capacity=100, dim=4, seed=0)
        batch = _batch_of(["a", "b", "c"], seed=3)
        cache.append_batch(batch)
        assert np.array_equal(cache.matrix(), batch.images.data)

    def test_same_seed_is_deterministic(self):
        def fill(seed):
            cache = HistoryCache(capacity=6, dim=4, seed=seed)
            for s in range(5):
                cache.append_batch(_batch_of([f"x{s}_{i}" for i in range(4)], seed=s))
            return cache.ids

        assert fill(7) == fill(7)
        # a different seed reshuffles retention eventually
        assert any(fill(7) != fill(other) for other in range(8, 12))

    def test_reservoir_retention_is_uniform(self):
        # Monte-Carlo: each of 20 streamed images should survive in a
        # capacity-5 cache with probability 5/20, within 3 sigma
        trials = 3000
        capacity, total = 5, 20
        counts = np.zeros(total)
        for t in range(trials):
            cache = HistoryCache(capacity=capacity, dim=2, seed=t)
            cache.append_batch(_batch_of([f"i{k}" for k in range(total)], dim=2))
            for image_id in cache.ids:
                counts[int(image_id[1:])] += 1
        p = capacity / total
        sigma = np.sqrt(trials * p * (1 - p))
        assert np.all(np.abs(counts - trials * p) < 3 * sigma + 1e-9)

    def test_state_roundtrip_replays_identically(self):
        def stream(cache, start):
            for s in range(start, start + 3):
                cache.append_batch(_batch_of([f"y{s}_{i}" for i in range(5)], seed=s))

        original = HistoryCache(capacity=7, dim=4, seed=13)
        stream(original, 0)
        restored = HistoryCache(capacity=7, dim=4, seed=0)
        restored.load_state(original.state_dict(), original.matrix())
        assert restored.ids == original.ids
        stream(original, 3)
        stream(restored, 3)
        assert restored.ids == original.ids
        assert np.array_equal(restored.matrix(), original.matrix())

    def test_append_returns_the_slot_of_each_kept_row(self):
        cache = HistoryCache(capacity=6, dim=4, seed=5)
        for s in range(5):
            ids = [f"z{s}_{i}" for i in range(4)]
            slots = cache.append_batch(_batch_of(ids, seed=s))
            for image_id, slot in zip(ids, slots):
                if slot >= 0:
                    assert cache.ids[slot] == image_id
                else:
                    assert image_id not in cache.ids
            kept = slots[slots >= 0]
            assert len(set(kept.tolist())) == kept.size

    def test_row_displaced_within_its_batch_reads_minus_one(self):
        # a cache fed one row at a time draws the same slots; a row whose
        # slot a later row of the same batch takes must read -1
        ids = [f"w{i}" for i in range(40)]
        batch = _batch_of(ids, seed=9)
        single = HistoryCache(capacity=3, dim=4, seed=11)
        drawn = [
            int(single.append_batch(_batch_of([image_id], seed=9))[0])
            for image_id in ids
        ]
        expected = [
            -1 if slot >= 0 and slot in drawn[i + 1 :] else slot
            for i, slot in enumerate(drawn)
        ]
        assert any(d >= 0 and e == -1 for d, e in zip(drawn, expected))
        cache = HistoryCache(capacity=3, dim=4, seed=11)
        assert cache.append_batch(batch).tolist() == expected
        assert cache.ids == single.ids

    def test_matrix_is_a_view_of_the_filled_rows(self):
        cache = HistoryCache(capacity=10, dim=4, seed=0)
        assert cache.matrix().shape == (0, 4)
        cache.append_batch(_batch_of(["a", "b", "c"], seed=3))
        assert cache.matrix().shape == (3, 4)
        assert np.shares_memory(cache.matrix(), cache.matrix())
