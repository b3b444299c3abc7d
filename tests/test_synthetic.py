"""Synthetic world invariants and scenario-level directional checks."""
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from negtext.errors import ConfigError
from negtext.mining import MiningConfig, classify_batch, mine_similar_classes
from negtext.pipeline import init_stream, run_stream
from negtext.spaces import generate_vsnl
from negtext.synthetic import (
    SCENARIOS,
    SyntheticWorld,
    WorldConfig,
    run_scenario,
    scenario_pipeline_config,
    scenario_world_config,
)


class TestWorldConfig:
    def test_far_band_must_clear_near_band(self):
        with pytest.raises(ConfigError):
            WorldConfig(n_far_clusters=1, far_angle=0.3, near_offset=0.5)

    def test_negative_spread_rejected(self):
        with pytest.raises(ConfigError):
            WorldConfig(id_spread=-0.1)


class TestWorldDeterminism:
    def test_fixed_seed_is_bit_identical(self):
        cfg = scenario_world_config("mixed", seed=7)
        a, b = SyntheticWorld(cfg), SyntheticWorld(cfg)
        assert np.array_equal(a.label_space.features.data, b.label_space.features.data)
        assert a.corpus.words == b.corpus.words
        assert np.array_equal(a.corpus.features.data, b.corpus.features.data)
        batch_a = a.make_batches(2, 10, 10)
        batch_b = b.make_batches(2, 10, 10)
        for x, y in zip(batch_a, batch_b):
            assert x.images.ids == y.images.ids
            assert np.array_equal(x.images.data, y.images.data)
            assert x.ground_truth == y.ground_truth

    def test_different_seed_changes_world(self):
        a = SyntheticWorld(scenario_world_config("far", seed=1))
        b = SyntheticWorld(scenario_world_config("far", seed=2))
        assert not np.array_equal(
            a.label_space.features.data, b.label_space.features.data
        )


class TestWorldGeometry:
    def test_noiseless_world_classifies_perfectly(self):
        cfg = WorldConfig(dim=16, n_id_classes=6, id_spread=0.0, text_noise=0.0)
        world = SyntheticWorld(cfg)
        batch = world.make_batches(1, 30, 0)[0]
        predictions = classify_batch(batch.images.data, world.label_space)
        expected = [
            int(world.image_concepts[i].split("_")[1]) for i in batch.images.ids
        ]
        assert list(predictions) == expected

    def test_orthogonal_far_cluster_has_near_zero_id_cosine(self):
        cfg = WorldConfig(
            dim=64,
            n_id_classes=1,
            n_far_clusters=1,
            far_angle=np.pi / 2,
            far_spread=0.0,
            text_noise=0.0,
        )
        world = SyntheticWorld(cfg)
        proto = world.far_concepts[0].proto
        sims = world.label_space.features.data @ proto
        assert np.max(np.abs(sims)) < 1e-9

    def test_oracle_embeddings_are_deterministic(self):
        world = SyntheticWorld(scenario_world_config("far", seed=3))
        client = world.oracle_client()
        a = client.embed_texts(["The nice class_00.", "anything else"])
        b = client.embed_texts(["The nice class_00.", "anything else"])
        assert np.array_equal(a, b)


def _prompt(world, label):
    return world.label_space.prompt_template.replace("<label>", label)


class TestOracleRows:
    """The oracle keeps token rows and embeds each distinct text of a request
    once; every row it gives is the one a fresh oracle holding the same
    tokens gives."""

    def test_a_streamed_oracle_embeds_as_a_fresh_one(self):
        world = SyntheticWorld(scenario_world_config("mixed", seed=42))
        batches = world.make_batches(3, 150, 150)
        streamed = world.oracle_client()
        run_stream(
            batches, world.label_space, world.corpus, streamed,
            scenario_pipeline_config(), seed=42,
        )
        fresh = world.oracle_client()
        # both then hold every description token and the same twins (a
        # lookalike request asks for at most the space's 200 labels)
        for oracle in (streamed, fresh):
            sentences = [oracle.describe_image(i, "") for i in world.image_concepts]
            for label in world.label_space.labels:
                oracle.similar_labels(label, 200)
        assert set(streamed._tokens) == set(fresh._tokens)
        tokens = list(streamed._tokens)
        texts = (
            tokens
            + [_prompt(world, t) for t in tokens]
            + list(dict.fromkeys(sentences))
            + ["a class_03 twin 11 on a lawn", "class_03 twin 200", "free text"]
        )
        expected = fresh.embed_texts(texts).tobytes()
        # a second request reads the rows the first one kept
        assert streamed.embed_texts(texts).tobytes() == expected
        assert streamed.embed_texts(texts).tobytes() == expected

    def test_a_later_token_changes_the_rows_that_hold_it(self):
        world = SyntheticWorld(scenario_world_config("mixed", seed=42))
        world.make_batches(1, 0, 40)
        image = next(i for i, c in world.image_concepts.items() if c == "far_00")
        texts = [
            "a photo of something resembling scene_far_00 in the scene",
            "scene_far_00",  # free text until the token is registered
            "a class_00 twin 0 on a lawn",  # a sentence of class_00 until then
            "class_00 twin 0",
        ]

        def register(oracle):
            oracle.describe_image(image, "class_00")
            assert "class_00 twin 0" in oracle.similar_labels("class_00", 12)

        oracle = world.oracle_client()
        before = oracle.embed_texts(texts)
        register(oracle)
        after = oracle.embed_texts(texts)
        fresh = world.oracle_client()
        register(fresh)
        assert after.tobytes() == fresh.embed_texts(texts).tobytes()
        assert np.all(np.any(before != after, axis=1))

    def test_rows_hold_while_describe_threads_register_tokens(self):
        # as in a stream, describe threads register tokens while a lane
        # embeds sentences that hold them; after, each row is a fresh one's
        world = SyntheticWorld(scenario_world_config("mixed", seed=42))
        world.make_batches(2, 100, 100)
        images = list(world.image_concepts)
        oracle, fresh = world.oracle_client(), world.oracle_client()
        texts = list(dict.fromkeys(fresh.describe_image(i, "") for i in images))

        def describe(chunk):
            for image_id in chunk:
                oracle.describe_image(image_id, "")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(describe, images[k::4]) for k in range(4)]
                while not all(future.done() for future in futures):
                    oracle.embed_texts(texts)
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert oracle.embed_texts(texts).tobytes() == fresh.embed_texts(texts).tobytes()

    def test_a_repeated_text_gets_the_row_of_a_one_text_request(self):
        world = SyntheticWorld(scenario_world_config("mixed", seed=42))
        texts = [
            "class_00",
            _prompt(world, "near_01"),
            "a photo of something resembling kin_class_01 in the scene",
            "anything else",
        ]
        request = texts + texts[::-1] + texts
        rows = world.oracle_client().embed_texts(request)
        assert rows.shape == (len(request), world.cfg.dim)
        for text, row in zip(request, rows):
            alone = world.oracle_client().embed_texts([text])
            assert row.tobytes() == alone[0].tobytes(), text


class TestOracleFidelity:
    def test_ens_sits_closer_to_far_ood_than_initial_words(self):
        # sentences describe the far clusters themselves, so their
        # embeddings should land nearer far-OOD images than the corpus
        # word selection does
        world = SyntheticWorld(scenario_world_config("far", seed=42))
        client = world.oracle_client()
        batches = world.make_batches(2, 100, 100)
        cfg = scenario_pipeline_config()
        state = init_stream(world.label_space, world.corpus, cfg, seed=42)

        far_images = np.stack(
            [
                batch.images.data[i]
                for batch in batches
                for i, image_id in enumerate(batch.images.ids)
                if world.image_concepts[image_id].startswith("far")
            ]
        )
        far_ids = [
            image_id
            for batch in batches
            for image_id in batch.images.ids
            if world.image_concepts[image_id].startswith("far")
        ]
        sentences = [client.describe_image(i, "class_00") for i in far_ids[:50]]
        ens_vectors = client.embed_texts(sentences)
        nl_mean = float(np.mean(far_images @ state.nl_space.stored_rows().T))
        ens_mean = float(np.mean(far_images @ ens_vectors.T))
        assert ens_mean > nl_mean

    def test_vsnl_labels_nearer_to_near_ood_than_non_parent_id(self):
        world = SyntheticWorld(scenario_world_config("near", seed=42))
        client = world.oracle_client()
        batches = world.make_batches(2, 100, 100)
        predictions = classify_batch(
            np.vstack([b.images.data for b in batches]), world.label_space
        )
        classes = mine_similar_classes(
            predictions, world.label_space, MiningConfig(class_ratio=0.3)
        )
        space = generate_vsnl(classes, world.label_space, client, 60)
        parents = {
            c.parent for c in world.near_concepts if c.parent in classes
        }
        near_images = np.stack(
            [
                batch.images.data[i]
                for batch in batches
                for i, image_id in enumerate(batch.images.ids)
                if world.image_concepts[image_id].startswith("near")
                and world.concepts[world.image_concepts[image_id]].parent in parents
            ]
        )
        non_parent_id = np.stack(
            [
                batch.images.data[i]
                for batch in batches
                for i, image_id in enumerate(batch.images.ids)
                if world.image_concepts[image_id].startswith("class")
                and int(world.image_concepts[image_id].split("_")[1]) not in parents
            ]
        )
        near_sim = float(np.mean(np.max(near_images @ space.rows.T, axis=1)))
        id_sim = float(np.mean(np.max(non_parent_id @ space.rows.T, axis=1)))
        assert near_sim > id_sim


class TestScenarios:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            scenario_world_config("sideways")

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_directional_claims_at_desk_scale(self, name):
        result = run_scenario(
            name, n_batches=3, id_per_batch=150, ood_per_batch=150, seed=42
        )
        assert result.adapted.auroc >= result.baseline.auroc
        assert result.adapted.fpr95 <= result.baseline.fpr95
        if name == "mixed":
            assert all(0.3 < lam < 0.7 for lam in result.lambda_history[1:])
