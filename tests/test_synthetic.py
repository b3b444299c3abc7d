"""Synthetic world invariants and scenario-level directional checks."""
import numpy as np
import pytest

from negtext.errors import ConfigError
from negtext.mining import MiningConfig, classify_batch, mine_similar_classes
from negtext.pipeline import init_stream
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
