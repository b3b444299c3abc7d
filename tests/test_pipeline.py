"""Streaming loop: fusion weight, regeneration gating, checkpoints, causality."""
import json
import struct

import numpy as np
import pytest

from negtext import scoring
from negtext.embeddings import EmbeddingMatrix, TestBatch, batches_truth
from negtext.errors import ConfigError, DataError, FormatError, GenerationError
from negtext.metrics import compute_report, split_scores
from negtext.mining import MiningConfig, classify_batch
from negtext.pipeline import (
    PipelineConfig,
    init_stream,
    load_checkpoint,
    process_batch,
    run_stream,
    save_checkpoint,
)
from negtext.scoring import ScoreConfig, fused_score, grouped_scores_batch
from negtext.spaces import SENTENCE_MIN_WORDS
from negtext.synthetic import (
    SyntheticWorld,
    scenario_pipeline_config,
    scenario_world_config,
)

from test_acceptance import PINNED
from test_scoring import full_product_scores


def small_setup(scenario="far", n_batches=2, per_side=40, seed=42):
    world = SyntheticWorld(scenario_world_config(scenario, seed=seed))
    batches = world.make_batches(n_batches, per_side, per_side)
    return world, batches


def small_config(**kw):
    base = scenario_pipeline_config()
    return PipelineConfig.from_dict({**base.to_dict(), **kw})


class TestPipelineConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(num_negatives=10, score=ScoreConfig(group_size=100))
        for removed in (
            {"mode": 1},
            {"regen_every": 1},
            {"include_current_batch": 1},
            {"sentence_len_min": 1},
            {"adapt": True},
            {"score": {"lambda_override": 0.5}},
        ):
            with pytest.raises(ConfigError):  # no such field
                PipelineConfig.from_dict(removed)
        with pytest.raises(ConfigError):
            PipelineConfig(sentence_len_max=SENTENCE_MIN_WORDS - 1)
        PipelineConfig(sentence_len_max=SENTENCE_MIN_WORDS)
        # each value's type must fit its field's annotation
        for spec in (
            {"num_negatives": 200.0},
            {"num_negatives": True},
            {"sentence_len_max": 4.0},
            {"score": {"group_size": 25.0}},
            {"score": {"group_size": True}},
            {"score": {"temperature": True}},
            {"score": {"temperature": "0.1"}},
            {"mining": {"cache_capacity": 2.5}},
            {"mining": {"cache_capacity": True}},
            {"mining": {"class_ratio": False}},
        ):
            with pytest.raises(ConfigError, match="must be of type"):
                PipelineConfig.from_dict(spec)

    def test_float_fields_take_ints(self):
        cfg = PipelineConfig.from_dict(
            {"score": {"temperature": 1},
             "mining": {"class_ratio": 1, "cache_capacity": np.int64(5)}}
        )
        assert cfg.score.temperature == 1 and cfg.mining.class_ratio == 1
        assert cfg.mining.cache_capacity == 5

    def test_dict_roundtrip_and_digest(self):
        cfg = PipelineConfig(
            score=ScoreConfig(temperature=0.05, group_size=10),
            mining=MiningConfig(class_ratio=0.2),
            num_negatives=50,
        )
        again = PipelineConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.digest() == cfg.digest()
        assert cfg.digest() != PipelineConfig.from_dict(
            {**cfg.to_dict(), "num_negatives": 60}
        ).digest()


class TestInitStream:
    def test_spaces_alias_initial_selection(self):
        world, _ = small_setup()
        state = init_stream(world.label_space, world.corpus, small_config(), seed=1)
        assert state.ens_space is state.nl_space
        assert state.vsnl_space is state.nl_space
        assert state.lambda_ == 0.5
        assert state.epoch == 0
        assert not state.degraded


class TestProcessBatch:
    def test_batch_of_another_dim_leaves_the_state_unchanged(self):
        world, batches = small_setup(n_batches=2)
        client = world.oracle_client()
        state = init_stream(world.label_space, world.corpus, small_config(), seed=42)
        process_batch(state, batches[0], client)
        before = (len(state.cache), state.cache.n_seen, list(state.lambda_history))
        ens_space, vsnl_space = state.ens_space, state.vsnl_space
        images = batches[1].images
        wide_rows = np.hstack([images.data, np.zeros((images.rows, 1))])
        wide = TestBatch(EmbeddingMatrix(images.ids, wide_rows))
        with pytest.raises(DataError, match="image dim 65 vs label dim 64"):
            process_batch(state, wide, client)
        assert (len(state.cache), state.cache.n_seen, state.lambda_history) == before
        assert state.ens_space is ens_space and state.vsnl_space is vsnl_space
        assert not state.degraded


class TestModes:
    """A fixed weight re-fuses the adaptive stream's records; its endpoints
    are the single-space scores, bit for bit."""

    def _records(self):
        world, batches = small_setup()
        records, _ = run_stream(
            batches, world.label_space, world.corpus, world.oracle_client(),
            small_config(), seed=42,
        )
        return records

    def test_fixed_lambda_one_is_ens_bitwise(self):
        records = self._records()
        assert records and all(
            fused_score(r.s_ens, r.s_vsnl, 1.0) == r.s_ens for r in records
        )

    def test_fixed_lambda_zero_is_vsnl_bitwise(self):
        records = self._records()
        assert records and all(
            fused_score(r.s_ens, r.s_vsnl, 0.0) == r.s_vsnl for r in records
        )

    def test_adaptive_lambda_leaves_half_after_regeneration(self):
        world, batches = small_setup(per_side=150, n_batches=3)
        records, state = run_stream(
            batches, world.label_space, world.corpus, world.oracle_client(),
            small_config(), seed=42,
        )
        assert state.lambda_history[0] != 0.5 or state.lambda_history[-1] != 0.5
        assert all(0.0 < lam < 1.0 for lam in state.lambda_history)


class FailingClient:
    def describe_image(self, image_ref, exclude_label):
        raise GenerationError("endpoint down", image_id=image_ref)

    def similar_labels(self, class_name, count):
        raise GenerationError("endpoint down")

    def embed_texts(self, texts):
        raise GenerationError("endpoint down")


class TestDegradedGeneration:
    def test_failure_keeps_previous_spaces_and_flags_state(self):
        world, batches = small_setup(per_side=150)
        records, state = run_stream(
            batches, world.label_space, world.corpus, FailingClient(),
            small_config(), seed=42,
        )
        assert state.degraded
        assert state.ens_space is state.nl_space
        assert state.vsnl_space is state.nl_space
        assert len(records) == sum(b.images.rows for b in batches)
        # spaces that never regenerate fuse two copies of the word space,
        # which is what lets the frozen baseline be read from s_nl
        assert all(r.s_ada == r.s_nl for r in records)

    def test_non_finite_embedding_degrades_instead_of_raising(self):
        world, batches = small_setup(scenario="mixed", n_batches=3, per_side=100)
        client = NanOnFirstEmbedClient(world.oracle_client())
        records, state = run_stream(
            batches, world.label_space, world.corpus, client,
            small_config(), seed=42,
        )
        assert client.embed_calls > 1  # later batches regenerated normally
        assert state.degraded
        assert [r.image_id for r in records] == [
            i for b in batches for i in b.images.ids
        ]
        assert all(0.0 <= r.s_ada <= 1.0 for r in records)


class NanOnFirstEmbedClient:
    """Delegates to `inner`, but its first `embed_texts` holds a NaN row."""

    def __init__(self, inner):
        self.inner = inner
        self.embed_calls = 0

    def describe_image(self, image_ref, exclude_label):
        return self.inner.describe_image(image_ref, exclude_label)

    def similar_labels(self, class_name, count):
        return self.inner.similar_labels(class_name, count)

    def embed_texts(self, texts):
        vectors = np.array(self.inner.embed_texts(texts))
        self.embed_calls += 1
        if self.embed_calls == 1:
            vectors[0, 0] = np.nan
        return vectors


def assert_cache_columns_match_rescore(state):
    """The stored per-row columns equal a rescore of the cached rows."""
    cache = state.cache
    n = len(cache)
    matrix = cache.matrix()
    rescored = grouped_scores_batch(
        matrix, state.label_space, state.nl_space, state.config.score
    )
    assert np.array_equal(cache.nl_scores[:n], rescored)
    assert np.array_equal(
        cache.predictions[:n], classify_batch(matrix, state.label_space)
    )


def small_cache_config(**kw):
    """Scenario config with a 100-image cache, so replacement runs."""
    mining = {**scenario_pipeline_config().mining.__dict__, "cache_capacity": 100}
    return small_config(mining=mining, **kw)


class TestCacheColumns:
    def test_columns_match_rescore_after_replacement(self):
        world, batches = small_setup(scenario="mixed", n_batches=4, per_side=40)
        _, state = run_stream(
            batches, world.label_space, world.corpus, world.oracle_client(),
            small_cache_config(), seed=42,
        )
        assert state.cache.n_seen == 320 and len(state.cache) == 100
        assert_cache_columns_match_rescore(state)

    def test_load_checkpoint_rebuilds_columns(self, tmp_path):
        world, batches = small_setup(scenario="mixed", n_batches=3, per_side=40)
        cfg = small_cache_config()
        _, state = run_stream(
            batches, world.label_space, world.corpus, world.oracle_client(),
            cfg, seed=42,
        )
        path = tmp_path / "state.nckp"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert len(loaded.cache) == 100
        assert_cache_columns_match_rescore(loaded)


def assert_matrices_are_float32_rounding(loaded, state):
    """The checkpoint stores every matrix as float32, so each loaded matrix
    is exactly the float32 rounding of the saved one."""
    pairs = [(loaded.cache.matrix(), state.cache.matrix())] + [
        (getattr(loaded, name).stored_rows(), getattr(state, name).stored_rows())
        for name in ("nl_space", "ens_space", "vsnl_space")
    ] + [(loaded.label_space.features.data, state.label_space.features.data)]
    for got, saved in pairs:
        assert np.array_equal(got, saved.astype(np.float32).astype(np.float64))


class TestCheckpoint:
    def test_roundtrip_restores_state(self, tmp_path):
        world, batches = small_setup(per_side=60, n_batches=2)
        _, state = run_stream(
            batches, world.label_space, world.corpus, world.oracle_client(),
            small_config(), seed=42,
        )
        path = tmp_path / "state.nckp"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert loaded.epoch == state.epoch
        assert loaded.lambda_ == state.lambda_
        assert loaded.lambda_history == state.lambda_history
        assert loaded.config == state.config
        assert loaded.degraded == state.degraded
        assert loaded.label_space.labels == state.label_space.labels
        assert loaded.nl_space.texts == state.nl_space.texts
        assert loaded.ens_space.texts == state.ens_space.texts
        assert loaded.vsnl_space.texts == state.vsnl_space.texts
        assert loaded.cache.ids == state.cache.ids
        assert_matrices_are_float32_rounding(loaded, state)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "state.nckp"
        path.write_bytes(b"JUNKJUNKJUNKJUNK")
        from negtext.errors import FormatError

        with pytest.raises(FormatError):
            load_checkpoint(path)

    def _saved(self, tmp_path):
        world, batches = small_setup(per_side=60, n_batches=2)
        _, state = run_stream(
            batches, world.label_space, world.corpus, world.oracle_client(),
            small_config(), seed=42,
        )
        path = tmp_path / "state.nckp"
        save_checkpoint(state, path)
        return path

    def test_version_1_rejected_with_its_path(self, tmp_path):
        path = self._saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
        with pytest.raises(FormatError, match=f"{path}: unsupported checkpoint version 1"):
            load_checkpoint(path)

    def test_stream_repeating_image_ids_roundtrips(self, tmp_path):
        world, batches = small_setup(scenario="mixed", n_batches=1, per_side=40)
        # the same images twice: the cache holds each id in two slots
        _, state = run_stream(
            batches * 2, world.label_space, world.corpus, world.oracle_client(),
            small_config(), seed=42,
        )
        assert len(state.cache) == 160 and len(set(state.cache.ids)) == 80
        path = tmp_path / "state.nckp"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert loaded.cache.ids == state.cache.ids
        assert_matrices_are_float32_rounding(loaded, state)
        assert_cache_columns_match_rescore(loaded)

    def test_sentence_space_stores_each_text_once_and_roundtrips(self, tmp_path):
        world, batches = small_setup(scenario="mixed", n_batches=3, per_side=40)
        _, state = run_stream(
            batches, world.label_space, world.corpus, world.oracle_client(),
            small_config(), seed=42,
        )
        ens = state.ens_space
        assert ens.rows.shape[0] == len(set(ens.texts)) < ens.size
        assert not ens.rows.flags.writeable
        path, again = tmp_path / "state.nckp", tmp_path / "again.nckp"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        # the checkpoint stores float32 rows
        assert np.array_equal(
            loaded.ens_space.rows, ens.rows.astype(np.float32).astype(np.float64)
        )
        assert np.array_equal(loaded.ens_space.inverse, ens.inverse)
        save_checkpoint(loaded, again)
        reloaded = load_checkpoint(again).ens_space
        assert np.array_equal(reloaded.rows, loaded.ens_space.rows)
        assert np.array_equal(reloaded.inverse, loaded.ens_space.inverse)

    def test_resave_is_byte_identical(self, tmp_path):
        path = self._saved(tmp_path)
        again = tmp_path / "again.nckp"
        save_checkpoint(load_checkpoint(path), again)
        assert again.read_bytes() == path.read_bytes()

    def _edit_header(self, path, edit):
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16 : 16 + header_len])
        edit(header)
        new_header = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(
            raw[:8] + struct.pack("<Q", len(new_header)) + new_header
            + raw[16 + header_len :]
        )

    def test_header_with_older_per_space_keys_loads(self, tmp_path):
        # earlier writers stored each space's kind, group size and epoch too;
        # the kind is the space's key and the group size the config's
        path = self._saved(tmp_path)
        plain = load_checkpoint(path)

        def older(header):
            for space in header["spaces"].values():
                space.update(kind="nl", group_size=7, epoch=3)

        self._edit_header(path, older)
        loaded = load_checkpoint(path)
        for name in ("nl", "ens", "vsnl"):
            space = getattr(loaded, f"{name}_space")
            expected = getattr(plain, f"{name}_space")
            assert space.texts == expected.texts
            assert space.rows.tobytes() == expected.rows.tobytes()
        n = len(plain.cache)
        assert np.array_equal(loaded.cache.nl_scores[:n], plain.cache.nl_scores[:n])

    def test_older_epoch_and_lambda_keys_ignored(self, tmp_path):
        # earlier writers stored the epoch and the last weight beside the
        # history; both are read from the history, whatever those keys hold
        path = self._saved(tmp_path)
        self._edit_header(path, lambda header: header.update({"epoch": 99, "lambda": 0.123}))
        loaded = load_checkpoint(path)
        history = loaded.lambda_history
        assert history and history[-1] != 0.123
        assert loaded.epoch == len(history)
        assert loaded.lambda_ == history[-1]

    def test_cache_ids_not_matching_rows_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        self._edit_header(path, lambda header: header["cache"]["ids"].pop())
        with pytest.raises(FormatError, match=str(path)):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda header: header["spaces"]["ens"].pop("texts"),
        lambda header: header.pop("spaces"),
        lambda header: header.pop("cache"),
        lambda header: header.pop("labels"),
        lambda header: header["spaces"].pop("vsnl"),
        lambda header: header.update(lambda_history=5),
        lambda header: header["spaces"]["ens"]["texts"].pop(),
        lambda header: header.update(lambda_history=["x"]),
        lambda header: header.update(lambda_history=[7.0]),
        lambda header: header["labels"].__setitem__(0, 5),
        lambda header: header["spaces"]["ens"]["texts"].__setitem__(0, 5),
        lambda header: header["label_ids"].__setitem__(0, 5),
        lambda header: header["label_ids"].__setitem__(1, header["label_ids"][0]),
        lambda header: header.update(degraded="no"),
        lambda header: header["cache"].update(n_seen=-5),
        lambda header: header["cache"].update(n_seen=3),
        lambda header: header["cache"].update(n_seen=float(header["cache"]["n_seen"])),
        lambda header: header["cache"].update(capacity=0),
        lambda header: header["cache"].update(capacity=len(header["cache"]["ids"]) - 1),
        lambda header: header["cache"].update(capacity=header["cache"]["capacity"] + 1),
        lambda header: header["config"].update(bogus=1),
        lambda header: header["cache"]["rng_state"]["state"].update(state=-1),
        lambda header: header["cache"]["rng_state"]["state"].update(inc=10**40),
        lambda header: header["cache"]["ids"].__setitem__(0, 5),
        lambda header: header.update(rng_seed=True),
        lambda header: header.update(rng_seed=[]),
        lambda header: header.update(config_hash="x"),
    ], ids=["no-texts", "no-spaces", "no-cache", "no-labels", "no-vsnl",
            "history-not-list", "texts-not-rows", "history-not-number",
            "history-out-of-range", "label-not-str", "text-not-str",
            "label-id-not-str", "label-id-repeated", "degraded-not-bool",
            "n-seen-negative", "n-seen-below-rows", "n-seen-not-int",
            "capacity-zero", "capacity-below-rows", "capacity-not-config",
            "config-unknown-key", "rng-state-negative", "rng-inc-too-wide",
            "cache-id-not-str", "rng-seed-bool", "rng-seed-list",
            "config-hash-wrong"])
    def test_bad_header_field_rejected_with_one_line(self, tmp_path, edit):
        path = self._saved(tmp_path)
        self._edit_header(path, edit)
        with pytest.raises(FormatError, match=f"{path}: bad checkpoint header field") as excinfo:
            load_checkpoint(path)
        assert "\n" not in str(excinfo.value)

    def test_wrong_matrix_count_rejected(self, tmp_path):
        def merge_last_two(header):
            sizes = header["blob_sizes"]
            sizes[-2:] = [sizes[-2] + sizes[-1]]

        path = self._saved(tmp_path)
        self._edit_header(path, merge_last_two)
        with pytest.raises(FormatError, match=f"{path}: expected 5 matrices"):
            load_checkpoint(path)

    @pytest.mark.parametrize("where", ["header", "cache blob", "last space blob"])
    def test_truncated_file_rejected_with_its_path(self, tmp_path, where):
        path = self._saved(tmp_path)
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<Q", raw[8:16])
        sizes = json.loads(raw[16 : 16 + header_len])["blob_sizes"]
        cut = {
            "header": 16 + header_len // 2,
            "cache blob": 16 + header_len + sizes[0] + sizes[1] // 2,
            "last space blob": len(raw) - sizes[-1] // 2,
        }[where]
        path.write_bytes(raw[:cut])
        with pytest.raises(FormatError, match=str(path)):
            load_checkpoint(path)


class TestSimilarityPass:
    def test_mixed_stream_matches_full_products_and_pins(self):
        """The regression stream: each batch's scores against a full product
        over the spaces it was scored with, and the pinned metrics and λ."""
        world = SyntheticWorld(scenario_world_config("mixed", seed=42))
        batches = world.make_batches(5, 400, 400)
        cfg = scenario_pipeline_config()
        state = init_stream(world.label_space, world.corpus, cfg, seed=42)
        client = world.oracle_client()
        records = []
        merged = False
        for batch in batches:
            got = process_batch(state, batch, client)
            images, ids = batch.images.data, state.label_space

            def full(space):
                return full_product_scores(images, ids, space, cfg.score)

            assert np.array_equal([r.s_nl for r in got], full(state.nl_space))
            assert np.array_equal([r.s_vsnl for r in got], full(state.vsnl_space))
            assert np.allclose(
                [r.s_ens for r in got], full(state.ens_space), rtol=0, atol=1e-12
            )
            assert np.array_equal(
                [r.predicted_class for r in got], classify_batch(images, ids)
            )
            merged |= state.ens_space.inverse is not None
            records.extend(got)
        assert merged  # the sentence space repeats texts
        report = compute_report(*split_scores(records, batches_truth(batches)))
        pin = PINNED["mixed"]
        assert report.auroc == pytest.approx(pin["adapted"][0], abs=1e-9)
        assert report.fpr95 == pytest.approx(pin["adapted"][1], abs=1e-9)
        assert state.lambda_history[-1] == pytest.approx(pin["lambda_final"], abs=1e-9)


    def test_mixed_stream_is_bit_equal_on_one_score_worker(self, monkeypatch):
        """Split scoring (thresholds lowered so the regression stream's word
        and lookalike products split) against one score worker."""
        world = SyntheticWorld(scenario_world_config("mixed", seed=42))
        batches = world.make_batches(5, 400, 400)
        row_blocks = scoring._row_blocks
        splits = []

        def counted(*args):
            blocks = row_blocks(*args)
            splits.append(len(blocks) > 1)
            return blocks

        monkeypatch.setattr(scoring, "_row_blocks", counted)
        monkeypatch.setattr(scoring, "MIN_SPLIT_CELLS", 1)
        runs = []
        for workers in (1, scoring.SCORE_WORKERS):
            monkeypatch.setattr(scoring, "SCORE_WORKERS", workers)
            splits.clear()
            records, state = run_stream(
                batches, world.label_space, world.corpus, world.oracle_client(),
                scenario_pipeline_config(), seed=42,
            )
            runs.append((records, state.lambda_history, any(splits)))
        assert runs[0][2] is False and runs[1][2] is True
        assert runs[0][:2] == runs[1][:2]


class TestCausality:
    def test_truncated_stream_reproduces_prefix(self):
        world_a, batches_a = small_setup(per_side=80, n_batches=4)
        world_b, batches_b = small_setup(per_side=80, n_batches=4)
        full, _ = run_stream(
            batches_a, world_a.label_space, world_a.corpus,
            world_a.oracle_client(), small_config(), seed=42,
        )
        prefix_batches = batches_b[:2]
        prefix, _ = run_stream(
            prefix_batches, world_b.label_space, world_b.corpus,
            world_b.oracle_client(), small_config(), seed=42,
        )
        n = sum(b.images.rows for b in prefix_batches)
        assert full[:n] == prefix
