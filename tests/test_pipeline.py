"""Streaming loop: fusion weight, regeneration gating, checkpoints, causality."""
import hashlib
import json
import struct

import numpy as np
import pytest

from negtext import pipeline, scoring
from negtext.embeddings import (
    EmbeddingMatrix, LabelSpace, NegativeSpace, TestBatch, batches_truth, decode_nspc,
    encode_nspc,
)
from negtext.errors import ConfigError, DataError, FormatError, GenerationError
from negtext.metrics import compute_report, split_scores
from negtext.mining import MiningConfig, classify_batch
from negtext.pipeline import (
    PipelineConfig,
    _inputs_digest,
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


class IdLabelDescriber:
    """Describes each image as another ID label; generates the rest as
    `inner` does."""

    def __init__(self, inner, labels):
        self.labels, self.described = labels, []
        self.similar_labels, self.embed_texts = inner.similar_labels, inner.embed_texts

    def describe_image(self, image_ref, exclude_label):
        self.described.append(image_ref)
        return next(label for label in self.labels if label != exclude_label)


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

    def test_sentences_that_are_all_id_labels_degrade(self):
        # each image described as another ID label of three words: the
        # sentence space keeps its texts and the stream goes on
        world, batches = small_setup(per_side=150)
        base = world.label_space
        labels = tuple(f"{label} id class" for label in base.labels)
        ids = LabelSpace(labels, base.features, base.prompt_template)
        client = IdLabelDescriber(world.oracle_client(), labels)
        records, state = run_stream(
            batches, ids, world.corpus, client, small_config(), seed=42
        )
        assert client.described and state.degraded
        assert state.ens_space is state.nl_space
        assert state.vsnl_space is not state.nl_space  # the lookalikes regenerate
        assert [r.image_id for r in records] == [
            i for b in batches for i in b.images.ids
        ]

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
        loaded = load_checkpoint(path, world.label_space, world.corpus)
        assert len(loaded.cache) == 100
        assert_cache_columns_match_rescore(loaded)


def assert_states_equal(loaded, state):
    """Every fact of two stream states is equal, every matrix bit for bit."""
    assert loaded.lambda_history == state.lambda_history
    assert (loaded.config, loaded.rng_seed, loaded.degraded) == (
        state.config, state.rng_seed, state.degraded
    )
    assert loaded.label_space is state.label_space
    assert loaded.cache.ids == state.cache.ids
    assert loaded.cache.n_seen == state.cache.n_seen
    assert loaded.cache.matrix().tobytes() == state.cache.matrix().tobytes()
    # the word space selects the same corpus rows; a space that still
    # aliased it loads in the stored form, with the same rows in text order
    assert loaded.nl_space.rows is state.nl_space.rows
    assert np.array_equal(loaded.nl_space.inverse, state.nl_space.inverse)
    for name in ("nl_space", "ens_space", "vsnl_space"):
        got, saved = getattr(loaded, name), getattr(state, name)
        assert got.texts == saved.texts, name
        assert got.stored_rows().tobytes() == saved.stored_rows().tobytes(), name
        assert got.merges == saved.merges, name
        if got.merges:
            assert got.rows.tobytes() == saved.rows.tobytes(), name
            assert np.array_equal(got.inverse, saved.inverse), name


def _checkpoint_header(path):
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<Q", raw[8:16])
    return json.loads(raw[16 : 16 + header_len])


def _edit_header(path, edit):
    """Rewrites the header of the checkpoint at `path` as `edit` changes it
    in place, or as the bytes it returns."""
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + header_len])
    new_header = edit(header)
    if not isinstance(new_header, bytes):
        new_header = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(
        raw[:8] + struct.pack("<Q", len(new_header)) + new_header
        + raw[16 + header_len :]
    )


def _nested_past_the_recursion_limit(header) -> bytes:
    """The header with its cache field a JSON array nested 200,000 deep."""
    text = json.dumps({**header, "cache": None})
    deep = "[" * 200_000 + "]" * 200_000
    return text.replace('"cache": null', f'"cache": {deep}').encode()


@pytest.fixture(scope="module")
def saved_stream(tmp_path_factory):
    """A small far stream's world and the checkpoint it ends with."""
    world, batches = small_setup(per_side=60, n_batches=2)
    _, state = run_stream(
        batches, world.label_space, world.corpus, world.oracle_client(),
        small_config(), seed=42,
    )
    path = tmp_path_factory.mktemp("checkpoint") / "state.nckp"
    save_checkpoint(state, path)
    return world, path


def _header_paths(node, prefix=""):
    """The dotted key path of every field of a JSON header, nested ones too."""
    for key, value in node.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _header_paths(value, f"{prefix}{key}.")


# every field of a version 3 header
HEADER_FIELDS = [
    "blob_sizes", "cache", "cache.ids", "cache.n_seen", "cache.rng_state",
    "cache.rng_state.bit_generator", "cache.rng_state.has_uint32",
    "cache.rng_state.state", "cache.rng_state.state.inc",
    "cache.rng_state.state.state", "cache.rng_state.uinteger",
    "config", "config.mining", "config.mining.cache_capacity",
    "config.mining.class_ratio", "config.mining.initial_threshold",
    "config.mining.selection_ratio", "config.num_negatives", "config.score",
    "config.score.group_size", "config.score.temperature",
    "config.sentence_len_max", "degraded", "digest", "lambda_history",
    "rng_seed", "spaces", "spaces.ens", "spaces.ens.inverse",
    "spaces.ens.texts", "spaces.vsnl", "spaces.vsnl.inverse",
    "spaces.vsnl.texts",
]


class TestCheckpoint:
    @pytest.fixture
    def saved(self, saved_stream, tmp_path):
        world, path = saved_stream
        copy = tmp_path / "state.nckp"
        copy.write_bytes(path.read_bytes())
        return world, copy

    def test_roundtrip_restores_state(self, tmp_path):
        world, batches = small_setup(per_side=60, n_batches=2)
        _, state = run_stream(
            batches, world.label_space, world.corpus, world.oracle_client(),
            small_config(), seed=42,
        )
        path = tmp_path / "state.nckp"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path, world.label_space, world.corpus)
        assert loaded.epoch == state.epoch and loaded.lambda_ == state.lambda_
        assert_states_equal(loaded, state)
        # nothing was mined: both adaptive spaces still aliased the word space
        assert state.ens_space is state.nl_space and loaded.ens_space.inverse is None

    def test_selection_saves_as_its_stored_copy(self, tmp_path):
        # before the first regeneration the adaptive spaces alias the word
        # space; the file is the one a stored copy of it writes, rows in
        # text order and no inverse
        world, batches = small_setup(scenario="mixed", n_batches=1, per_side=40)
        state = init_stream(world.label_space, world.corpus, small_config(), seed=42)
        nl = state.nl_space
        assert not nl.merges and np.shares_memory(nl.rows, world.corpus.features.data)
        path, copied = tmp_path / "selection.nckp", tmp_path / "copy.nckp"
        save_checkpoint(state, path)
        copy = NegativeSpace.from_rows(nl.texts, nl.stored_rows())
        assert copy.inverse is None
        state.nl_space = state.ens_space = state.vsnl_space = copy
        save_checkpoint(state, copied)
        assert path.read_bytes() == copied.read_bytes()
        assert _checkpoint_header(path)["spaces"]["ens"]["inverse"] is None

    @pytest.mark.parametrize("row_run", [37, 512])
    def test_inputs_digest_is_the_one_shot_sha256(self, monkeypatch, row_run):
        # the word space's rows are hashed a run at a time, the last ragged
        monkeypatch.setattr(pipeline, "_ROW_RUN", row_run)
        world, _ = small_setup(scenario="mixed")
        state = init_stream(world.label_space, world.corpus, small_config(), seed=42)
        ids, nl = state.label_space, state.nl_space
        assert nl.size % row_run and not nl.merges
        facts = [state.config.to_dict(), ids.labels, ids.prompt_template, nl.texts]
        one_shot = hashlib.sha256(json.dumps(facts, sort_keys=True).encode("utf-8"))
        one_shot.update(ids.features.data.astype("<f8").tobytes())
        one_shot.update(world.corpus.features.data[nl.inverse].astype("<f8").tobytes())
        assert _inputs_digest(state) == one_shot.hexdigest()

    def test_header_holds_each_fact_once(self, saved):
        # the labels and the word space are the inputs', the cache's
        # capacity the config's; three float64 matrices follow the header
        _, path = saved
        header = _checkpoint_header(path)
        assert sorted(_header_paths(header)) == HEADER_FIELDS
        raw = path.read_bytes()
        cursor = len(raw) - sum(header["blob_sizes"])
        for size in header["blob_sizes"]:
            assert raw[cursor : cursor + 8] == b"NSPC\x02\x00\x00\x00"
            cursor += size

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "state.nckp"
        path.write_bytes(b"JUNKJUNKJUNKJUNK")
        with pytest.raises(FormatError):
            load_checkpoint(path, None, None)

    def test_version_1_rejected_with_its_path(self, saved):
        world, path = saved
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
        with pytest.raises(FormatError, match=f"{path}: unsupported checkpoint version 1"):
            load_checkpoint(path, world.label_space, world.corpus)

    def test_version_2_rejected_with_one_line(self, saved):
        # version 2 stored the labels, the word space and float32 rows
        world, path = saved
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + struct.pack("<I", 2) + raw[8:])
        with pytest.raises(FormatError) as excinfo:
            load_checkpoint(path, world.label_space, world.corpus)
        assert str(excinfo.value) == f"{path}: unsupported checkpoint version 2"

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
        loaded = load_checkpoint(path, world.label_space, world.corpus)
        assert_states_equal(loaded, state)
        assert_cache_columns_match_rescore(loaded)

    def test_sentence_space_stores_each_text_once_and_roundtrips(self, tmp_path):
        world, batches = small_setup(scenario="mixed", n_batches=3, per_side=40)
        _, state = run_stream(
            batches, world.label_space, world.corpus, world.oracle_client(),
            small_config(), seed=42,
        )
        ens = state.ens_space
        assert ens.rows.shape[0] == len(set(ens.texts)) < ens.size
        path = tmp_path / "state.nckp"
        save_checkpoint(state, path)
        stored = _checkpoint_header(path)["spaces"]["ens"]
        assert stored["inverse"] == ens.inverse.tolist()
        loaded = load_checkpoint(path, world.label_space, world.corpus).ens_space
        assert loaded.rows.tobytes() == ens.rows.tobytes()
        assert np.array_equal(loaded.inverse, ens.inverse)
        assert not loaded.rows.flags.writeable and not loaded.inverse.flags.writeable

    def test_resave_is_byte_identical(self, saved, tmp_path):
        world, path = saved
        again = tmp_path / "again.nckp"
        save_checkpoint(load_checkpoint(path, world.label_space, world.corpus), again)
        assert again.read_bytes() == path.read_bytes()

    def test_cache_ids_not_matching_rows_rejected(self, saved):
        world, path = saved
        _edit_header(path, lambda header: header["cache"]["ids"].pop())
        with pytest.raises(FormatError, match=str(path)):
            load_checkpoint(path, world.label_space, world.corpus)

    @pytest.mark.parametrize("edit", [
        lambda header: header["spaces"]["ens"].pop("texts"),
        lambda header: header.pop("spaces"),
        lambda header: header.pop("cache"),
        lambda header: header["spaces"].pop("vsnl"),
        lambda header: header.update(lambda_history=5),
        lambda header: header["spaces"]["ens"]["texts"].pop(),
        lambda header: header.update(lambda_history=["x"]),
        lambda header: header.update(lambda_history=[7.0]),
        lambda header: header["spaces"]["ens"]["texts"].__setitem__(0, 5),
        lambda header: header.update(degraded="no"),
        lambda header: header["cache"].update(n_seen=-5),
        lambda header: header["cache"].update(n_seen=3),
        lambda header: header["cache"].update(n_seen=float(header["cache"]["n_seen"])),
        lambda header: header["config"]["mining"].update(cache_capacity=0),
        lambda header: header["config"]["mining"].update(
            cache_capacity=len(header["cache"]["ids"]) - 1
        ),
        lambda header: header["config"].update(bogus=1),
        lambda header: header["cache"]["rng_state"]["state"].update(state=-1),
        lambda header: header["cache"]["rng_state"]["state"].update(inc=10**40),
        lambda header: header["cache"]["ids"].__setitem__(0, 5),
        lambda header: header.update(rng_seed=True),
        lambda header: header.update(rng_seed=[]),
        lambda header: header.update(digest="x"),
        lambda header: header["spaces"]["vsnl"].update(inverse=[0] * 10),
        lambda header: header["spaces"]["vsnl"].update(
            inverse=[-1] + list(range(1, len(header["spaces"]["vsnl"]["texts"])))
        ),
        lambda header: header["spaces"]["vsnl"].update(
            inverse=[0.0] + list(range(1, len(header["spaces"]["vsnl"]["texts"])))
        ),
        lambda header: header["cache"]["rng_state"].update(has_uint32=True),
        lambda header: header["cache"]["rng_state"]["state"].update(state=1.0),
        lambda header: header["cache"].update(capacity=20000),
        lambda header: header.update(labels=["a"]),
        _nested_past_the_recursion_limit,
    ], ids=["no-texts", "no-spaces", "no-cache", "no-vsnl",
            "history-not-list", "texts-not-rows", "history-not-number",
            "history-out-of-range", "text-not-str", "degraded-not-bool",
            "n-seen-negative", "n-seen-below-rows", "n-seen-not-int",
            "capacity-zero", "capacity-below-rows",
            "config-unknown-key", "rng-state-negative", "rng-inc-too-wide",
            "cache-id-not-str", "rng-seed-bool", "rng-seed-list",
            "digest-wrong", "inverse-short", "inverse-negative", "inverse-float",
            "rng-flag-bool", "rng-state-float", "stored-capacity",
            "stored-labels", "nested-past-recursion-limit"])
    def test_bad_header_field_rejected_with_one_line(self, saved, edit):
        world, path = saved
        _edit_header(path, edit)
        # a header that does not parse is unreadable; one that does has a bad field
        problem = "bad checkpoint header field"
        if edit is _nested_past_the_recursion_limit:
            problem = "unreadable checkpoint header"
        with pytest.raises(FormatError, match=f"{path}: {problem}") as excinfo:
            load_checkpoint(path, world.label_space, world.corpus)
        assert "\n" not in str(excinfo.value)

    @pytest.mark.parametrize("field", HEADER_FIELDS)
    def test_header_mutation_fails_with_one_line_or_resaves(
        self, saved, tmp_path, field
    ):
        """Each header field set to values of every JSON type: the load
        fails with one line, or the loaded state saves back byte-identical."""
        world, path = saved
        keys = field.split(".")
        original = path.read_bytes()
        again = tmp_path / "again.nckp"
        for value in (None, True, -1, 1.5, "x", [], {}, 1e20):
            path.write_bytes(original)

            def edit(header):
                node = header
                for key in keys[:-1]:
                    node = node[key]
                node[keys[-1]] = value

            _edit_header(path, edit)
            try:
                state = load_checkpoint(path, world.label_space, world.corpus)
            except FormatError as exc:
                assert str(exc).startswith(f"{path}: ") and "\n" not in str(exc)
                continue
            save_checkpoint(state, again)
            assert again.read_bytes() == path.read_bytes(), (field, value)

    @pytest.mark.parametrize("other", ["labels", "corpus", "both"])
    def test_other_worlds_inputs_rejected(self, saved, other):
        world, path = saved
        another = SyntheticWorld(scenario_world_config("far", seed=43))
        ids = another.label_space if other != "corpus" else world.label_space
        corpus = another.corpus if other != "labels" else world.corpus
        with pytest.raises(FormatError, match="digest") as excinfo:
            load_checkpoint(path, ids, corpus)
        message = str(excinfo.value)
        assert message.startswith(f"{path}: bad checkpoint header field")
        assert "\n" not in message

    def test_wrong_matrix_count_rejected(self, saved):
        def merge_last_two(header):
            sizes = header["blob_sizes"]
            sizes[-2:] = [sizes[-2] + sizes[-1]]

        world, path = saved
        _edit_header(path, merge_last_two)
        with pytest.raises(FormatError, match=f"{path}: expected 3 matrices"):
            load_checkpoint(path, world.label_space, world.corpus)

    def test_float32_matrix_rejected_with_one_line(self, saved):
        # a stream resumes exactly only from the float64 rows it held
        world, path = saved
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16 : 16 + header_len])
        start = 16 + header_len
        cache_blob = raw[start : start + header["blob_sizes"][0]]
        rows = decode_nspc(cache_blob, "cache").astype(np.float32)
        header["blob_sizes"][0] = len(encode_nspc(rows, 1))
        new_header = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(
            raw[:8] + struct.pack("<Q", len(new_header)) + new_header
            + encode_nspc(rows, 1) + raw[start + len(cache_blob) :]
        )
        with pytest.raises(FormatError) as excinfo:
            load_checkpoint(path, world.label_space, world.corpus)
        assert str(excinfo.value) == (
            f"{path} [cache]: rows must be NSPC version 2 (float64)"
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("row", [0, 3])
    @pytest.mark.parametrize("entry, norm", [(np.nan, "nan"), (1e300, "inf")])
    def test_non_finite_cache_row_names_the_blob_and_row(self, saved, row, entry, norm):
        # the cache rows are the one matrix a load does not normalize; an
        # entry of 1e300 is finite, but its row's norm overflows. The header
        # is sound, so the one-line refusal names the blob and the row
        world, path = saved
        raw = bytearray(path.read_bytes())
        (header_len,) = struct.unpack("<Q", raw[8:16])
        dim = world.label_space.features.dim
        entry_at = 16 + header_len + 20 + row * dim * 8  # past the cache blob's header
        raw[entry_at : entry_at + 8] = struct.pack("<d", entry)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as excinfo:
            load_checkpoint(path, world.label_space, world.corpus)
        assert str(excinfo.value) == (
            f"{path} [cache]: cache row {row} has norm {norm}, not 1"
        )

    @pytest.mark.parametrize("where", ["header", "cache blob", "last space blob"])
    def test_truncated_file_rejected_with_its_path(self, saved, where):
        world, path = saved
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<Q", raw[8:16])
        sizes = json.loads(raw[16 : 16 + header_len])["blob_sizes"]
        cut = {
            "header": 16 + header_len // 2,
            "cache blob": 16 + header_len + sizes[0] // 2,
            "last space blob": len(raw) - sizes[-1] // 2,
        }[where]
        path.write_bytes(raw[:cut])
        with pytest.raises(FormatError, match=str(path)):
            load_checkpoint(path, world.label_space, world.corpus)


@pytest.fixture(scope="module", params=["far", "near", "mixed"])
def split_stream(request, tmp_path_factory):
    """A five-batch stream run whole, with a checkpoint saved after each of
    its first four batches. Its 500-image cache fills in batch 3, so the
    later checkpoints carry a reservoir that has replaced rows."""
    world = SyntheticWorld(scenario_world_config(request.param, seed=42))
    batches = world.make_batches(5, 100, 100)
    mining = {**scenario_pipeline_config().mining.__dict__, "cache_capacity": 500}
    state = init_stream(
        world.label_space, world.corpus, small_config(mining=mining), seed=42
    )
    client = world.oracle_client()
    folder = tmp_path_factory.mktemp(f"split_{request.param}")
    records, checkpoints = [], {}
    for k, batch in enumerate(batches, start=1):
        records.append(process_batch(state, batch, client))
        checkpoints[k] = folder / f"after_{k}.nckp"
        save_checkpoint(state, checkpoints[k])
    return world, batches, records, state.lambda_history, checkpoints


class TestResume:
    @pytest.mark.parametrize("split", [1, 2, 3, 4])
    def test_resumed_stream_equals_the_uninterrupted_run(self, split_stream, split):
        world, batches, records, history, checkpoints = split_stream
        state = load_checkpoint(checkpoints[split], world.label_space, world.corpus)
        # a fresh client, as a new process would build
        client = world.oracle_client()
        resumed = [process_batch(state, batch, client) for batch in batches[split:]]
        assert resumed == records[split:]
        assert state.lambda_history == history
        assert state.cache.n_seen == 1000 and len(state.cache) == 500


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


    @pytest.mark.parametrize("repeating", [False, True])
    def test_mixed_stream_is_bit_equal_on_one_score_worker(self, monkeypatch, repeating):
        """Split scoring (thresholds lowered so the regression stream's word
        and lookalike products split) against one score worker; also with
        lookalike lists that repeat across classes, so that the lookalike
        space is ragged and its products are padded."""
        world = SyntheticWorld(scenario_world_config("mixed", seed=42))
        batches = world.make_batches(5, 400, 400)
        sizes = set()
        splits = []

        class Counted(scoring.ThreadPoolExecutor):
            """A score pool that notes each part it is dealt."""

            def submit(self, *args, **kwargs):
                splits.append(True)
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(scoring, "ThreadPoolExecutor", Counted)
        monkeypatch.setattr(scoring, "MIN_SPLIT_CELLS", 1)
        runs = []
        for workers in (1, scoring.SCORE_WORKERS):
            monkeypatch.setattr(scoring, "SCORE_WORKERS", workers)
            splits.clear()
            client = world.oracle_client()
            if repeating:
                client = RepeatingLookalikes(client, world.label_space.labels[0])
            records, state = run_stream(
                batches, world.label_space, world.corpus, client,
                scenario_pipeline_config(), seed=42,
            )
            runs.append((records, state.lambda_history, any(splits)))
            sizes.add(state.vsnl_space.size)
        assert runs[0][2] is False and runs[1][2] is True
        assert runs[0][:2] == runs[1][:2]
        ragged = {size for size in sizes if size % scoring.WIDTH_MULTIPLE}
        assert bool(ragged) == repeating, sizes


class RepeatingLookalikes:
    """The oracle client, except that every class's lookalike list opens
    with the first three of one class's, as a real MLLM repeats labels
    across classes: the lookalike space keeps fewer than M texts."""

    def __init__(self, oracle, shared_class: str):
        self.oracle = oracle
        self.shared_class = shared_class

    def describe_image(self, image_ref, exclude_label):
        return self.oracle.describe_image(image_ref, exclude_label)

    def similar_labels(self, class_name, count):
        shared = self.oracle.similar_labels(self.shared_class, 3)
        return shared + self.oracle.similar_labels(class_name, count)[3:]

    def embed_texts(self, texts):
        return self.oracle.embed_texts(texts)


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
