"""Negative-space construction: initial words, sentences, lookalike labels."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negtext import scoring, spaces
from negtext.clients import HttpGenerationClient
from negtext.embeddings import EmbeddingMatrix, LabelSpace, NegativeSpace
from negtext.errors import GenerationError, InputError
from negtext.mining import MinedNegatives
from negtext.pipeline import PipelineConfig, init_stream
from negtext.scoring import ScoreConfig
from negtext.spaces import (
    CorpusCandidates,
    _word_pattern,
    embed_space,
    generate_ens,
    generate_vsnl,
    select_initial_nls,
)

from conftest import ScriptedClient, make_label_space, unit_rows
from test_clients import FakeResponse, FakeSession


def make_corpus(words, vectors):
    return CorpusCandidates(
        words=tuple(words),
        features=EmbeddingMatrix.from_rows(
            [f"c{i}" for i in range(len(words))], np.asarray(vectors)
        ),
    )


class TestSelectInitialNls:
    def test_exact_id_duplicate_excluded(self):
        ids = make_label_space(n=2, dim=4, seed=0)
        rng = np.random.default_rng(1)
        corpus = make_corpus(
            ["other", " LABEL_0 ", "another"], unit_rows(rng, 3, 4)
        )
        space = select_initial_nls(corpus, ids, 2)
        assert " LABEL_0 " not in space.texts

    def test_dissimilar_words_rank_first(self):
        ids = make_label_space(n=1, dim=4, seed=2)
        proto = ids.features.data[0]
        orth = np.zeros(4)
        orth[np.argmin(np.abs(proto))] = 1.0
        orth -= np.dot(orth, proto) * proto
        orth /= np.linalg.norm(orth)
        near = 0.95 * proto + 0.05 * orth
        corpus = make_corpus(["near", "orth"], [near, orth])
        space = select_initial_nls(corpus, ids, 1)
        assert space.texts == ("orth",)

    def test_insufficient_corpus_rejected(self):
        ids = make_label_space(n=1, dim=4, seed=3)
        rng = np.random.default_rng(4)
        corpus = make_corpus(["w0", "label_0"], unit_rows(rng, 2, 4))
        with pytest.raises(InputError):
            select_initial_nls(corpus, ids, 2)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_matches_exhaustive_sort_oracle(self, seed):
        rng = np.random.default_rng(seed)
        ids = make_label_space(n=3, dim=6, seed=seed)
        words = [f"w{i}" for i in range(12)]
        corpus = make_corpus(words, unit_rows(rng, 12, 6))
        space = select_initial_nls(corpus, ids, 5)
        max_sim = {
            w: float(np.max(ids.features.data @ corpus.features.data[i]))
            for i, w in enumerate(words)
        }
        expected = sorted(words, key=lambda w: max_sim[w])[:5]
        assert list(space.texts) == expected


    @pytest.mark.parametrize("excluded", [False, True], ids=["all-words", "id-word"])
    def test_stream_word_space_equal_at_one_and_two_workers(self, monkeypatch, excluded):
        # 64 labels and tiles of 70 rows: the selection's product splits
        # between two workers and each walks several tiles
        monkeypatch.setattr(scoring, "MIN_SPLIT_CELLS", 1)
        monkeypatch.setattr(scoring, "BLOCK_CELLS", 64 * 70)
        ids = make_label_space(n=64, dim=64, seed=11)
        words = [f"w{i}" for i in range(500)]
        if excluded:
            words[7] = " LABEL_3"
        corpus = make_corpus(words, unit_rows(np.random.default_rng(12), 500, 64))
        cfg = PipelineConfig(score=ScoreConfig(group_size=10), num_negatives=300)
        spaces_at = []
        for workers in (1, 2):
            monkeypatch.setattr(scoring, "SCORE_WORKERS", workers)
            spaces_at.append(init_stream(ids, corpus, cfg, seed=0).nl_space)
        one, two = spaces_at
        assert one.texts == two.texts and (" LABEL_3" in one.texts) is False
        # both select the corpus rows, the same ones
        assert one.rows is corpus.features.data and two.rows is corpus.features.data
        assert np.array_equal(one.inverse, two.inverse)
        assert not one.merges and not two.merges
        keep = [i for i, w in enumerate(words) if w != " LABEL_3"]
        max_sim = np.max(corpus.features.data[keep] @ ids.features.data.T, axis=1)
        order = np.argsort(max_sim, kind="stable")[:300]
        assert one.texts == tuple(words[keep[i]] for i in order)

    @pytest.mark.parametrize("excluded", [False, True], ids=["all-words", "id-word"])
    def test_rows_are_the_chosen_corpus_rows(self, excluded):
        ids = make_label_space(n=3, dim=8, seed=21)
        words = [f"w{i}" for i in range(40)]
        if excluded:
            words[5] = "Label_1"
        corpus = make_corpus(words, unit_rows(np.random.default_rng(22), 40, 8))
        space = select_initial_nls(corpus, ids, 25)
        assert "Label_1" not in space.texts and not space.merges
        # a selection: the corpus matrix itself, and the chosen rows' indices
        chosen = [words.index(w) for w in space.texts]
        assert space.rows is corpus.features.data
        assert space.inverse.tolist() == chosen
        stored = space.stored_rows()
        assert stored.tobytes() == corpus.features.data[chosen].tobytes()
        # normalizing them again, as a client's rows are, changes no byte
        again = NegativeSpace.from_rows(space.texts, stored)
        assert again.rows.tobytes() == stored.tobytes() and again.inverse is None
        assert not space.rows.flags.writeable and not space.inverse.flags.writeable

    def test_repeated_word_with_byte_equal_row_merges(self):
        ids = make_label_space(n=2, dim=4, seed=23)
        rows = unit_rows(np.random.default_rng(24), 4, 4)
        # "a" repeats its row; "b" repeats with another row and stays apart
        corpus = make_corpus(["a", "b", "a", "b"], rows[[0, 1, 0, 2]])
        space = select_initial_nls(corpus, ids, 4)
        data = corpus.features.data
        order = np.argsort(np.max(data @ ids.features.data.T, axis=1), kind="stable")
        assert space.texts == tuple(corpus.words[i] for i in order)
        assert space.rows.shape[0] == 3 and not space.rows.flags.writeable
        assert space.merges
        a_rows = {space.inverse[i] for i, w in enumerate(space.texts) if w == "a"}
        assert len(a_rows) == 1
        assert space.stored_rows().tobytes() == data[order].tobytes()

    def test_holds_one_copy_of_the_chosen_rows(self):
        # the corpus's: the 4 labels are padded to 64 columns, so the product
        # is one 2 MB tile of 4,000 x 64 cells, and a second copy of the
        # chosen rows, 3,000 x 256 (6 MB), would be the largest allocation
        ids = make_label_space(n=4, dim=256, seed=25)
        words = [f"w{i}" for i in range(4000)]
        corpus = make_corpus(words, unit_rows(np.random.default_rng(26), 4000, 256))
        m = 3000
        chosen_bytes = m * 256 * 8
        tracemalloc.start()
        try:
            space = select_initial_nls(corpus, ids, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(space.rows, corpus.features.data)
        # the selection's small arrays and its 4,000 x 64 tile only
        assert peak < 4000 * 64 * 8 + chosen_bytes // 10, peak / chosen_bytes

    def test_paper_shape_space_shares_the_corpus_and_scores_in_tiles(
        self, monkeypatch
    ):
        # dim 512, 1,000 labels, M = 10,000 of 10,500 words, 1,000 images
        ids = make_label_space(n=1000, dim=512, seed=27)
        rng = np.random.default_rng(28)
        corpus = make_corpus([f"w{i}" for i in range(10500)], unit_rows(rng, 10500, 512))
        state = init_stream(ids, corpus, PipelineConfig(), seed=0)
        space = state.nl_space
        assert np.shares_memory(state.nl_space.rows, corpus.features.data)
        assert state.ens_space is space and state.vsnl_space is space
        images = unit_rows(rng, 1000, 512)
        cfg = state.config.score
        lse_id, _ = scoring.id_part(images, ids, cfg)
        copy = NegativeSpace.from_rows(space.texts, space.stored_rows())
        # 1,000 images: per worker a tile of 500 x 1,000 cells and its 1,000
        # gathered rows of 512, each within the budget; gathering a copy of
        # the word space (41 MB) or buffering each gather would exceed it.
        # 100 images take one worker, whose gathered runs keep the budget
        # too, though its tiles could be 5,200 columns wide. Each worker
        # gathers only its own column runs, each once: 10,000 rows a call
        gathered = []
        take = np.take
        monkeypatch.setattr(
            np, "take",
            lambda a, indices, **kw: gathered.append(len(indices)) or take(a, indices, **kw),
        )
        for n, workers in ((1000, scoring.SCORE_WORKERS), (100, 1)):
            gathered.clear()
            tracemalloc.start()
            try:
                got = scoring.negative_scores(images[:n], lse_id[:n], space, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sum(gathered) == space.size == 10000, n
            buffers = workers * 2 * scoring.BLOCK_CELLS * 8
            assert peak < buffers + got.nbytes + (1 << 20), (n, peak / buffers)
            expected = scoring.negative_scores(images[:n], lse_id[:n], copy, cfg)
            assert got.tobytes() == expected.tobytes()


class TestEmbedSpace:
    def test_no_template_embeds_verbatim(self):
        client = ScriptedClient(dim=4)
        embed_space(["a full sentence"], make_label_space(dim=4), client)
        assert client.embed_calls == [["a full sentence"]]

    def test_empty_texts_rejected(self):
        with pytest.raises(InputError):
            embed_space([], make_label_space(), ScriptedClient())

    def test_vector_count_mismatch_rejected(self):
        class BadClient(ScriptedClient):
            def embed_texts(self, texts):
                return super().embed_texts(texts)[:-1]

        with pytest.raises(GenerationError):
            embed_space(["a", "b"], make_label_space(dim=4), BadClient(dim=4))

    @pytest.mark.parametrize(
        "vectors",
        [
            [[1.0, 0.0], [1.0]],
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            [[1.0, 0.0]] * 3,
            [[1.0, "x"], [0.0, 1.0]],
            [[10**400, 0.0], [0.0, 1.0]],
            {"a": 1.0},
            None,
        ],
        ids=[
            "ragged", "width-long", "count-long", "string",
            "int-overflow", "object", "none",
        ],
    )
    def test_malformed_answer_rejected(self, vectors):
        """What any client returns is checked here."""

        class Client(ScriptedClient):
            def embed_texts(self, texts):
                return vectors

        with pytest.raises(GenerationError):
            embed_space(["a", "b"], make_label_space(dim=2), Client(dim=2))

    def test_http_answer_of_wrong_count_rejected(self):
        session = FakeSession([FakeResponse({"vectors": [[1.0, 0.0]]})])
        client = HttpGenerationClient("http://unit.test/api", session=session)
        with pytest.raises(GenerationError):
            embed_space(["x", "y"], make_label_space(dim=2), client)


class TestContainsWord:
    def test_whole_word_matching(self):
        fox = _word_pattern("fox")
        assert fox.search("a red fox runs")
        assert fox.search("A RED FOX")
        assert not fox.search("a foxhound runs")
        assert fox.search("the fox.")
        assert _word_pattern("a.b").search("axb") is None  # escaped


def mined(ids):
    return MinedNegatives(
        image_ids=tuple(ids),
        indices=tuple(range(len(ids))),
        gamma_star=0.5 if ids else None,
    )


class TestGenerateEns:
    def test_exact_fit(self):
        client = ScriptedClient(
            dim=4,
            descriptions={
                "i0": ["a small red thing"],
                "i1": ["a large blue thing"],
                "i2": ["a round green thing"],
            },
        )
        labels = {"i0": "label_0", "i1": "label_1", "i2": "label_0"}
        ids = make_label_space(n=2, dim=4, seed=5)
        space = generate_ens(mined(["i0", "i1", "i2"]), labels, ids, client, 3, seed=0)
        assert space.texts == (
            "a small red thing",
            "a large blue thing",
            "a round green thing",
        )

    def test_round_robin_repeats_until_m(self):
        # 2 negatives, M=5 -> passes of 2 until five sentences exist (3+2)
        client = ScriptedClient(
            dim=4,
            descriptions={"i0": ["first thing seen"], "i1": ["second thing seen"]},
        )
        labels = {"i0": "label_0", "i1": "label_1"}
        ids = make_label_space(n=2, dim=4, seed=6)
        space = generate_ens(mined(["i0", "i1"]), labels, ids, client, 5, seed=0)
        assert len(space.texts) == 5
        # requests of one pass overlap, so only each pass's content is fixed:
        # both images, both again, then the one sentence still missing
        calls = [c[0] for c in client.describe_calls]
        assert [sorted(calls[:2]), sorted(calls[2:4]), calls[4:]] == [
            ["i0", "i1"], ["i0", "i1"], ["i0"]
        ]
        # the sentences keep request order
        assert space.texts == (
            "first thing seen", "second thing seen",
            "first thing seen", "second thing seen",
            "first thing seen",
        )

    def test_oversupply_subsample_is_seeded(self):
        descriptions = {
            f"i{k}": [f"thing number {k} here"] for k in range(10)
        }
        labels = {f"i{k}": "label_0" for k in range(10)}
        ids = make_label_space(n=2, dim=4, seed=7)
        picks = []
        for _ in range(2):
            client = ScriptedClient(dim=4, descriptions=descriptions)
            space = generate_ens(
                mined([f"i{k}" for k in range(10)]), labels, ids, client, 4, seed=9
            )
            picks.append(space.texts)
        assert picks[0] == picks[1]
        assert len(picks[0]) == 4

    def test_excluded_label_retried_then_dropped(self):
        # i0 keeps naming its label and is dropped; i1 fills the space
        client = ScriptedClient(
            dim=4,
            descriptions={
                "i0": ["the label_0 again"] * 3,
                "i1": ["an unrelated looking thing"],
            },
        )
        labels = {"i0": "label_0", "i1": "label_1"}
        ids = make_label_space(n=2, dim=4, seed=8)
        space = generate_ens(mined(["i0", "i1"]), labels, ids, client, 2, seed=0)
        assert all("label_0" not in t for t in space.texts)
        # three attempts were spent on the sticky image per pass
        assert [c for c in client.describe_calls if c[0] == "i0"][:3] == [
            ("i0", "label_0")
        ] * 3

    def test_id_label_sentence_dropped_testing_each_distinct_sentence_once(
        self, monkeypatch
    ):
        calls = []
        canon = spaces._canon_label
        monkeypatch.setattr(
            spaces, "_canon_label", lambda text: calls.append(text) or canon(text)
        )
        ids = LabelSpace(
            labels=("a big cat", "label_1"),
            features=EmbeddingMatrix.from_rows(
                ["t0", "t1"], unit_rows(np.random.default_rng(13), 2, 4)
            ),
        )
        client = ScriptedClient(
            dim=4, descriptions={"i0": ["A big  CAT"], "i1": ["a small red thing"]}
        )
        labels = {"i0": "label_1", "i1": "label_1"}
        # round-robin: each image is described three times
        space = generate_ens(mined(["i0", "i1"]), labels, ids, client, 6, seed=0)
        assert space.texts == ("a small red thing",) * 3
        assert sorted(calls) == ["A big  CAT", "a small red thing"]

    def test_overlong_sentence_truncated(self):
        long = " ".join(f"w{k}" for k in range(30))
        client = ScriptedClient(dim=4, descriptions={"i0": [long]})
        ids = make_label_space(n=1, dim=4, seed=9)
        space = generate_ens(mined(["i0"]), {"i0": "label_0"}, ids, client, 1, seed=0)
        assert len(space.texts[0].split()) == 15

    def test_short_sentence_window_configurable(self):
        client = ScriptedClient(dim=4, descriptions={"i0": ["just two words ok"]})
        ids = make_label_space(n=1, dim=4, seed=10)
        space = generate_ens(
            mined(["i0"]), {"i0": "label_0"}, ids, client, 1, seed=0,
            len_max=4,
        )
        assert space.texts == ("just two words ok",)

    @pytest.mark.parametrize(
        "labels, description",
        [
            (("label_0",), "label_0 label_0 label_0"),
            # admitted as a sentence, then dropped as an ID label
            (("red fox cub", "grey wolf pup"), "Grey wolf  pup"),
        ],
        ids=["excluded-label", "other-id-label"],
    )
    def test_nothing_admissible_raises(self, labels, description):
        client = ScriptedClient(dim=4, descriptions={"i0": [description] * 3})
        base = make_label_space(n=len(labels), dim=4, seed=11)
        ids = LabelSpace(labels, base.features)
        with pytest.raises(GenerationError):
            generate_ens(mined(["i0"]), {"i0": labels[0]}, ids, client, 1, seed=0)
        assert client.embed_calls == []

    def test_empty_negatives_rejected(self):
        ids = make_label_space(n=1, dim=4, seed=12)
        with pytest.raises(InputError):
            generate_ens(mined([]), {}, ids, ScriptedClient(dim=4), 1, seed=0)


class TestGenerateVsnl:
    def test_direct_pass_through(self):
        ids = make_label_space(n=2, dim=4, seed=13)
        client = ScriptedClient(
            dim=4, similars={"label_0": ["coyote", "jackal", "dingo"]}
        )
        space = generate_vsnl((0,), ids, client, 3)
        assert space.texts == ("coyote", "jackal", "dingo")
        # labels are embedded through the prompt template
        assert client.embed_calls == [
            ["The nice coyote.", "The nice jackal.", "The nice dingo."]
        ]

    def test_template_substitution_reaches_client(self):
        base = make_label_space(n=2, dim=4, seed=13)
        ids = LabelSpace(base.labels, base.features, "a photo of a <label>, cropped")
        client = ScriptedClient(dim=4, similars={"label_1": ["coyote", "jackal"]})
        space = generate_vsnl((1,), ids, client, 2)
        # the space holds the labels; the client embeds them in the template
        assert space.texts == ("coyote", "jackal")
        assert client.embed_calls == [
            ["a photo of a coyote, cropped", "a photo of a jackal, cropped"]
        ]

    def test_id_label_candidates_removed(self):
        ids = make_label_space(n=2, dim=4, seed=14)
        client = ScriptedClient(
            dim=4, similars={"label_0": ["coyote", " Label_1 ", "dingo"]}
        )
        space = generate_vsnl((0,), ids, client, 3)
        assert space.texts == ("coyote", "dingo")

    def test_cross_class_duplicates_kept_once(self):
        ids = make_label_space(n=2, dim=4, seed=15)
        client = ScriptedClient(
            dim=4,
            similars={"label_0": ["coyote", "wolf"], "label_1": ["Coyote", "lynx"]},
        )
        space = generate_vsnl((0, 1), ids, client, 4)
        assert space.texts == ("coyote", "wolf", "lynx")

    def test_truncates_to_m_in_generation_order(self):
        ids = make_label_space(n=2, dim=4, seed=16)
        client = ScriptedClient(
            dim=4, similars={"label_0": ["a1", "a2", "a3"], "label_1": ["b1", "b2"]}
        )
        # ceil(3 / 2) = 2 per class -> a1 a2 b1 b2, truncated to M = 3
        space = generate_vsnl((0, 1), ids, client, 3)
        assert space.texts == ("a1", "a2", "b1")

    def test_per_class_request_count(self):
        ids = make_label_space(n=3, dim=4, seed=17)
        client = ScriptedClient(
            dim=4, similars={"label_0": ["x1", "x2", "x3"], "label_2": ["y1", "y2", "y3"]}
        )
        generate_vsnl((0, 2), ids, client, 5)
        # ceil(5 / 2) = 3 candidates requested per subset class
        assert client.similar_calls == [("label_0", 3), ("label_2", 3)]

    def test_no_admissible_labels_raises(self):
        ids = make_label_space(n=1, dim=4, seed=18)
        client = ScriptedClient(dim=4, similars={"label_0": ["label_0"]})
        with pytest.raises(GenerationError):
            generate_vsnl((0,), ids, client, 2)

    def test_empty_subset_rejected(self):
        ids = make_label_space(n=1, dim=4, seed=19)
        with pytest.raises(InputError):
            generate_vsnl((), ids, ScriptedClient(dim=4), 2)
