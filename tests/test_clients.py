"""Client boundary: request hashing, HTTP retries, record/replay fixtures,
and junk answers, which degrade the stream whichever client returns them."""
import json
import shutil
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import requests

from negtext import clients
from negtext.clients import (
    HttpGenerationClient,
    RecordingClient,
    ReplayClient,
    request_key,
)
from negtext.errors import GenerationError
from negtext.pipeline import run_stream

from conftest import ScriptedClient
from test_pipeline import small_config, small_setup


class TestRequestKey:
    def test_key_is_order_insensitive(self):
        a = request_key({"task": "embed", "texts": ["x"]})
        b = request_key({"texts": ["x"], "task": "embed"})
        assert a == b

    def test_key_distinguishes_payloads(self):
        assert request_key({"task": "embed", "texts": ["x"]}) != request_key(
            {"task": "embed", "texts": ["y"]}
        )


class FakeResponse:
    def __init__(self, payload=None, status=200):
        self._payload = payload
        self.status_code = status

    def raise_for_status(self):
        if self.status_code >= 400:
            raise requests.HTTPError(f"status {self.status_code}")

    def json(self):
        if self._payload is None:
            raise ValueError("no json body")
        return self._payload


class FakeSession:
    """Pops one scripted response (or exception) per post call."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    monkeypatch.setattr(clients, "HTTP_BACKOFF_S", 0.0)


class TestHttpGenerationClient:
    def _client(self, responses):
        session = FakeSession(responses)
        client = HttpGenerationClient(
            "http://unit.test/api", auth_token="tok", session=session
        )
        return client, session

    def test_describe_happy_path(self):
        client, session = self._client([FakeResponse({"texts": ["a red thing"]})])
        assert client.describe_image("img_1", "fox") == "a red thing"
        sent = session.calls[0]
        assert sent["json"] == {"task": "describe", "text": "img_1", "exclude": "fox"}
        assert sent["headers"]["Authorization"] == "Bearer tok"

    def test_retry_then_success(self):
        client, session = self._client(
            [
                requests.ConnectionError("down"),
                FakeResponse(status=500),
                FakeResponse({"texts": ["ok now"]}),
            ]
        )
        assert client.describe_image("img_1", "fox") == "ok now"
        assert len(session.calls) == 3

    def test_client_error_is_not_retried(self):
        client, session = self._client([FakeResponse(status=404)] * 3)
        with pytest.raises(GenerationError):
            client.describe_image("img_1", "fox")
        assert len(session.calls) == 1

    def test_exhausted_retries_raise_with_image_id(self, monkeypatch):
        monkeypatch.setattr(clients, "HTTP_ATTEMPTS", 2)
        client, session = self._client([requests.ConnectionError("down")] * 3)
        with pytest.raises(GenerationError) as err:
            client.describe_image("img_7", "fox")
        assert err.value.image_id == "img_7"
        assert len(session.calls) == 2

    def test_empty_describe_response_raises(self):
        client, _ = self._client([FakeResponse({"texts": []})])
        with pytest.raises(GenerationError):
            client.describe_image("img_1", "fox")

    def test_similar_labels(self):
        client, session = self._client([FakeResponse({"texts": ["a", "b"]})])
        assert client.similar_labels("fox", 2) == ["a", "b"]
        assert session.calls[0]["json"] == {"task": "similar", "text": "fox", "count": 2}

    def test_embed_round_trip(self):
        client, _ = self._client([FakeResponse({"vectors": [[1.0, 0.0]]})])
        out = client.embed_texts(["x"])
        assert np.array_equal(out, [[1.0, 0.0]])


class TestRecordReplay:
    def test_round_trip(self, tmp_path):
        inner = ScriptedClient(
            dim=4,
            descriptions={"img_1": ["a scripted thing"]},
            similars={"fox": ["coyote", "jackal"]},
        )
        recorder = RecordingClient(inner, tmp_path)
        described = recorder.describe_image("img_1", "fox")
        labels = recorder.similar_labels("fox", 2)
        vectors = recorder.embed_texts(["alpha", "beta"])

        replay = ReplayClient(tmp_path)
        assert replay.describe_image("img_1", "fox") == described
        assert replay.similar_labels("fox", 2) == labels
        assert np.allclose(replay.embed_texts(["alpha", "beta"]), vectors)

    def test_fixture_files_are_keyed_by_request(self, tmp_path):
        inner = ScriptedClient(dim=4, similars={"fox": ["coyote"]})
        RecordingClient(inner, tmp_path).similar_labels("fox", 1)
        expected = tmp_path / (
            request_key({"task": "similar", "text": "fox", "count": 1}) + ".json"
        )
        assert expected.exists()
        stored = json.loads(expected.read_text())
        assert stored["response"]["texts"] == ["coyote"]

    def test_missing_fixture_raises(self, tmp_path):
        replay = ReplayClient(tmp_path)
        with pytest.raises(GenerationError) as err:
            replay.describe_image("img_9", "fox")
        assert err.value.image_id == "img_9"

    @pytest.mark.parametrize("response", [{}, {"texts": []}, None])
    def test_malformed_fixture_raises_generation_error(self, tmp_path, response):
        for payload in (
            {"task": "describe", "text": "img_1", "exclude": "fox"},
            {"task": "embed", "texts": ["alpha", "beta"]},
        ):
            path = tmp_path / f"{request_key(payload)}.json"
            body = {"request": payload, "response": response}
            path.write_text(json.dumps(body) if response is not None else "{trunc")
        replay = ReplayClient(tmp_path)
        with pytest.raises(GenerationError):
            replay.describe_image("img_1", "fox")
        with pytest.raises(GenerationError):
            replay.embed_texts(["alpha", "beta"])


class SamplingClient:
    """Answers like `inner`, but each description ends in the number of the
    call, so a repeated request gets a new answer; counts its calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self._lock = threading.Lock()  # describe runs on several threads

    def _count(self) -> int:
        with self._lock:
            self.calls += 1
            return self.calls

    def describe_image(self, image_ref, exclude_label):
        call = self._count()
        return f"{self.inner.describe_image(image_ref, exclude_label)} take {call}"

    def similar_labels(self, class_name, count):
        self._count()
        return self.inner.similar_labels(class_name, count)

    def embed_texts(self, texts):
        self._count()
        return self.inner.embed_texts(texts)


class TestRecordingRepeats:
    def test_a_repeat_gets_the_first_stored_answer(self, tmp_path, monkeypatch):
        world, batches = small_setup(scenario="mixed", n_batches=3, per_side=40)
        sampler = SamplingClient(world.oracle_client())
        keys, writes = [], []
        request_key, write_text = clients.request_key, Path.write_text

        def counted_key(payload):
            key = request_key(payload)
            keys.append(key)
            return key

        def counted_write(path, *args, **kwargs):
            writes.append(path.name)
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(clients, "request_key", counted_key)
        monkeypatch.setattr(Path, "write_text", counted_write)
        fixtures = tmp_path / "fx"
        recorded, recorded_state = run_stream(
            batches, world.label_space, world.corpus,
            RecordingClient(sampler, fixtures), small_config(), seed=42,
        )
        distinct = set(keys)
        assert len(keys) > len(distinct)  # the stream repeats requests
        assert sorted(writes) == sorted(f"{key}.json" for key in distinct)
        assert sampler.calls == len(distinct)
        replayed, replayed_state = run_stream(
            batches, world.label_space, world.corpus, ReplayClient(fixtures),
            small_config(), seed=42,
        )
        assert not recorded_state.degraded and not replayed_state.degraded
        assert replayed == recorded
        assert replayed_state.lambda_history == recorded_state.lambda_history


    def test_concurrent_repeats_share_the_first_answer(self, tmp_path):
        # more threads than cores race on three requests
        descriptions = {f"i{k}": [f"thing number {k} here"] for k in range(3)}
        sampler = SamplingClient(ScriptedClient(dim=4, descriptions=descriptions))
        recorder = RecordingClient(sampler, tmp_path)
        answers, finished = {}, []
        lock = threading.Lock()

        def work(offset):
            for n in range(60):
                image_id = f"i{(n + offset) % 3}"
                answer = recorder.describe_image(image_id, "fox")
                with lock:
                    answers.setdefault(image_id, set()).add(answer)
            finished.append(offset)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(finished) == list(range(8))
        assert sampler.calls == 3
        assert {k: len(v) for k, v in answers.items()} == {"i0": 1, "i1": 1, "i2": 1}
        assert len(list(tmp_path.iterdir())) == 3


def oracle_answer(oracle, payload):
    """The oracle's answer to a wire payload, as a server would send it."""
    task = payload["task"]
    if task == "describe":
        return {"texts": [oracle.describe_image(payload["text"], payload["exclude"])]}
    if task == "similar":
        return {"texts": oracle.similar_labels(payload["text"], payload["count"])}
    return {"vectors": oracle.embed_texts(payload["texts"]).tolist()}


class ServerSession:
    """A session whose server answers each posted payload with `answer`."""

    def __init__(self, answer):
        self.answer = answer

    def post(self, url, **request):
        # the answer crosses the wire as JSON text
        return FakeResponse(json.loads(json.dumps(self.answer(request["json"]))))


def http_client(answer):
    return HttpGenerationClient("http://unit.test/api", session=ServerSession(answer))


# name: (task whose every answer is junk, the junk wire answer made from the
# clean one, the junk typed answer made from the clean one)
JUNK = {
    "body-not-object": ("describe", lambda a: a["texts"], lambda t: [t]),
    "texts-not-list": (
        "describe", lambda a: {"texts": {"0": a["texts"][0]}}, lambda t: {"0": t}
    ),
    "null-description": ("describe", lambda a: {"texts": [None]}, lambda t: None),
    "lookalike-string": ("similar", lambda a: {"texts": "abc"}, lambda t: "abc"),
    "lookalike-non-string": (
        "similar", lambda a: {"texts": [*a["texts"], 7]}, lambda t: [*t, 7]
    ),
    "ragged-vectors": (
        "embed",
        lambda a: {"vectors": [a["vectors"][0][:-1], *a["vectors"][1:]]},
        lambda v: [v[0][:-1], *v[1:]],
    ),
    "vectors-too-narrow": (
        "embed",
        lambda a: {"vectors": [row[:-1] for row in a["vectors"]]},
        lambda v: v[:, :-1],
    ),
    "vectors-too-few": (
        "embed", lambda a: {"vectors": a["vectors"][:-1]}, lambda v: v[:-1]
    ),
}


class JunkTypedClient:
    """Answers like `inner`, but every answer to `task` is `junk(answer)`."""

    def __init__(self, inner, task, junk):
        self.inner, self.task, self.junk = inner, task, junk

    def _answer(self, task, answer):
        return self.junk(answer) if task == self.task else answer

    def describe_image(self, image_ref, exclude_label):
        return self._answer(
            "describe", self.inner.describe_image(image_ref, exclude_label)
        )

    def similar_labels(self, class_name, count):
        return self._answer("similar", self.inner.similar_labels(class_name, count))

    def embed_texts(self, texts):
        return self._answer("embed", self.inner.embed_texts(texts))


@pytest.fixture(scope="module")
def mixed_fixtures(tmp_path_factory):
    """The mixed world's stream, and the fixtures a recording of it wrote."""
    world, batches = small_setup(scenario="mixed", n_batches=3, per_side=100)
    fixtures = tmp_path_factory.mktemp("mixed_fx")
    records, _ = run_stream(
        batches, world.label_space, world.corpus,
        RecordingClient(world.oracle_client(), fixtures), small_config(), seed=42,
    )
    return world, batches, fixtures, records


class TestJunkAnswers:
    @pytest.mark.parametrize("client_kind", ["http", "replay", "typed", "recording"])
    @pytest.mark.parametrize("case", JUNK)
    def test_junk_answer_degrades_the_stream(
        self, mixed_fixtures, tmp_path, case, client_kind
    ):
        world, batches, recorded, _ = mixed_fixtures
        task, wire_junk, typed_junk = JUNK[case]
        oracle = world.oracle_client()
        if client_kind == "http":

            def answer(payload):
                clean = oracle_answer(oracle, payload)
                return wire_junk(clean) if payload["task"] == task else clean

            client = http_client(answer)
        elif client_kind == "replay":
            fixtures = shutil.copytree(recorded, tmp_path / "fx")
            for path in fixtures.iterdir():
                stored = json.loads(path.read_text())
                if stored["request"]["task"] == task:
                    stored["response"] = wire_junk(stored["response"])
                    path.write_text(json.dumps(stored))
            client = ReplayClient(fixtures)
        elif client_kind == "typed":
            client = JunkTypedClient(oracle, task, typed_junk)
        else:
            client = RecordingClient(
                JunkTypedClient(oracle, task, typed_junk), tmp_path / "fx"
            )
        records, state = run_stream(
            batches, world.label_space, world.corpus, client, small_config(), seed=42
        )
        assert state.degraded
        assert [r.image_id for r in records] == [
            i for b in batches for i in b.images.ids
        ]
        assert all(0.0 <= r.s_ada <= 1.0 for r in records)

    def test_answer_json_cannot_hold_degrades_a_recording(
        self, mixed_fixtures, tmp_path
    ):
        world, batches, _, _ = mixed_fixtures
        inner = JunkTypedClient(world.oracle_client(), "describe", str.encode)
        records, state = run_stream(
            batches, world.label_space, world.corpus,
            RecordingClient(inner, tmp_path / "fx"), small_config(), seed=42,
        )
        assert state.degraded
        assert len(records) == sum(b.images.rows for b in batches)

    def test_clean_http_and_recorded_answers_equal_the_oracle_run(
        self, mixed_fixtures
    ):
        world, batches, _, recorded_records = mixed_fixtures
        oracle = world.oracle_client()
        runs = [
            run_stream(
                batches, world.label_space, world.corpus, client,
                small_config(), seed=42,
            )
            for client in (
                oracle, http_client(lambda payload: oracle_answer(oracle, payload))
            )
        ]
        (oracle_records, oracle_state), (http_records, http_state) = runs
        assert not oracle_state.degraded and not http_state.degraded
        assert http_records == oracle_records
        assert recorded_records == oracle_records
        assert http_state.lambda_history == oracle_state.lambda_history
