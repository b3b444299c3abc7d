"""Client boundary: request hashing, HTTP retries, record/replay fixtures."""
import json

import numpy as np
import pytest
import requests

from negtext.clients import (
    HttpGenerationClient,
    RecordingClient,
    ReplayClient,
    request_key,
)
from negtext.errors import GenerationError

from conftest import ScriptedClient


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


class TestHttpGenerationClient:
    def _client(self, responses, retries=3):
        session = FakeSession(responses)
        client = HttpGenerationClient(
            "http://unit.test/api",
            auth_token="tok",
            retries=retries,
            backoff=0.0,
            session=session,
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

    def test_exhausted_retries_raise_with_image_id(self):
        client, _ = self._client([requests.ConnectionError("down")] * 3)
        with pytest.raises(GenerationError) as err:
            client.describe_image("img_7", "fox")
        assert err.value.image_id == "img_7"

    def test_empty_describe_response_raises(self):
        client, _ = self._client([FakeResponse({"texts": []})])
        with pytest.raises(GenerationError):
            client.describe_image("img_1", "fox")

    def test_similar_labels(self):
        client, session = self._client([FakeResponse({"texts": ["a", "b"]})])
        assert client.similar_labels("fox", 2) == ["a", "b"]
        assert session.calls[0]["json"] == {"task": "similar", "text": "fox", "count": 2}

    def test_embed_round_trip_and_count_check(self):
        client, _ = self._client([FakeResponse({"vectors": [[1.0, 0.0]]})])
        out = client.embed_texts(["x"])
        assert np.array_equal(out, [[1.0, 0.0]])
        client, _ = self._client([FakeResponse({"vectors": [[1.0, 0.0]]})])
        with pytest.raises(GenerationError):
            client.embed_texts(["x", "y"])


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

    @pytest.mark.parametrize(
        "response", [{}, {"texts": []}, {"vectors": [[1.0, 0.0], [1.0]]}, None]
    )
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
