"""Generation-client boundary: HTTP and record/replay.

Wire protocol (JSON over POST):

    request  {"task": "describe"|"similar"|"embed",
              "text": str?, "texts": [str]?,
              "exclude": str?, "count": int?}
    response {"texts": [str]?, "vectors": [[float]]?}

`describe` carries the image reference in `text` (no image decoding
happens in this package). Batch embedding uses the `texts` list.
"""
from __future__ import annotations

import hashlib
import json
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Protocol

import numpy as np

from .errors import GenerationError

if TYPE_CHECKING:  # imported where an HTTP client is built or posts
    import requests

# HTTP attempts per request, the first retry's wait (doubled for each
# later one) and the wait for one answer
HTTP_ATTEMPTS = 3
HTTP_BACKOFF_S = 0.5
HTTP_TIMEOUT_S = 60.0


class GenerationClient(Protocol):
    """What the pipeline asks of a generation backend.

    `describe_image` may be called from several threads at once (one ENS
    build keeps `spaces.DESCRIBE_WORKERS` requests in flight), and
    `similar_labels` and `embed_texts` while describes are in flight (a
    batch regenerates its two spaces in two lanes); `embed_texts` is never
    called twice at once. The clients here allow it: the HTTP client shares
    a `requests.Session`, whose pool of 10 connections exceeds the
    requests in flight, and `RecordingClient` asks its live client and
    writes a file once per distinct request.

    The pipeline checks each answer where it receives it: a description
    is a `str`, lookalike labels are a list or tuple of `str`, and an
    embedding is an array-like of `len(texts)` finite rows of the label
    dim. Any other answer, and any exception a call raises, degrades the
    batch: the space the call was made for stays as it was.
    """

    def describe_image(self, image_ref: str, exclude_label: str) -> str: ...

    def similar_labels(self, class_name: str, count: int) -> list[str]: ...

    def embed_texts(self, texts: list[str]) -> np.ndarray: ...


def request_key(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class _WireClient:
    """The wire protocol's three requests, each answered by `_answer` and
    checked to be an object whose `texts` or `vectors` entry is a list."""

    def _entry(self, payload: dict, key: str, image_id: str | None = None) -> list:
        answer = self._answer(payload, image_id)
        entry = answer.get(key) if isinstance(answer, dict) else None
        if not isinstance(entry, list) or (not entry and payload["task"] == "describe"):
            raise GenerationError(
                f"{payload['task']} answer holds no usable {key!r} list", image_id
            )
        return entry

    def describe_image(self, image_ref: str, exclude_label: str) -> str:
        payload = {"task": "describe", "text": image_ref, "exclude": exclude_label}
        return self._entry(payload, "texts", image_id=image_ref)[0]

    def similar_labels(self, class_name: str, count: int) -> list[str]:
        payload = {"task": "similar", "text": class_name, "count": count}
        return self._entry(payload, "texts")

    def embed_texts(self, texts: list[str]) -> list[list[float]]:
        return self._entry({"task": "embed", "texts": list(texts)}, "vectors")


class HttpGenerationClient(_WireClient):
    """Task-based JSON client with bounded retries and exponential backoff."""

    def __init__(
        self,
        endpoint: str,
        auth_token: str | None = None,
        session: requests.Session | None = None,
    ):
        self.endpoint = endpoint
        if session is None:
            import requests  # ~8 MB and ~0.1 s that only this client needs

            session = requests.Session()
        self._session = session
        self._headers = {"Content-Type": "application/json"}
        if auth_token:
            self._headers["Authorization"] = f"Bearer {auth_token}"

    def _answer(self, payload: dict, image_id: str | None) -> object:
        """POST `payload` with the session, headers, timeout and retries.

        Connection errors, timeouts, 408, 429 and 5xx are retried with
        exponential backoff; any other failure raises at once.
        """
        import requests

        url = self.endpoint
        last = None
        for attempt in range(HTTP_ATTEMPTS):
            try:
                resp = self._session.post(
                    url, json=payload, headers=self._headers, timeout=HTTP_TIMEOUT_S
                )
                if resp.status_code not in (408, 429) and resp.status_code < 500:
                    resp.raise_for_status()
                    return resp.json()
                last = f"HTTP {resp.status_code}"
            except (requests.ConnectionError, requests.Timeout) as exc:
                last = exc
            except (requests.RequestException, ValueError) as exc:
                raise GenerationError(f"{url}: {exc}", image_id=image_id) from exc
            if attempt + 1 < HTTP_ATTEMPTS:
                time.sleep(HTTP_BACKOFF_S * (2**attempt))
        raise GenerationError(
            f"{url} failed after {HTTP_ATTEMPTS} attempts: {last}", image_id=image_id
        )


class ReplayClient(_WireClient):
    """Serves responses verbatim from fixture files keyed by request hash."""

    def __init__(self, fixtures_dir):
        self.fixtures_dir = Path(fixtures_dir)

    def _answer(self, payload: dict, image_id: str | None) -> object:
        """The fixture's response; a missing or unreadable fixture is a
        generation failure."""
        path = self.fixtures_dir / f"{request_key(payload)}.json"
        if not path.exists():
            raise GenerationError(
                f"no fixture for request {payload!r}", image_id=image_id
            )
        try:
            return json.loads(path.read_text(encoding="utf-8"))["response"]
        except (ValueError, KeyError, TypeError) as exc:
            raise GenerationError(
                f"malformed fixture {path}: {exc!r}", image_id=image_id
            ) from exc


def _json_array(value):
    """numpy arrays and scalars as JSON lists and numbers."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON")


class RecordingClient(_WireClient):
    """Wraps a live client and writes a replayable fixture for each distinct
    request. A repeat gets the first stored answer, with no call to the live
    client and no write; every answer is returned as stored, so a recording
    sees what its replay will."""

    def __init__(self, inner: GenerationClient, fixtures_dir):
        self.inner = inner
        self.fixtures_dir = Path(fixtures_dir)
        self._lock = threading.Lock()
        self._key_locks: dict[str, threading.Lock] = {}
        self._recorded: set[str] = set()

    def _answer(self, payload: dict, image_id: str | None) -> object:
        key = request_key(payload)
        path = self.fixtures_dir / f"{key}.json"
        with self._lock:
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        # a repeat in flight waits for the first; a failed first stores nothing
        with key_lock:
            if key in self._recorded:
                stored = path.read_text(encoding="utf-8")
            else:
                stored = self._record(payload, path)
                self._recorded.add(key)
        return json.loads(stored)["response"]

    def _record(self, payload: dict, path: Path) -> str:
        """The live client's answer, written to `path` as fixture text."""
        task, text, inner = payload["task"], payload.get("text"), self.inner
        if task == "describe":
            response = {"texts": [inner.describe_image(text, payload["exclude"])]}
        elif task == "similar":
            response = {"texts": inner.similar_labels(text, payload["count"])}
        else:
            response = {"vectors": inner.embed_texts(payload["texts"])}
        stored = json.dumps(
            {"request": payload, "response": response}, indent=2, default=_json_array
        )
        # made with the first fixture, so a run that fails first leaves none
        self.fixtures_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(stored, encoding="utf-8")
        return stored
