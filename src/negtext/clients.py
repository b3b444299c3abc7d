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
import time
from pathlib import Path
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from .errors import GenerationError

if TYPE_CHECKING:  # imported where an HTTP client is built or posts
    import requests


@runtime_checkable
class GenerationClient(Protocol):
    """What the pipeline asks of a generation backend.

    `describe_image` may be called from several threads at once (one ENS
    build keeps `spaces.DESCRIBE_WORKERS` requests in flight); the other
    two methods are called from one thread. The clients here allow it: the
    HTTP client shares a `requests.Session`, whose pool of 10 connections
    exceeds the workers, and `RecordingClient` writes one file per
    distinct request.
    """

    def describe_image(self, image_ref: str, exclude_label: str) -> str: ...

    def similar_labels(self, class_name: str, count: int) -> list[str]: ...

    def embed_texts(self, texts: list[str]) -> np.ndarray: ...


def request_key(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _new_session() -> "requests.Session":
    # importing `requests` adds ~8 MB and ~0.1 s; only the HTTP client needs it
    import requests

    return requests.Session()


class HttpGenerationClient:
    """Task-based JSON client with bounded retries and exponential backoff."""

    def __init__(
        self,
        endpoint: str,
        auth_token: str | None = None,
        retries: int = 3,
        backoff: float = 0.5,
        timeout: float = 60.0,
        session: requests.Session | None = None,
    ):
        self.endpoint = endpoint
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
        self._session = session or _new_session()
        self._headers = {"Content-Type": "application/json"}
        if auth_token:
            self._headers["Authorization"] = f"Bearer {auth_token}"

    def _post(self, payload: dict, image_id: str | None = None) -> dict:
        """POST `payload` with the session, headers, timeout and retries.

        Connection errors, timeouts, 408, 429 and 5xx are retried with
        exponential backoff; any other failure raises at once.
        """
        import requests

        url = self.endpoint
        last = None
        for attempt in range(self.retries):
            try:
                resp = self._session.post(
                    url, json=payload, headers=self._headers, timeout=self.timeout
                )
                if resp.status_code not in (408, 429) and resp.status_code < 500:
                    resp.raise_for_status()
                    return resp.json()
                last = f"HTTP {resp.status_code}"
            except (requests.ConnectionError, requests.Timeout) as exc:
                last = exc
            except (requests.RequestException, ValueError) as exc:
                raise GenerationError(f"{url}: {exc}", image_id=image_id) from exc
            if attempt + 1 < self.retries:
                time.sleep(self.backoff * (2**attempt))
        raise GenerationError(
            f"{url} failed after {self.retries} attempts: {last}", image_id=image_id
        )

    def describe_image(self, image_ref: str, exclude_label: str) -> str:
        out = self._post(
            {"task": "describe", "text": image_ref, "exclude": exclude_label},
            image_id=image_ref,
        )
        texts = out.get("texts") or []
        if not texts:
            raise GenerationError("describe returned no text", image_id=image_ref)
        return texts[0]

    def similar_labels(self, class_name: str, count: int) -> list[str]:
        out = self._post({"task": "similar", "text": class_name, "count": count})
        return list(out.get("texts") or [])

    def embed_texts(self, texts: list[str]) -> np.ndarray:
        out = self._post({"task": "embed", "texts": list(texts)})
        vectors = out.get("vectors")
        if not vectors or len(vectors) != len(texts):
            raise GenerationError("embed returned wrong vector count")
        return np.asarray(vectors, dtype=np.float64)


class ReplayClient:
    """Serves responses verbatim from fixture files keyed by request hash."""

    def __init__(self, fixtures_dir):
        self.fixtures_dir = Path(fixtures_dir)

    def _lookup(self, payload: dict, key: str, image_id: str | None = None):
        """The fixture's `response[key]`; a missing or malformed fixture
        is a generation failure."""
        path = self.fixtures_dir / f"{request_key(payload)}.json"
        if not path.exists():
            raise GenerationError(
                f"no fixture for request {payload!r}", image_id=image_id
            )
        try:
            return json.loads(path.read_text(encoding="utf-8"))["response"][key]
        except (ValueError, KeyError, TypeError) as exc:
            raise GenerationError(
                f"malformed fixture {path}: {exc!r}", image_id=image_id
            ) from exc

    def describe_image(self, image_ref: str, exclude_label: str) -> str:
        texts = self._lookup(
            {"task": "describe", "text": image_ref, "exclude": exclude_label},
            "texts",
            image_id=image_ref,
        )
        if not texts:
            raise GenerationError("fixture holds no description", image_ref)
        return texts[0]

    def similar_labels(self, class_name: str, count: int) -> list[str]:
        payload = {"task": "similar", "text": class_name, "count": count}
        return list(self._lookup(payload, "texts"))

    def embed_texts(self, texts: list[str]) -> np.ndarray:
        vectors = self._lookup({"task": "embed", "texts": list(texts)}, "vectors")
        try:
            return np.asarray(vectors, dtype=np.float64)
        except (ValueError, TypeError) as exc:  # ragged or non-numeric rows
            raise GenerationError(f"malformed embedding fixture: {exc}") from exc


class RecordingClient:
    """Wraps a live client and writes replayable fixtures for each request."""

    def __init__(self, inner: GenerationClient, fixtures_dir):
        self.inner = inner
        self.fixtures_dir = Path(fixtures_dir)

    def _store(self, payload: dict, response: dict) -> None:
        # made with the first fixture, so a run that fails first leaves none
        self.fixtures_dir.mkdir(parents=True, exist_ok=True)
        path = self.fixtures_dir / f"{request_key(payload)}.json"
        path.write_text(
            json.dumps({"request": payload, "response": response}, indent=2),
            encoding="utf-8",
        )

    def describe_image(self, image_ref: str, exclude_label: str) -> str:
        text = self.inner.describe_image(image_ref, exclude_label)
        self._store(
            {"task": "describe", "text": image_ref, "exclude": exclude_label},
            {"texts": [text]},
        )
        return text

    def similar_labels(self, class_name: str, count: int) -> list[str]:
        labels = self.inner.similar_labels(class_name, count)
        self._store(
            {"task": "similar", "text": class_name, "count": count},
            {"texts": list(labels)},
        )
        return labels

    def embed_texts(self, texts: list[str]) -> np.ndarray:
        vectors = self.inner.embed_texts(texts)
        self._store(
            {"task": "embed", "texts": list(texts)},
            {"vectors": [list(map(float, row)) for row in vectors]},
        )
        return vectors
