"""Generation clients of the benchmark.

`CountingClient` wraps any `GenerationClient` the way `RecordingClient`
does: it forwards every call and keeps the counts the metrics need. It can
inject a fixed latency per call, standing in for a remote model, and it
records a span per call when a tracer is attached. `PaperFakeClient` is
the zero-latency client of the `paper-stream` workload: every answer is a
pure function of the request, grounded in the world's concept vectors.
"""
from __future__ import annotations

import time
import zlib

import numpy as np

TEMPLATE_PREFIX = "The nice "
TEMPLATE_SUFFIX = "."
TOKEN_PREFIX = "seen_"
TEXT_NOISE = 0.3
TWIN_NOISE = 1.0
LOOKALIKE_MIN_COS = 0.5
NOISE_BANK_ROWS = 4096


class CountingClient:
    """Counting wrapper with optional injected latency.

    `wait_s` is the time spent inside the wrapped client, injected sleep
    included, so program time is the caller's time minus `wait_s`.
    """

    def __init__(
        self,
        inner,
        describe_s: float = 0.0,
        similar_s: float = 0.0,
        embed_s: float = 0.0,
        embed_text_s: float = 0.0,
        tracer=None,
    ):
        self.inner = inner
        self.describe_s = describe_s
        self.similar_s = similar_s
        self.embed_s = embed_s
        self.embed_text_s = embed_text_s
        self.tracer = tracer
        self.describe_calls = 0
        self.similar_calls = 0
        self.embed_calls = 0
        self.embed_texts_total = 0
        self.embed_max_texts = 0
        self.describe_keys: set[tuple[str, str]] = set()
        self.wait_s = 0.0
        self.failures = 0

    def _forward(self, span: str, delay: float, fn, *args):
        token = self.tracer.begin(span) if self.tracer is not None else None
        start = time.perf_counter()
        try:
            if delay > 0.0:
                time.sleep(delay)
            return fn(*args)
        except Exception:
            self.failures += 1
            raise
        finally:
            self.wait_s += time.perf_counter() - start
            if token is not None:
                self.tracer.end(token)

    def describe_image(self, image_ref: str, exclude_label: str) -> str:
        self.describe_calls += 1
        self.describe_keys.add((image_ref, exclude_label))
        return self._forward(
            "clients.describe", self.describe_s,
            self.inner.describe_image, image_ref, exclude_label,
        )

    def similar_labels(self, class_name: str, count: int) -> list[str]:
        self.similar_calls += 1
        return self._forward(
            "clients.similar", self.similar_s,
            self.inner.similar_labels, class_name, count,
        )

    def embed_texts(self, texts: list[str]) -> np.ndarray:
        self.embed_calls += 1
        self.embed_texts_total += len(texts)
        self.embed_max_texts = max(self.embed_max_texts, len(texts))
        return self._forward(
            "clients.embed", self.embed_s + self.embed_text_s * len(texts),
            self.inner.embed_texts, texts,
        )

    def counts(self) -> dict:
        return {
            "describe_calls": self.describe_calls,
            "similar_calls": self.similar_calls,
            "embed_calls": self.embed_calls,
            "embed_texts": self.embed_texts_total,
            "embed_max_texts": self.embed_max_texts,
            "describe_unique": len(self.describe_keys),
            "wait_s": self.wait_s,
            "failures": self.failures,
        }


class PaperFakeClient:
    """Zero-latency client answering from a `world.PaperWorld`.

    A description names the image's generating concept (with one of four
    view words picked by a hash of the image id); a lookalike request
    returns the OOD concepts close to the class, then invented twins; an
    embedding is the named concept's prototype plus noise picked by a hash
    of the text. Repeated requests get identical answers.
    """

    def __init__(self, world):
        self.world = world
        self.index = {name: i for i, name in enumerate(world.concept_names)}
        self.n_classes = len(world.class_names)
        bank = np.random.default_rng(0xBA2C).standard_normal(
            (NOISE_BANK_ROWS, world.concept_protos.shape[1])
        )
        self.bank = bank / np.sqrt(bank.shape[1])
        self._lookalikes: dict[str, list[str]] = {}

    def describe_image(self, image_ref: str, exclude_label: str) -> str:
        concept = self.world.image_concept.get(image_ref)
        if concept is None:
            return "an unidentifiable object on a plain background"
        view = zlib.crc32(image_ref.encode()) % 4
        name = self.world.concept_names[concept]
        return f"a photo of {TOKEN_PREFIX}{name} in view {view}"

    def similar_labels(self, class_name: str, count: int) -> list[str]:
        if class_name not in self._lookalikes:
            idx = self.index.get(class_name)
            close: list[str] = []
            if idx is not None:
                protos = self.world.concept_protos
                cos = protos[self.n_classes:] @ protos[idx]
                order = np.argsort(-cos, kind="stable")
                close = [
                    self.world.concept_names[self.n_classes + int(j)]
                    for j in order
                    if cos[j] >= LOOKALIKE_MIN_COS
                ]
            self._lookalikes[class_name] = close
        out = self._lookalikes[class_name][:count]
        out += [f"{class_name} twin {i}" for i in range(count - len(out))]
        return out

    def _base(self, text: str) -> tuple[int, float]:
        label = text
        if text.startswith(TEMPLATE_PREFIX) and text.endswith(TEMPLATE_SUFFIX):
            label = text[len(TEMPLATE_PREFIX) : -len(TEMPLATE_SUFFIX)]
        if label in self.index:
            return self.index[label], TEXT_NOISE
        head, _, _ = label.partition(" twin ")
        if head != label and head in self.index:
            return self.index[head], TWIN_NOISE
        for word in text.split():
            if word.startswith(TOKEN_PREFIX):
                idx = self.index.get(word[len(TOKEN_PREFIX):])
                if idx is not None:
                    return idx, TEXT_NOISE
        return -1, 1.0

    def embed_texts(self, texts: list[str]) -> np.ndarray:
        bases = [self._base(t) for t in texts]
        idx = np.array([b[0] for b in bases])
        scale = np.array([b[1] for b in bases])
        noise = self.bank[
            [zlib.crc32(t.encode()) % NOISE_BANK_ROWS for t in texts]
        ]
        rows = scale[:, None] * noise
        known = idx >= 0
        rows[known] += self.world.concept_protos[idx[known]]
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)
