"""Shared builders for the test suite.

Everything is seed-deterministic; builders hand out unit-norm vectors so
type invariants hold by construction.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from negtext.embeddings import (
    EmbeddingMatrix,
    LabelSpace,
    NegativeSpace,
    TestBatch,
)


def unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    data = rng.standard_normal((n, dim))
    return data / np.linalg.norm(data, axis=1, keepdims=True)


def make_label_space(n: int = 4, dim: int = 8, seed: int = 0) -> LabelSpace:
    rng = np.random.default_rng(seed)
    return LabelSpace(
        labels=tuple(f"label_{i}" for i in range(n)),
        features=EmbeddingMatrix.from_rows(
            [f"t{i}" for i in range(n)], unit_rows(rng, n, dim)
        ),
    )


def make_negative_space(
    m: int = 12,
    dim: int = 8,
    seed: int = 1,
) -> NegativeSpace:
    rng = np.random.default_rng(seed)
    return NegativeSpace.from_rows([f"neg_{i}" for i in range(m)], unit_rows(rng, m, dim))


def make_batch(n: int = 6, dim: int = 8, seed: int = 2, tags=None) -> TestBatch:
    rng = np.random.default_rng(seed)
    return TestBatch(
        images=EmbeddingMatrix.from_rows(
            [f"img_{seed}_{i}" for i in range(n)], unit_rows(rng, n, dim)
        ),
        ground_truth=tags,
    )


def _text_vector(text: str, dim: int) -> np.ndarray:
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class ScriptedClient:
    """Dict-driven generation client for unit tests.

    `descriptions[image_id]` is a list consumed one entry per request
    (the last entry repeats once exhausted); `similars[class_name]` is
    returned as-is. Embeddings are a deterministic hash of the text, so
    identical texts always embed identically.
    """

    def __init__(self, dim: int = 8, descriptions=None, similars=None):
        self.dim = dim
        self.descriptions = {k: list(v) for k, v in (descriptions or {}).items()}
        self.similars = dict(similars or {})
        self.describe_calls: list[tuple[str, str]] = []
        self.similar_calls: list[tuple[str, int]] = []
        self.embed_calls: list[list[str]] = []

    def describe_image(self, image_ref: str, exclude_label: str) -> str:
        self.describe_calls.append((image_ref, exclude_label))
        queue = self.descriptions[image_ref]
        return queue.pop(0) if len(queue) > 1 else queue[0]

    def similar_labels(self, class_name: str, count: int) -> list[str]:
        self.similar_calls.append((class_name, count))
        return list(self.similars.get(class_name, []))[:count]

    def embed_texts(self, texts: list[str]) -> np.ndarray:
        self.embed_calls.append(list(texts))
        return np.stack([_text_vector(t, self.dim) for t in texts])


@pytest.fixture
def label_space() -> LabelSpace:
    return make_label_space()


@pytest.fixture
def negative_space() -> NegativeSpace:
    return make_negative_space()
