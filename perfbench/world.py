"""Paper-shape synthetic world for the `paper-stream` workload.

Pure numpy, so inputs are generated before the program is imported. The
world has ID class prototypes, far-OOD concepts (nearly orthogonal to
every ID class) and near-OOD concepts (tilted away from a parent ID
class). The word corpus holds random words plus words close to the
far-OOD concepts; those survive the word-space selection (they are
dissimilar to every ID label), which is what makes far-OOD images score
below the mining threshold. Without them nothing is mined and the
generation layer never runs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DIM = 512
N_CLASSES = 1000
N_FAR = 100
N_NEAR = 100
CORPUS_RANDOM = 10000
FAR_WORDS_PER_CONCEPT = 10
NEAR_WORDS_PER_CONCEPT = 5
# noise scales: a row is normalize(proto + s * g / sqrt(dim)), cos ~ 1/sqrt(1+s^2)
LABEL_NOISE = 0.2
IMAGE_NOISE = 0.75
WORD_NOISE = 1.3
NEAR_TILT = 1.2


def _normalize(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _jitter(rng, protos: np.ndarray, scale: float) -> np.ndarray:
    noise = rng.standard_normal(protos.shape) / np.sqrt(protos.shape[1])
    return _normalize(protos + scale * noise)


@dataclass
class PaperWorld:
    class_names: list[str]
    label_vectors: np.ndarray  # (N_CLASSES, DIM)
    concept_names: list[str]  # ID classes first, then far, then near
    concept_protos: np.ndarray  # (n_concepts, DIM)
    corpus_words: list[str]
    corpus_vectors: np.ndarray
    batches: list[tuple[list[str], np.ndarray, list[str]]]  # ids, rows, tags
    image_concept: dict[str, int]


def make_world(seed: int, n_batches: int, batch_size: int) -> PaperWorld:
    """Batches are half ID, half OOD (OOD split evenly far / near)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9A9E2]))
    id_protos = _normalize(rng.standard_normal((N_CLASSES, DIM)))
    far_protos = _normalize(rng.standard_normal((N_FAR, DIM)))
    parents = rng.integers(0, N_CLASSES, N_NEAR)
    near_protos = _jitter(rng, id_protos[parents], NEAR_TILT)
    protos = np.vstack([id_protos, far_protos, near_protos])
    class_names = [f"class_{i:04d}" for i in range(N_CLASSES)]
    concept_names = (
        class_names
        + [f"far_{i:03d}" for i in range(N_FAR)]
        + [f"near_{i:03d}" for i in range(N_NEAR)]
    )

    words = [f"word_{i:05d}" for i in range(CORPUS_RANDOM)]
    far_idx = np.repeat(np.arange(N_FAR), FAR_WORDS_PER_CONCEPT)
    near_idx = np.repeat(np.arange(N_NEAR), NEAR_WORDS_PER_CONCEPT)
    words += [f"farword_{i:05d}" for i in range(far_idx.size)]
    words += [f"nearword_{i:05d}" for i in range(near_idx.size)]
    corpus = np.vstack(
        [
            _normalize(rng.standard_normal((CORPUS_RANDOM, DIM))),
            _jitter(rng, far_protos[far_idx], WORD_NOISE),
            _jitter(rng, near_protos[near_idx], WORD_NOISE),
        ]
    )

    n_id = batch_size // 2
    n_ood = batch_size - n_id
    batches = []
    image_concept: dict[str, int] = {}
    counter = 0
    for _ in range(n_batches):
        concepts = np.concatenate(
            [
                rng.integers(0, N_CLASSES, n_id),
                rng.integers(N_CLASSES, N_CLASSES + N_FAR + N_NEAR, n_ood),
            ]
        )
        rng.shuffle(concepts)
        rows = _jitter(rng, protos[concepts], IMAGE_NOISE)
        ids = [f"img_{counter + i:07d}" for i in range(batch_size)]
        counter += batch_size
        tags = ["ID" if c < N_CLASSES else "OOD" for c in concepts]
        image_concept.update(zip(ids, (int(c) for c in concepts)))
        batches.append((ids, rows, tags))

    return PaperWorld(
        class_names=class_names,
        label_vectors=_jitter(rng, id_protos, LABEL_NOISE),
        concept_names=concept_names,
        concept_protos=protos,
        corpus_words=words,
        corpus_vectors=corpus,
        batches=batches,
        image_concept=image_concept,
    )
