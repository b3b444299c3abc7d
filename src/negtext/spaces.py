"""Construction of the three negative textual spaces.

Initial negatives come from a word corpus ranked by dissimilarity to the
ID labels. At test time two adaptive spaces are regenerated from the
stream: descriptive sentences for mined negative images, and lookalike
labels for the most frequently predicted ID classes. All text goes
through the generation-client boundary.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .clients import GenerationClient
from .embeddings import (
    EmbeddingMatrix,
    LabelSpace,
    NegativeSpace,
    SpaceKind,
    _canon_label,
    assert_disjoint,
)
from .errors import GenerationError, InputError
from .mining import MinedNegatives, SimilarClassSubset

SENTENCE_MIN_WORDS = 3
SENTENCE_MAX_WORDS = 15
MAX_ATTEMPTS_PER_REQUEST = 3


@dataclass(frozen=True)
class CorpusCandidates:
    words: tuple[str, ...]
    features: EmbeddingMatrix

    def __post_init__(self):
        if len(self.words) != self.features.rows:
            raise InputError("one feature row per corpus word required")


def select_initial_nls(
    corpus: CorpusCandidates,
    ids: LabelSpace,
    m: int,
    group_size: int,
) -> NegativeSpace:
    """Pick the M corpus words most dissimilar to every ID text feature."""
    id_canon = ids.canon_labels()
    keep = [i for i, w in enumerate(corpus.words) if _canon_label(w) not in id_canon]
    if len(keep) < m:
        raise InputError(
            f"corpus holds {len(keep)} usable words, {m} requested"
        )
    sims = corpus.features.data[keep] @ ids.features.data.T
    max_sim = np.max(sims, axis=1)
    order = np.argsort(max_sim, kind="stable")[:m]
    chosen = [keep[i] for i in order]
    texts = tuple(corpus.words[i] for i in chosen)
    return NegativeSpace(
        kind=SpaceKind.NL,
        texts=texts,
        features=corpus.features.select(chosen),
        group_size=group_size,
        epoch=0,
    )


def embed_space(
    texts,
    template: str | None,
    client: GenerationClient,
    id_prefix: str = "t",
) -> EmbeddingMatrix:
    """Embed texts, applying the label prompt template when one is given."""
    texts = list(texts)
    if not texts:
        raise InputError("no texts to embed")
    if template is not None:
        request_texts = [template.replace("<label>", t) for t in texts]
    else:
        request_texts = texts
    vectors = np.asarray(client.embed_texts(request_texts), dtype=np.float64)
    if vectors.shape[0] != len(texts):
        raise GenerationError("embedding count does not match text count")
    ids = tuple(f"{id_prefix}{i:05d}" for i in range(len(texts)))
    return EmbeddingMatrix.from_rows(ids, vectors)


def _contains_word(sentence: str, label: str) -> bool:
    return re.search(rf"\b{re.escape(label)}\b", sentence, re.IGNORECASE) is not None


def _sentence_ok(
    sentence: str,
    exclude_label: str,
    len_min: int,
    len_max: int,
) -> tuple[bool, bool]:
    """Returns (length in window, excluded label absent)."""
    n_words = len(sentence.split())
    return (
        len_min <= n_words <= len_max,
        not _contains_word(sentence, exclude_label),
    )


def _request_sentence(
    client: GenerationClient,
    image_id: str,
    exclude_label: str,
    len_min: int,
    len_max: int,
) -> str | None:
    """One validated sentence, or None when the excluded label sticks."""
    sentence = ""
    for _ in range(MAX_ATTEMPTS_PER_REQUEST):
        sentence = client.describe_image(image_id, exclude_label)
        len_ok, label_ok = _sentence_ok(sentence, exclude_label, len_min, len_max)
        if len_ok and label_ok:
            return sentence
    # length violations are recoverable by truncation; a lingering excluded
    # label is not
    if not _sentence_ok(sentence, exclude_label, len_min, len_max)[1]:
        return None
    words = sentence.split()
    if len(words) > len_max:
        return " ".join(words[:len_max])
    return sentence if len(words) >= len_min else None


def generate_ens(
    negatives: MinedNegatives,
    predicted_labels: dict[str, str],
    ids: LabelSpace,
    client: GenerationClient,
    m: int,
    group_size: int,
    seed: int,
    epoch: int = 0,
    len_min: int = SENTENCE_MIN_WORDS,
    len_max: int = SENTENCE_MAX_WORDS,
) -> NegativeSpace:
    """Descriptive sentences for the mined negative images.

    One sentence is requested per negative image; when that yields at
    least M sentences, a seeded uniform subsample of M is kept, otherwise
    prompting repeats round-robin over the negatives until M exist.
    """
    if negatives.empty:
        raise InputError("no mined negative images")
    sources = list(negatives.image_ids)
    sentences: list[str] = []

    def one_pass(need_all: bool) -> int:
        produced = 0
        for image_id in sources:
            if not need_all and len(sentences) >= m:
                break
            sentence = _request_sentence(
                client, image_id, predicted_labels[image_id], len_min, len_max
            )
            if sentence is not None:
                sentences.append(sentence)
                produced += 1
        return produced

    one_pass(need_all=True)
    if len(sentences) >= m:
        rng = np.random.default_rng(np.random.SeedSequence([seed, epoch, 0xE25]))
        pick = np.sort(rng.choice(len(sentences), size=m, replace=False))
        sentences = [sentences[i] for i in pick]
    else:
        while len(sentences) < m:
            if one_pass(need_all=False) == 0:
                raise GenerationError(
                    "no negative image yields an admissible sentence",
                    image_id=sources[0],
                )
    id_canon = ids.canon_labels()
    sentences = [s for s in sentences if _canon_label(s) not in id_canon]
    features = embed_space(sentences, None, client, id_prefix=f"ens{epoch}_")
    return NegativeSpace(
        kind=SpaceKind.ENS,
        texts=tuple(sentences),
        features=features,
        group_size=group_size,
        epoch=epoch,
    )


def generate_vsnl(
    subset: SimilarClassSubset,
    ids: LabelSpace,
    client: GenerationClient,
    m: int,
    group_size: int,
    epoch: int = 0,
) -> NegativeSpace:
    """Lookalike labels for the mined ID-class subset."""
    if len(subset.class_indices) == 0:
        raise InputError("empty ID-class subset")
    per_class = -(-m // len(subset.class_indices))
    id_canon = ids.canon_labels()
    labels: list[str] = []
    seen: set[str] = set()
    for class_index in subset.class_indices:
        class_name = ids.labels[class_index]
        for candidate in client.similar_labels(class_name, per_class):
            canon = _canon_label(candidate)
            if canon in seen or canon in id_canon:
                continue
            seen.add(canon)
            labels.append(candidate)
    if not labels:
        raise GenerationError("no admissible lookalike labels generated")
    labels = labels[:m]
    assert_disjoint(labels, ids)
    features = embed_space(
        labels, ids.prompt_template, client, id_prefix=f"vsnl{epoch}_"
    )
    return NegativeSpace(
        kind=SpaceKind.VSNL,
        texts=tuple(labels),
        features=features,
        group_size=group_size,
        epoch=epoch,
    )
