"""Construction of the three negative textual spaces.

Initial negatives come from a word corpus ranked by dissimilarity to the
ID labels. At test time two adaptive spaces are regenerated from the
stream: descriptive sentences for mined negative images, and lookalike
labels for the most frequently predicted ID classes. All text goes
through the generation-client boundary.
"""
from __future__ import annotations

import re
import threading
from collections import deque
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .clients import GenerationClient
from .embeddings import (
    EmbeddingMatrix,
    LabelSpace,
    NegativeSpace,
    _canon_label,
    _merge_repeats,
)
from .errors import GenerationError, InputError
from .mining import MinedNegatives
from .scoring import max_label_similarity

SENTENCE_MIN_WORDS = 3
SENTENCE_MAX_WORDS = 15
MAX_ATTEMPTS_PER_REQUEST = 3
# describe requests in flight at once during one ENS build
DESCRIBE_WORKERS = 5


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
) -> NegativeSpace:
    """Pick the M corpus words most dissimilar to every ID text feature.

    As a rule the space is a selection of the corpus rows (see
    `NegativeSpace`): only when a repeated word's row is byte-equal to its
    first row, and so merges, are the chosen rows copied.
    """
    id_canon = ids.canon_labels()
    keep = np.array(
        [i for i, w in enumerate(corpus.words) if _canon_label(w) not in id_canon],
        dtype=np.intp,
    )
    if keep.size < m:
        raise InputError(
            f"corpus holds {keep.size} usable words, {m} requested"
        )
    data = corpus.features.data
    order = np.argsort(max_label_similarity(data, ids)[keep], kind="stable")[:m]
    chosen = keep[order]
    chosen.setflags(write=False)
    texts = tuple(corpus.words[i] for i in chosen)
    # every EmbeddingMatrix holds unit, finite, read-only rows, so the
    # corpus rows, or the merged copy of them, are the space's rows
    rows, inverse = _merge_repeats(texts, data, chosen)
    rows.setflags(write=False)
    return NegativeSpace(texts, rows, inverse)


def _call(method, *args, image_id: str | None = None):
    """`method(*args)` of a client; any exception it raises becomes a
    `GenerationError`, so that a failing client degrades the batch."""
    try:
        return method(*args)
    except Exception as exc:
        raise GenerationError(f"{method.__name__} failed: {exc}", image_id) from exc


def embed_space(texts, ids: LabelSpace, client: GenerationClient) -> np.ndarray:
    """One embedding row of the label dim per text, the texts sent as given."""
    texts = list(texts)
    if not texts:
        raise InputError("no texts to embed")
    try:
        vectors = np.asarray(_call(client.embed_texts, texts), dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged or non-numeric
        raise GenerationError(f"embedding is not numeric rows: {exc}") from exc
    expected = (len(texts), ids.features.dim)
    if vectors.shape != expected:
        raise GenerationError(f"embedding shape {vectors.shape}, expected {expected}")
    return vectors


def _word_pattern(label: str) -> re.Pattern:
    """Matches `label` as a whole word, ignoring case."""
    return re.compile(rf"\b{re.escape(label)}\b", re.IGNORECASE)


def _request_sentence(
    describe: Callable[[str, str], str],
    image_id: str,
    exclude_label: str,
    excluded: re.Pattern,
    len_max: int,
) -> str | None:
    """One admitted sentence, or None: an answer is admitted when it names
    no excluded label and holds `SENTENCE_MIN_WORDS` to `len_max` words,
    and only the last attempt's answer, when overlong, is cut to `len_max`."""
    for attempt in range(1, MAX_ATTEMPTS_PER_REQUEST + 1):
        sentence = describe(image_id, exclude_label)
        if excluded.search(sentence) is not None:
            continue
        words = sentence.split()
        if SENTENCE_MIN_WORDS <= len(words) <= len_max:
            return sentence
        if attempt == MAX_ATTEMPTS_PER_REQUEST and len(words) > len_max:
            return " ".join(words[:len_max])
    return None


class _Stopped(Exception):
    """Another request of the wave failed; start no further request."""


def _describe_wave(
    pool: ThreadPoolExecutor,
    client: GenerationClient,
    wave: list[str],
    predicted_labels: dict[str, str],
    patterns: dict[str, re.Pattern],
    len_max: int,
) -> list[str]:
    """The sentences `_request_sentence` admits for the images of `wave`,
    in wave order.

    `DESCRIBE_WORKERS` requesters, the calling thread and up to
    `DESCRIBE_WORKERS - 1` tasks of `pool`, take the wave's images one at
    a time, in wave order, and request each image's sentence one attempt
    after another; so the requests are those of a one-at-a-time loop, only
    their waits overlap, and a slow image holds back no other. After the
    first failure no requester starts another request, and once every
    requester has stopped the failure of the earliest image is raised.
    """
    failed = threading.Event()
    todo = deque(enumerate(wave))
    sentences: list[str | None] = [None] * len(wave)
    failures: dict[int, BaseException] = {}

    def describe(image_id: str, exclude_label: str) -> str:
        if failed.is_set():
            raise _Stopped
        sentence = _call(
            client.describe_image, image_id, exclude_label, image_id=image_id
        )
        if isinstance(sentence, str):
            return sentence
        raise GenerationError(f"description is a {type(sentence).__name__}", image_id)

    def run() -> None:
        while True:
            try:
                index, image_id = todo.popleft()
            except IndexError:  # the wave is taken
                return
            try:
                label = predicted_labels[image_id]
                sentences[index] = _request_sentence(
                    describe, image_id, label, patterns[label], len_max
                )
            except _Stopped:
                return
            except BaseException as exc:
                failures[index] = exc
                failed.set()
                return

    requesters = min(DESCRIBE_WORKERS, len(wave))
    futures = [pool.submit(run) for _ in range(requesters - 1)]
    run()
    for future in futures:
        future.result()
    if failures:
        raise failures[min(failures)]
    return [sentence for sentence in sentences if sentence is not None]


def generate_ens(
    negatives: MinedNegatives,
    predicted_labels: dict[str, str],
    ids: LabelSpace,
    client: GenerationClient,
    m: int,
    seed: int,
    epoch: int = 0,
    len_max: int = SENTENCE_MAX_WORDS,
    before_embed: Callable[[], object] | None = None,
) -> NegativeSpace:
    """Descriptive sentences for the mined negative images.

    One sentence is requested per negative image; when that yields at
    least M sentences, a seeded uniform subsample of M is kept, otherwise
    prompting repeats round-robin over the negatives until M exist. A
    round-robin pass sends waves of the next `M - len(sentences)` images,
    exactly the ones a request-by-request pass would reach, so the
    requests and the sentence order do not depend on `DESCRIBE_WORKERS`.
    The calling thread is one of each wave's `DESCRIBE_WORKERS` requesters,
    so the pool holds one thread fewer. `before_embed`, if given, is called
    once the sentences are final and before they are embedded.
    """
    if negatives.empty:
        raise InputError("no mined negative images")
    sources = list(negatives.image_ids)
    patterns = {
        label: _word_pattern(label)
        for label in {predicted_labels[image_id] for image_id in sources}
    }
    with ThreadPoolExecutor(max(1, DESCRIBE_WORKERS - 1)) as pool:

        def request(wave: list[str]) -> list[str]:
            return _describe_wave(
                pool, client, wave, predicted_labels, patterns, len_max
            )

        sentences = request(sources)
        if len(sentences) >= m:
            rng = np.random.default_rng(np.random.SeedSequence([seed, epoch, 0xE25]))
            pick = np.sort(rng.choice(len(sentences), size=m, replace=False))
            sentences = [sentences[i] for i in pick]
        while len(sentences) < m:  # round-robin
            before, start = len(sentences), 0
            while start < len(sources) and len(sentences) < m:
                wave = sources[start : start + m - len(sentences)]
                sentences.extend(request(wave))
                start += len(wave)
            if len(sentences) == before:
                raise GenerationError(
                    "no negative image yields an admissible sentence",
                    image_id=sources[0],
                )
    id_canon = ids.canon_labels()
    # most sentences repeat: test each distinct one once
    admitted = {s: _canon_label(s) not in id_canon for s in dict.fromkeys(sentences)}
    sentences = [s for s in sentences if admitted[s]]
    if not sentences:
        raise GenerationError("every sentence is an ID label", image_id=sources[0])
    if before_embed is not None:
        before_embed()
    vectors = embed_space(sentences, ids, client)
    return NegativeSpace.from_rows(sentences, vectors)


def generate_vsnl(
    class_indices: tuple[int, ...],
    ids: LabelSpace,
    client: GenerationClient,
    m: int,
) -> NegativeSpace:
    """Lookalike labels for the mined ID classes, `class_indices`."""
    if len(class_indices) == 0:
        raise InputError("empty ID-class subset")
    per_class = -(-m // len(class_indices))
    id_canon = ids.canon_labels()
    labels: list[str] = []
    seen: set[str] = set()
    for class_index in class_indices:
        class_name = ids.labels[class_index]
        candidates = _call(client.similar_labels, class_name, per_class)
        if not isinstance(candidates, (list, tuple)) or not all(
            isinstance(c, str) for c in candidates
        ):
            raise GenerationError(f"lookalikes of {class_name!r} are not a list of str")
        for candidate in candidates:
            canon = _canon_label(candidate)
            if canon in seen or canon in id_canon:
                continue
            seen.add(canon)
            labels.append(candidate)
    if not labels:
        raise GenerationError("no admissible lookalike labels generated")
    labels = labels[:m]
    # a lookalike label is embedded through the ID labels' prompt template
    prompts = [ids.prompt_template.replace("<label>", label) for label in labels]
    vectors = embed_space(prompts, ids, client)
    return NegativeSpace.from_rows(labels, vectors)
