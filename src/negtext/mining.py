"""Online mining over the historical test cache.

Negative images are cached test images whose negative-label score falls
below the detector threshold; of those, the lowest-scoring fraction is
kept, which amounts to an implicit data-dependent threshold (the max
score inside the selection). A second miner counts which ID classes the
cached images get classified into and keeps the most frequent slice.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import _NORM_SKIP_TOL, _ROW_RUN, LabelSpace, TestBatch
from .errors import ConfigError, DataError, InputError, check_field_types


@dataclass(frozen=True)
class MiningConfig:
    initial_threshold: float = 0.9
    selection_ratio: float = 0.5
    class_ratio: float = 0.08
    cache_capacity: int = 20000

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 < self.initial_threshold < 1.0:
            raise ConfigError("initial threshold must lie in (0, 1)")
        if not 0.0 < self.selection_ratio < 1.0:
            raise ConfigError("selection ratio must lie in (0, 1)")
        if not 0.0 < self.class_ratio <= 1.0:
            raise ConfigError("class ratio must lie in (0, 1]")
        if self.cache_capacity < 1:
            raise ConfigError("cache capacity must be >= 1")


@dataclass(frozen=True)
class MinedNegatives:
    image_ids: tuple[str, ...]
    indices: tuple[int, ...]  # positions in the cache at mining time
    gamma_star: float | None

    @property
    def empty(self) -> bool:
        return len(self.image_ids) == 0


def mine_negative_images(
    cache_ids, nl_scores, cfg: MiningConfig
) -> MinedNegatives:
    """Select the lowest-scoring fraction of below-threshold cache images."""
    cache_ids = list(cache_ids)
    nl_scores = np.asarray(nl_scores, dtype=np.float64)
    if len(cache_ids) == 0:
        raise InputError("cache is empty")
    if nl_scores.shape[0] != len(cache_ids):
        raise InputError("one score per cached image required")
    candidates = np.flatnonzero(nl_scores < cfg.initial_threshold)
    if candidates.size == 0:
        return MinedNegatives(image_ids=(), indices=(), gamma_star=None)
    k = max(1, int(np.floor(cfg.selection_ratio * candidates.size)))
    # stable sort keeps first-appearance order among tied scores
    order = np.argsort(nl_scores[candidates], kind="stable")
    chosen = candidates[order[:k]]
    gamma_star = float(np.max(nl_scores[chosen]))
    return MinedNegatives(
        image_ids=tuple(cache_ids[i] for i in chosen),
        indices=tuple(int(i) for i in chosen),
        gamma_star=gamma_star,
    )


def classify_batch(images: np.ndarray, ids: LabelSpace) -> np.ndarray:
    """Nearest ID class per image row by cosine; ties go to the lowest index."""
    if images.shape[1] != ids.features.dim:
        raise DataError(
            f"image dim {images.shape[1]} vs label dim {ids.features.dim}"
        )
    return np.argmax(images @ ids.features.data.T, axis=1)


def mine_similar_classes(
    predictions, ids: LabelSpace, cfg: MiningConfig
) -> tuple[int, ...]:
    """The `class_ratio` share of ID classes (at least one) most often
    predicted over the cached images, by falling count; a tie goes to the
    lower class index."""
    predictions = np.asarray(predictions, dtype=np.int64)
    if predictions.size == 0:
        raise InputError("cache is empty")
    counts = np.bincount(predictions, minlength=ids.n_classes)
    k = max(1, int(np.floor(cfg.class_ratio * ids.n_classes)))
    order = np.argsort(-counts, kind="stable")
    return tuple(int(i) for i in order[:k])


class HistoryCache:
    """Bounded cache of historical test images with reservoir replacement.

    Every streamed image has equal retention probability once the capacity
    is exceeded; replacement draws come from a dedicated generator so that
    truncating a stream replays identically.

    Rows live in one preallocated `(capacity, dim)` reservoir; slot `k`
    holds `ids[k]`. Two per-row columns sit beside it: `nl_scores`, the
    image's grouped score against the fixed negative-label space, and
    `predictions`, its nearest ID class. Both are fixed when the image
    arrives, so the caller writes them once at the slots `append_batch`
    returns; only the first `len(cache)` entries are meaningful.
    """

    def __init__(self, capacity: int, dim: int, seed: int):
        if capacity < 1:
            raise ConfigError("cache capacity must be >= 1")
        self.capacity = capacity
        self._ids: list[str] = []
        # np.empty pages are touched only when written, so unused
        # capacity costs no resident memory
        try:
            self._data = np.empty((capacity, dim))
            self.nl_scores = np.empty(capacity)
            self.predictions = np.empty(capacity, dtype=np.int64)
        except (MemoryError, ValueError) as exc:  # ValueError: past numpy's size limit
            raise ConfigError(
                f"mining.cache_capacity {capacity} asks for "
                f"{capacity * (dim + 2) * 8} bytes of cache, more than can be allocated"
            ) from exc
        self.n_seen = 0
        self._rng = np.random.default_rng(
            np.random.SeedSequence([seed, 0xCAC4E])
        )

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> list[str]:
        return list(self._ids)

    def matrix(self) -> np.ndarray:
        """View of the filled rows, in slot order."""
        return self._data[: len(self._ids)]

    def append_batch(self, batch: TestBatch) -> np.ndarray:
        """Stream a batch through the reservoir.

        Returns each row's slot, or -1 where the row was not kept,
        including a row whose slot a later row of the same batch took.
        """
        data = batch.images.data
        slots = np.full(batch.images.rows, -1, dtype=np.int64)
        owner: dict[int, int] = {}  # slot -> batch row that holds it
        for i, image_id in enumerate(batch.images.ids):
            self.n_seen += 1
            if len(self._ids) < self.capacity:
                j = len(self._ids)
                self._ids.append(image_id)
            else:
                j = int(self._rng.integers(0, self.n_seen))
                if j >= self.capacity:
                    continue
                self._ids[j] = image_id
                if j in owner:
                    slots[owner[j]] = -1
            self._data[j] = data[i]
            owner[j] = i
            slots[i] = j
        return slots

    def state_dict(self) -> dict:
        """The ids, the count of streamed images and the generator state;
        the capacity is the caller's config."""
        return {
            "ids": list(self._ids),
            "n_seen": self.n_seen,
            "rng_state": self._rng.bit_generator.state,
        }

    def load_state(self, state: dict, data: np.ndarray) -> None:
        """Take the `state_dict` of a cache of this capacity and dim, and its
        rows; `nl_scores` and `predictions` are left for the caller to
        rebuild. A stream may repeat an image id, so ids may repeat."""
        ids, n_seen = state["ids"], state["n_seen"]
        if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
            raise TypeError("cache ids must be a list of str")
        # the reservoir fills before it replaces
        if type(n_seen) is not int or len(ids) != min(n_seen, self.capacity):
            raise ValueError(
                f"cache of {len(ids)} ids at capacity {self.capacity} "
                f"cannot have seen {n_seen!r} images"
            )
        if data.shape != (len(ids), self._data.shape[1]):
            raise ValueError(f"cache rows {data.shape} do not match its ids and dim")
        # unlike every other loaded matrix, cache rows skip `_normalize_rows`,
        # so each must be unit norm, as the batch row it was copied from is; a
        # non-finite entry makes a NaN or infinite norm. Checked a run at a
        # time, as a whole-matrix norm would square a copy of every row
        for start in range(0, len(data), _ROW_RUN):
            with np.errstate(over="ignore"):
                norms = np.linalg.norm(data[start : start + _ROW_RUN], axis=1)
            off = np.flatnonzero(~(np.abs(norms - 1.0) <= _NORM_SKIP_TOL))
            if off.size:
                row = off[0]
                raise DataError(f"cache row {start + row} has norm {norms[row]}, not 1")
        self._rng.bit_generator.state = state["rng_state"]
        self._ids = list(ids)
        self._data[: len(ids)] = data
        self.n_seen = n_seen
