"""Core domain types: embedding matrices, label spaces, negative spaces.

All vectors are L2-normalized on ingestion so downstream similarities are
plain dot products. The on-disk format is a small binary container with a
JSON identifier sidecar (see `save_embeddings` / `load_embeddings`).
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError, InputError

MAGIC = b"NSPC"
# format version -> row dtype: version 1 rows are float32 (ingested
# embeddings), version 2 rows float64 (rows the program computed, as
# `synth-world` and the checkpoint write them)
ROW_DTYPES = {1: "<f4", 2: "<f8"}

# Rows whose norm already sits within this band are left untouched, which
# makes normalization idempotent at float32 resolution (bitwise-stable
# round trips through the file format).
_NORM_SKIP_TOL = 1e-6
# rows whose norm falls outside this range may have lost it to underflow or
# overflow of the squared entries
_NORM_SAFE_MIN = 2.0**-500
_NORM_SAFE_MAX = 2.0**500
# rows are checked and normalized, and repeated negative rows compared with
# their text's first row, this many at a time, which bounds the temporary
# arrays
_ROW_RUN = 512


def _normalize_rows(data) -> np.ndarray:
    """A read-only, unit-norm float64 copy of a 2-D array of finite values."""
    out = np.array(data, dtype=np.float64, copy=True)
    runs = [out[start : start + _ROW_RUN] for start in range(0, len(out), _ROW_RUN)]
    # every run is checked first, so a non-finite entry is reported ahead
    # of a zero-norm row in an earlier run
    if not all(np.isfinite(run).all() for run in runs):
        raise DataError("non-finite entries in embedding matrix")
    for run in runs:
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(run, axis=1)
        extreme = ~(norms >= _NORM_SAFE_MIN) | (norms > _NORM_SAFE_MAX)
        if np.any(extreme):
            # divide by the largest entry first; other rows keep their bytes
            peaks = np.max(np.abs(run[extreme]), axis=1, initial=0.0)
            if np.any(peaks == 0.0):
                raise DataError("zero-norm row cannot be normalized")
            run[extreme] /= peaks[:, None]
            norms[extreme] = np.linalg.norm(run[extreme], axis=1)
        # dividing by 1.0 is exact: rows already within the band keep their
        # bytes, and a run of such rows is not divided at all
        needs = np.abs(norms - 1.0) > _NORM_SKIP_TOL
        if np.any(needs):
            run /= np.where(needs, norms, 1.0)[:, None]
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Row-major matrix of unit-norm, finite vectors with one id per row.

    Construction checks the ids and stores a read-only, unit-norm copy of
    the rows (`_normalize_rows`), so every matrix holds unit, finite rows.
    """

    ids: tuple[str, ...]
    data: np.ndarray  # (rows, dim) float64, unit-norm rows, read-only

    def __post_init__(self):
        if np.ndim(self.data) != 2:
            raise DataError("expected a 2-D array")
        if len(self.ids) != len(self.data):
            raise DataError(f"{len(self.ids)} ids for {len(self.data)} rows")
        if len(set(self.ids)) != len(self.ids):
            raise DataError("duplicate row ids")
        object.__setattr__(self, "data", _normalize_rows(self.data))

    @classmethod
    def from_rows(cls, ids, data) -> "EmbeddingMatrix":
        return cls(tuple(ids), data)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


def encode_nspc(data: np.ndarray, version: int = 1) -> bytes:
    """Container of a 2-D array: magic, version, row/dim counts, then the
    rows little-endian in the version's dtype (`ROW_DTYPES`)."""
    data = np.ascontiguousarray(data, dtype=ROW_DTYPES[version])
    header = MAGIC + struct.pack("<IQI", version, *data.shape)
    return header + data.tobytes()


def decode_nspc(raw: bytes, source) -> np.ndarray:
    """The float64 (rows, dim) array of a container; `source` names it in errors."""
    if len(raw) < 20:
        raise FormatError(f"{source}: truncated header")
    if raw[:4] != MAGIC:
        raise FormatError(f"{source}: bad magic {raw[:4]!r}")
    version, rows, dim = struct.unpack("<IQI", raw[4:20])
    if version not in ROW_DTYPES:
        raise FormatError(f"{source}: unsupported version {version}")
    dtype = np.dtype(ROW_DTYPES[version])
    expected = 20 + rows * dim * dtype.itemsize
    if len(raw) != expected:
        raise FormatError(
            f"{source}: payload size {len(raw) - 20}, expected {expected - 20}"
        )
    data = np.frombuffer(raw, dtype=dtype, offset=20).astype(np.float64)
    return data.reshape(rows, dim)


def save_embeddings(matrix: EmbeddingMatrix, path, version: int = 1) -> None:
    """Write the binary container plus the `<file>.ids.json` sidecar."""
    path = Path(path)
    path.write_bytes(encode_nspc(matrix.data, version))
    sidecar = path.with_name(path.name + ".ids.json")
    sidecar.write_text(json.dumps(list(matrix.ids)), encoding="utf-8")


def load_embeddings(path) -> EmbeddingMatrix:
    """Read the binary container and its id sidecar."""
    path = Path(path)
    raw = path.read_bytes()
    sidecar = path.with_name(path.name + ".ids.json")
    if not sidecar.exists():
        raise FormatError(f"{path}: missing id sidecar {sidecar.name}")
    try:
        ids = json.loads(sidecar.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise FormatError(f"{sidecar}: not a JSON id list ({exc})") from exc
    data = decode_nspc(raw, path)
    if (
        not isinstance(ids, list)
        or len(ids) != len(data)
        or not all(isinstance(i, str) for i in ids)
    ):
        raise DataError(f"{path}: expected a list of {len(data)} str ids")
    try:
        return EmbeddingMatrix(tuple(ids), data)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _canon_label(label: str) -> str:
    return " ".join(label.casefold().split())


@dataclass(frozen=True)
class LabelSpace:
    """Ordered ID class names with their text features."""

    labels: tuple[str, ...]
    features: EmbeddingMatrix
    prompt_template: str = "The nice <label>."
    _canon: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.labels) < 1:
            raise DataError("label space needs at least one class")
        canon = frozenset(_canon_label(l) for l in self.labels)
        if len(canon) != len(self.labels):
            raise DataError("labels collide after case folding")
        object.__setattr__(self, "_canon", canon)
        if self.features.rows != len(self.labels):
            raise DataError(
                f"{self.features.rows} feature rows for {len(self.labels)} labels"
            )
        if "<label>" not in self.prompt_template:
            raise DataError("prompt template must contain '<label>'")

    @property
    def n_classes(self) -> int:
        return len(self.labels)

    def canon_labels(self) -> frozenset[str]:
        return self._canon

    @classmethod
    def from_manifest(cls, path) -> "LabelSpace":
        path = Path(path)
        try:
            spec = json.loads(path.read_text(encoding="utf-8"))
            features_path = path.parent / spec["features"]
            labels = tuple(spec["labels"])
            template = spec.get("prompt_template", "The nice <label>.")
        except (ValueError, KeyError, TypeError) as exc:
            raise FormatError(f"{path}: unreadable labels manifest ({exc!r})") from exc
        if not all(isinstance(text, str) for text in (*labels, template)):
            raise InputError(f"{path}: labels and prompt_template must be strings")
        if not features_path.exists():
            raise InputError(f"{path}: labels features not found: {features_path}")
        return cls(
            labels=labels,
            features=load_embeddings(features_path),
            prompt_template=template,
        )

    def save_manifest(self, path, features_name: str, version: int = 1) -> None:
        path = Path(path)
        save_embeddings(self.features, path.parent / features_name, version)
        path.write_text(
            json.dumps(
                {
                    "labels": list(self.labels),
                    "prompt_template": self.prompt_template,
                    "features": features_name,
                },
                indent=2,
            ),
            encoding="utf-8",
        )


def _merge_repeats(texts: tuple[str, ...], data: np.ndarray):
    """The distinct rows of `data`, one per text, and the inverse.

    A row merges into the first row of the same text only when the two are
    byte-equal as given, so the merge is exact for any embedding client.
    The inverse is None, and `data` itself is returned, when nothing merges.
    """
    firsts: dict[str, int] = {}
    first = np.fromiter(
        (firsts.setdefault(text, i) for i, text in enumerate(texts)),
        dtype=np.intp,
        count=len(texts),
    )
    own = np.arange(len(texts))
    repeats = np.flatnonzero(first != own)
    # compare bytes, not values: -0.0 and 0.0 stay apart
    bits = data.view(np.uint64)
    for start in range(0, repeats.size, _ROW_RUN):
        part = repeats[start : start + _ROW_RUN]
        differs = np.any(bits[part] != bits[first[part]], axis=1)
        first[part[differs]] = part[differs]
    kept = np.flatnonzero(first == own)
    if kept.size == len(texts):
        return data, None
    inverse = np.searchsorted(kept, first)
    inverse.setflags(write=False)
    return data[kept], inverse


@dataclass(frozen=True)
class NegativeSpace:
    """An ordered set of negative texts with their unit rows.

    A space's kind (word, sentence or lookalike) is the `StreamState`
    field, or the checkpoint header key, that holds it.

    `rows` holds the space's distinct unit rows: text i's row is
    `rows[inverse[i]]`, or `rows[i]` when `inverse` is None. Build a space
    with `from_rows`, which stores a repeated text's row once; the word
    space merges its corpus rows the same way, through `_merge_repeats`.
    Scoring cuts the texts, in this order, into groups of
    `ScoreConfig.group_size`.
    """

    texts: tuple[str, ...]
    rows: np.ndarray  # (distinct rows, dim) float64, read-only
    inverse: np.ndarray | None  # (texts,) index into `rows`

    def __post_init__(self):
        if len(self.texts) < 1:
            raise DataError("negative space must be non-empty")

    @property
    def size(self) -> int:
        return len(self.texts)

    @classmethod
    def from_rows(cls, texts, data, inverse=None) -> "NegativeSpace":
        """The space of `texts` with one row of `data` per text, normalized.

        A repeated text's row merges as `_merge_repeats` says; only the
        distinct rows are then normalized. Given an `inverse` (text i's row
        is `data[inverse[i]]`), `data` holds the distinct rows as a space
        holds them, and nothing merges.
        """
        texts = tuple(texts)
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise DataError("expected a 2-D array")
        if inverse is None:
            if data.shape[0] != len(texts):
                raise DataError("feature rows do not match texts")
            data, inverse = _merge_repeats(texts, data)
        else:
            inverse = np.array(inverse, dtype=np.intp)
            if inverse.shape != (len(texts),) or np.any(
                (inverse < 0) | (inverse >= data.shape[0])
            ):
                raise DataError("inverse must hold one row index per text")
            inverse.setflags(write=False)
        return cls(texts, _normalize_rows(data), inverse)

    def stored_rows(self) -> np.ndarray:
        """One row per text, in text order."""
        return self.rows if self.inverse is None else self.rows[self.inverse]


@dataclass(frozen=True)
class TestBatch:
    """One batch of test-image embeddings, optionally tagged for evaluation."""

    __test__ = False  # not a pytest class despite the name

    images: EmbeddingMatrix
    ground_truth: tuple[str, ...] | None = None  # per-row "ID" / "OOD"

    def __post_init__(self):
        if self.ground_truth is not None:
            if len(self.ground_truth) != self.images.rows:
                raise DataError("ground truth length does not match images")
            bad = set(self.ground_truth) - {"ID", "OOD"}
            if bad:
                raise DataError(f"unknown ground-truth tags: {bad}")


def batches_truth(batches) -> dict[str, str]:
    """Image id -> "ID"/"OOD" tag over a stream of tagged batches."""
    return {i: t for b in batches for i, t in zip(b.images.ids, b.ground_truth)}
