"""Score functions: grouped negative-label softmax, adaptive weight, fusion.

The core score is the temperature-scaled ratio

    sum_i exp(s_id_i / tau) / (sum_i exp(s_id_i / tau) + sum_j exp(s_neg_j / tau))

evaluated with a max-shift so that small temperatures (tau = 0.01 gives
exponents up to +-100) stay numerically safe. Negatives are partitioned
into contiguous groups and per-group scores are averaged.

The ID part (the log-sum-exp over the labels) depends only on the image
rows, so it is computed once per scored matrix by `id_part` and shared by
every space through `negative_scores`.

Each image row's score depends on that row alone, so both functions cut a
large matrix into contiguous row blocks: the calling thread scores the
first and a worker thread the second. Every block runs the same BLAS
product and row-wise numpy as the unsplit matrix, and the scores keep
every bit.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .embeddings import LabelSpace, NegativeSpace
from .errors import ConfigError, DimError, InputError, check_field_types

SCORE_WORKERS = 2
# A row block of a BLAS product rounds as the unsplit product only when it
# runs the same kernel tiles. OpenBLAS sends a one-row block through gemv and
# a block of under ~1200 cells through a small-matrix kernel, and when the
# product's width is not a multiple of 8 its last columns round by where the
# block starts (measured with OpenBLAS 0.3.31 on x86-64, 1 and 2 BLAS
# threads). So a product is split only into blocks of at least
# MIN_BLOCK_ROWS rows and MIN_BLOCK_ROWS columns, and only at a width that
# is a multiple of WIDTH_MULTIPLE.
MIN_BLOCK_ROWS = 64
WIDTH_MULTIPLE = 8
# below this many score cells a worker costs more than it saves
MIN_SPLIT_CELLS = 1 << 18


@dataclass(frozen=True)
class ScoreConfig:
    temperature: float = 0.01
    group_size: int = 100
    lambda_override: float | None = None  # None: the adaptive weight

    def __post_init__(self):
        check_field_types(self)
        _check_temperature(self.temperature)
        if self.group_size < 1:
            raise ConfigError(f"group size must be >= 1, got {self.group_size}")
        if self.lambda_override is not None and not 0.0 <= self.lambda_override <= 1.0:
            raise ConfigError(
                f"lambda override must lie in [0, 1], got {self.lambda_override}"
            )


@dataclass(frozen=True)
class ScoreRecord:
    image_id: str
    s_nl: float
    s_ens: float
    s_vsnl: float
    s_ada: float
    predicted_class: int


def _check_temperature(temperature) -> None:
    # written so that NaN fails too; the scores divide by the temperature
    if not (0.0 < temperature < math.inf and math.isfinite(1.0 / temperature)):
        raise ConfigError(
            f"temperature must be finite and > 0 with a finite reciprocal, "
            f"got {temperature}"
        )


def softmax_score(sim_id, sim_neg, temperature: float) -> float:
    """ID-mass fraction of the temperature-scaled softmax over ID + negatives."""
    _check_temperature(temperature)
    sim_id = np.asarray(sim_id, dtype=np.float64)
    sim_neg = np.asarray(sim_neg, dtype=np.float64)
    if sim_id.size == 0:
        raise InputError("empty ID similarity vector")
    if sim_neg.size == 0:
        return 1.0
    shift = max(float(np.max(sim_id)), float(np.max(sim_neg)))
    num = float(np.sum(np.exp((sim_id - shift) / temperature)))
    den = num + float(np.sum(np.exp((sim_neg - shift) / temperature)))
    return num / den


def _logsumexp_rows(scaled: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp of similarities already divided by the
    temperature; overwrites `scaled` rather than allocate its copies."""
    shift = np.max(scaled, axis=1, keepdims=True)
    scaled -= shift
    np.exp(scaled, out=scaled)
    return shift[:, 0] + np.log(np.sum(scaled, axis=1))


def _row_blocks(n_rows: int, width: int, cells: int) -> list[tuple[int, int]]:
    """Contiguous `(lo, hi)` row blocks covering `n_rows` rows of a product
    `width` columns wide whose scoring touches `cells` cells: one block per
    score worker where the rules above allow it, else one block."""
    k = 1
    if (
        cells >= MIN_SPLIT_CELLS
        and width >= MIN_BLOCK_ROWS
        and width % WIDTH_MULTIPLE == 0
    ):
        k = max(1, min(SCORE_WORKERS, n_rows // MIN_BLOCK_ROWS))
    bounds = [n_rows * i // k for i in range(k + 1)]
    return list(zip(bounds, bounds[1:]))


def _by_row_blocks(fill, blocks: list[tuple[int, int]]) -> None:
    """`fill(lo, hi)` for each block, the first on the calling thread and
    the rest on a per-call pool (a module-level pool would hang a forked
    child). Returns once every block has stopped; a block's exception is
    raised unchanged, the earliest block's first."""
    if len(blocks) == 1:
        fill(*blocks[0])
        return
    with ThreadPoolExecutor(len(blocks) - 1) as pool:
        futures = [pool.submit(fill, lo, hi) for lo, hi in blocks[1:]]
        fill(*blocks[0])
    for future in futures:
        future.result()


def id_part(
    images: np.ndarray, ids: LabelSpace, cfg: ScoreConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Per image row: the log-sum-exp of the scaled ID similarities and the
    nearest ID class (ties to the lowest index), from one product."""
    if images.shape[1] != ids.features.dim:
        raise DimError(
            f"image dim {images.shape[1]} vs label dim {ids.features.dim}"
        )
    labels = ids.features.data
    n, width = images.shape[0], labels.shape[0]
    # the caller owns every large buffer and each block works on its rows in
    # place: a worker's own large temporaries would stay in its malloc arena
    sim_id = np.empty((n, width))
    lse_id = np.empty(n)
    predictions = np.empty(n, dtype=np.intp)

    def fill(lo: int, hi: int) -> None:
        sims = np.matmul(images[lo:hi], labels.T, out=sim_id[lo:hi])
        predictions[lo:hi] = np.argmax(sims, axis=1)
        sims /= cfg.temperature
        lse_id[lo:hi] = _logsumexp_rows(sims)

    _by_row_blocks(fill, _row_blocks(n, width, n * width))
    return lse_id, predictions


def negative_scores(
    images: np.ndarray,
    lse_id: np.ndarray,
    neg: NegativeSpace,
    cfg: ScoreConfig,
) -> np.ndarray:
    """Grouped score per image row from its precomputed ID part; negatives
    grouped in storage order, each distinct row multiplied once."""
    if neg.features.dim != images.shape[1]:
        raise DimError(
            f"negative dim {neg.features.dim} vs image dim {images.shape[1]}"
        )
    rows, inverse = neg.distinct_rows
    n, width = images.shape[0], rows.shape[0]
    sim_neg = np.empty((n, width))
    scores = np.zeros(n)
    slices = neg.group_slices()

    def fill(lo: int, hi: int) -> None:
        sims = np.matmul(images[lo:hi], rows.T, out=sim_neg[lo:hi])
        total = scores[lo:hi]
        for sl in slices:
            group = sims[:, sl] if inverse is None else sims[:, inverse[sl]]
            lse_neg = _logsumexp_rows(group / cfg.temperature)
            # per-group score = 1 / (1 + exp(lse_neg - lse_id)); at a tiny
            # temperature the exp overflows to inf and the score to its limit 0
            with np.errstate(over="ignore"):
                total += 1.0 / (1.0 + np.exp(lse_neg - lse_id[lo:hi]))
        total /= len(slices)

    _by_row_blocks(fill, _row_blocks(n, width, n * neg.size))
    return scores


def grouped_scores_batch(
    images: np.ndarray,
    ids: LabelSpace,
    neg: NegativeSpace,
    cfg: ScoreConfig,
) -> np.ndarray:
    """Grouped score per image row; negatives grouped in storage order."""
    lse_id, _ = id_part(images, ids, cfg)
    return negative_scores(images, lse_id, neg, cfg)


def grouped_score(
    v: np.ndarray, ids: LabelSpace, neg: NegativeSpace, cfg: ScoreConfig
) -> float:
    v = np.asarray(v, dtype=np.float64)
    return float(grouped_scores_batch(v[None, :], ids, neg, cfg)[0])


def adaptive_lambda(ens_scores, vsnl_scores) -> float:
    """Mixing weight from mean scores of the mined negative images.

    F(a, b) = (1 - a) / ((1 - a) + (1 - b)); the degenerate case a = b = 1
    returns 0.5 (both spaces equally uninformative).
    """
    ens_scores = np.asarray(ens_scores, dtype=np.float64)
    vsnl_scores = np.asarray(vsnl_scores, dtype=np.float64)
    if ens_scores.size == 0 or vsnl_scores.size == 0:
        raise InputError("adaptive weight needs non-empty score vectors")
    if ens_scores.shape != vsnl_scores.shape:
        raise InputError("score vectors must have equal length")
    a = float(np.mean(ens_scores))
    b = float(np.mean(vsnl_scores))
    denom = (1.0 - a) + (1.0 - b)
    if denom == 0.0:
        return 0.5
    return (1.0 - a) / denom


def fused_score(s_ens: float, s_vsnl: float, lam: float) -> float:
    if not 0.0 <= lam <= 1.0:
        raise InputError(f"lambda must lie in [0, 1], got {lam}")
    return lam * s_ens + (1.0 - lam) * s_vsnl


def detect(score: float, gamma: float) -> str:
    """Threshold detector: ID iff score >= gamma."""
    return "ID" if score >= gamma else "OOD"
