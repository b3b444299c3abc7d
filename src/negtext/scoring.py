"""Score functions: grouped negative-label softmax, adaptive weight, fusion.

The core score is the temperature-scaled ratio

    sum_i exp(s_id_i / tau) / (sum_i exp(s_id_i / tau) + sum_j exp(s_neg_j / tau))

evaluated with a max-shift so that small temperatures (tau = 0.01 gives
exponents up to +-100) stay numerically safe. Negatives are partitioned
into contiguous groups and per-group scores are averaged.

`negative_scores` reduces a space's groups in one of two ways, without a
Python loop over the groups' columns:

- a space whose rows are all distinct (as a rule, the word and lookalike
  spaces) views its product as `(rows, groups, group_size)`, the ragged
  last group a view of its own, and shifts each group by its own maximum
  in place. Its scores keep every bit of a product over every stored row
  reduced group by group;
- a space with repeated rows (the sentence space) divides its distinct
  columns by the temperature, shifts each row once by its maximum and
  exponentiates in place; a (distinct rows x groups) count matrix then
  gives every group's sum in one product. Its scores differ from the
  group-by-group reduction by ~1e-15. One shift per row would underflow a
  group lying more than ~708 below the row's maximum, which unit rows
  allow once 2 / temperature exceeds that, so above ROW_SHIFT_SPAN its
  columns are gathered into text order, one per text, and reduced as an
  all-distinct space's are.

Both sum the per-group scores in group order, then divide: a pairwise sum
keeps sub-ulp deficits of scores near 1 that the sequential sum rounds
away, and so moves the scores.

The ID part (the log-sum-exp over the labels) depends only on the image
rows, so it is computed once per scored matrix by `id_part` and shared by
every space through `negative_scores`.

Three products go through one tile helper, `_blockwise`: the ID part of
`id_part`, each space's product in `negative_scores`, and the word-space
selection's product in `max_label_similarity`. Each row's result depends on
that row alone, so a large matrix is cut into contiguous row blocks by the
rules below: the calling thread takes the first and a worker thread the
second. Each block is walked in tiles of about BLOCK_CELLS cells through
one buffer per worker, so no product is held whole (1,000 images against
10,000 negatives would take 80 MB). A tile is a run of the block's rows
times a run of the columns. Only the all-distinct reduction works per
group, so only its tiles are narrower than the product: where the rules
below split rows, its column runs are multiples of lcm(group_size,
WIDTH_MULTIPLE) and at least MIN_BLOCK_ROWS wide, a narrower tail joining
the run before it, and a block too tall for a near-square tile is cut
into row runs as well. Each tile holds whole groups (the last may end in
the ragged group) and adds their shares to its rows' totals in group
order; the rows' last tile divides. The row-wise reductions (the ID part,
the selection, the sentence count product and the tiny-temperature
gather) walk whole-width row runs. BLAS packs the negatives for every
product, so a tile as tall as the budget allows packs them once per row
run, where whole-width runs would pack all 10,000 every 64 rows. Every
tile makes the same BLAS product and row- or group-wise numpy as the
unsplit matrix, and the results keep every bit.

The benchmark (`perfbench/`) wraps `grouped_scores_batch` by name and is
to wrap `id_part` and `negative_scores` too, so these three keep their
names and signatures.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .embeddings import LabelSpace, NegativeSpace
from .errors import ConfigError, DataError, InputError, check_field_types

SCORE_WORKERS = 2
# A row block of a BLAS product rounds as the unsplit product only when it
# runs the same kernel tiles. OpenBLAS sends a one-row block through gemv and
# a block of under ~1200 cells through a small-matrix kernel, and when the
# product's width is not a multiple of 8 its last columns round by where the
# block starts (measured with OpenBLAS 0.3.31 on x86-64, 1 and 2 BLAS
# threads). So a product is split only into blocks and tiles of at least
# MIN_BLOCK_ROWS rows and MIN_BLOCK_ROWS columns, only at a width that is a
# multiple of WIDTH_MULTIPLE, and a tile's columns start at a multiple of
# it (cut at column 265, the tiles of an 82 x 464 product at dim 8 rounded
# otherwise).
MIN_BLOCK_ROWS = 64
WIDTH_MULTIPLE = 8
# below this many score cells a worker costs more than it saves
MIN_SPLIT_CELLS = 1 << 18
# each worker walks its block in tiles of about this many product cells
# (4 MB of float64), so a large product is never held whole
BLOCK_CELLS = 1 << 19
# the 2 / temperature above which a repeated-row space shifts each group on
# its own (see the module docstring): exp(-708.4) is the smallest normal
# float, and 700 leaves room for the rows' norm tolerance
ROW_SHIFT_SPAN = 700.0


@dataclass(frozen=True)
class ScoreConfig:
    temperature: float = 0.01
    group_size: int = 100

    def __post_init__(self):
        check_field_types(self)
        _check_temperature(self.temperature)
        if self.group_size < 1:
            raise ConfigError(f"group size must be >= 1, got {self.group_size}")


@dataclass(frozen=True)
class ScoreRecord:
    image_id: str
    s_nl: float
    s_ens: float
    s_vsnl: float
    s_ada: float
    predicted_class: int


def _check_temperature(temperature) -> None:
    # written so that NaN fails too; the scores divide by the temperature.
    # Scaled unit-norm similarities span 2 / temperature, and rows are unit
    # norm only to within _NORM_SKIP_TOL, so 4 / temperature must be finite
    # for the max-shift in _logsumexp_rows not to overflow.
    if not (0.0 < temperature < math.inf and math.isfinite(4.0 / temperature)):
        raise ConfigError(
            f"temperature must be finite and > 0 with 4 / temperature finite, "
            f"got {temperature}"
        )


def _logsumexp_rows(scaled: np.ndarray) -> np.ndarray:
    """Log-sum-exp over the last axis of similarities already divided by the
    temperature; overwrites `scaled` rather than allocate its copies."""
    shift = np.max(scaled, axis=-1, keepdims=True)
    scaled -= shift
    np.exp(scaled, out=scaled)
    return shift[..., 0] + np.log(np.sum(scaled, axis=-1))


def _splittable(width: int) -> bool:
    """Whether row blocks of a product this wide round as the whole product
    (the rules above)."""
    return width >= MIN_BLOCK_ROWS and width % WIDTH_MULTIPLE == 0


def _row_blocks(n_rows: int, width: int, cells: int) -> list[tuple[int, int]]:
    """Contiguous `(lo, hi)` row blocks covering `n_rows` rows of a product
    `width` columns wide whose scoring touches `cells` cells: one block per
    score worker where the rules above allow it, else one block."""
    k = 1
    if cells >= MIN_SPLIT_CELLS and _splittable(width):
        k = max(1, min(SCORE_WORKERS, n_rows // MIN_BLOCK_ROWS))
    bounds = [n_rows * i // k for i in range(k + 1)]
    return list(zip(bounds, bounds[1:]))


def _runs(lo: int, hi: int, step: int) -> list[int]:
    """Bounds of runs of `step` from `lo` to `hi`, a tail under
    MIN_BLOCK_ROWS joining the run before it."""
    bounds = list(range(lo, hi, step)) + [hi]
    if len(bounds) > 2 and hi - bounds[-2] < MIN_BLOCK_ROWS:
        del bounds[-2]
    return bounds


def _tile_steps(n_rows: int, width: int, group: int | None) -> tuple[int, int]:
    """(rows, columns) of the tiles that walk a block of `n_rows` rows of a
    product `width` columns wide. Where the rules above allow the width,
    a tile holds about BLOCK_CELLS cells and at least MIN_BLOCK_ROWS rows.
    Given a `group`, a block of at least MIN_BLOCK_ROWS rows is also cut
    into column runs of a multiple of lcm(group, WIDTH_MULTIPLE), at least
    MIN_BLOCK_ROWS wide: as wide as the budget allows over the block's
    rows, or over a square tile's rows when the block is taller. Otherwise
    a tile spans the width."""
    if not _splittable(width):
        return max(n_rows, 1), width
    col_step = width
    if group is not None and n_rows >= MIN_BLOCK_ROWS:
        unit = math.lcm(group, WIDTH_MULTIPLE)
        unit *= -(-MIN_BLOCK_ROWS // unit)
        side = min(n_rows, math.isqrt(BLOCK_CELLS))
        col_step = min(width, max(unit, BLOCK_CELLS // side // unit * unit))
    return max(MIN_BLOCK_ROWS, BLOCK_CELLS // col_step), col_step


def _blockwise(rows, cols, cells: int, reduce, group: int | None = None) -> None:
    """`reduce(lo, hi, start, rows[lo:hi] @ cols[start:stop].T)` over the
    tiles of the `_row_blocks` of a product whose scoring touches `cells`
    cells, the first block on the calling thread and the rest on a per-call
    pool (a module-level pool would hang a forked child). Each block is
    walked in row runs, and each row run in column runs from left to right,
    as `_tile_steps` sets them; a tail under MIN_BLOCK_ROWS joins the run
    before it. Without a `group`, or where the rules above do not allow the
    width, a tile spans the width. Once every block has stopped, the
    earliest block's exception is raised unchanged."""
    n, width = rows.shape[0], cols.shape[0]
    walks = []
    for lo, hi in _row_blocks(n, width, cells):
        row_step, col_step = _tile_steps(hi - lo, width, group)
        walks.append((_runs(lo, hi, row_step), _runs(0, width, col_step)))
    # one tile-sized buffer per block, reused by each of its tiles; the
    # calling thread allocates them all, as a worker's own large temporaries
    # would stay in its malloc arena
    buffers = [
        np.empty((np.diff(r).max(initial=0), np.diff(c).max(initial=0)))
        for r, c in walks
    ]

    def fill(walk: tuple[list[int], list[int]], buffer: np.ndarray) -> None:
        row_bounds, col_bounds = walk
        flat = buffer.reshape(-1)
        for lo, hi in zip(row_bounds, row_bounds[1:]):
            for start, stop in zip(col_bounds, col_bounds[1:]):
                shape = (hi - lo, stop - start)
                out = flat[: shape[0] * shape[1]].reshape(shape)
                reduce(lo, hi, start, np.matmul(rows[lo:hi], cols[start:stop].T, out=out))

    with ThreadPoolExecutor(max(1, len(walks) - 1)) as pool:
        futures = [pool.submit(fill, *job) for job in zip(walks[1:], buffers[1:])]
        fill(walks[0], buffers[0])
    for future in futures:
        future.result()


def id_part(
    images: np.ndarray, ids: LabelSpace, cfg: ScoreConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Per image row: the log-sum-exp of the scaled ID similarities and the
    nearest ID class (ties to the lowest index), from one product."""
    if images.shape[1] != ids.features.dim:
        raise DataError(f"image dim {images.shape[1]} vs label dim {ids.features.dim}")
    n = images.shape[0]
    lse_id = np.empty(n)
    predictions = np.empty(n, dtype=np.intp)

    def reduce(lo: int, hi: int, _start: int, sims: np.ndarray) -> None:
        predictions[lo:hi] = np.argmax(sims, axis=1)
        sims /= cfg.temperature
        lse_id[lo:hi] = _logsumexp_rows(sims)

    _blockwise(images, ids.features.data, n * ids.n_classes, reduce)
    return lse_id, predictions


def max_label_similarity(rows: np.ndarray, ids: LabelSpace) -> np.ndarray:
    """Per row: its largest similarity to the ID labels, bit for bit
    `np.max(rows @ labels.T, axis=1)`, walked so that the product is never
    held whole."""
    if rows.shape[1] != ids.features.dim:
        raise DataError(f"row dim {rows.shape[1]} vs label dim {ids.features.dim}")
    max_sim = np.empty(rows.shape[0])

    def reduce(lo: int, hi: int, _start: int, sims: np.ndarray) -> None:
        np.max(sims, axis=1, out=max_sim[lo:hi])

    _blockwise(rows, ids.features.data, max_sim.size * ids.n_classes, reduce)
    return max_sim


def _group_counts(
    inverse: np.ndarray, n_distinct: int, group_size: int
) -> np.ndarray:
    """(distinct rows x groups) float matrix: how many texts of each group
    have each distinct row. Its width is padded with zero columns to a
    splittable product width, so that every row block of `E @ counts`
    rounds as the unsplit product."""
    groups = -(-inverse.size // group_size)
    width = max(MIN_BLOCK_ROWS, -(-groups // WIDTH_MULTIPLE) * WIDTH_MULTIPLE)
    cells = inverse * width + np.arange(inverse.size) // group_size
    counts = np.bincount(cells, minlength=n_distinct * width)
    return counts.reshape(n_distinct, width).astype(np.float64)


def negative_scores(
    images: np.ndarray,
    lse_id: np.ndarray,
    neg: NegativeSpace,
    cfg: ScoreConfig,
) -> np.ndarray:
    """Grouped score per image row from its precomputed ID part; negatives
    cut in storage order into groups of `cfg.group_size`, each distinct row
    multiplied once."""
    rows, inverse = neg.rows, neg.inverse
    if rows.shape[1] != images.shape[1]:
        raise DataError(f"negative dim {rows.shape[1]} vs image dim {images.shape[1]}")
    n = images.shape[0]
    scores = np.zeros(n)
    g, tau = cfg.group_size, cfg.temperature
    n_groups = -(-neg.size // g)

    if inverse is not None and 2.0 / tau <= ROW_SHIFT_SPAN:
        # repeated rows: one shift per row, every group's sum from one product
        counts = _group_counts(inverse, rows.shape[0], g)

        def lse_groups(sims: np.ndarray) -> np.ndarray:
            sims /= tau
            shift = np.max(sims, axis=1, keepdims=True)
            sims -= shift
            np.exp(sims, out=sims)
            return shift + np.log((sims @ counts)[:, :n_groups])

    else:
        # each group shifted by its own maximum, in views of the columns in
        # text order: a tile of whole groups (the last may end in the ragged
        # group) when the rows are all distinct, else the product's columns
        # gathered (a row shift could underflow a group)
        def lse_groups(sims: np.ndarray) -> np.ndarray:
            if inverse is None:
                sims /= tau
            else:
                sims = sims[:, inverse] / tau
            full = sims.shape[1] - sims.shape[1] % g
            parts = [sims[:, :full].reshape(len(sims), full // g, g)]
            if full < sims.shape[1]:  # a ragged last group
                parts.append(sims[:, None, full:])
            return np.concatenate([_logsumexp_rows(p) for p in parts], axis=1)

    def reduce(lo: int, hi: int, start: int, sims: np.ndarray) -> None:
        # per-group score = 1 / (1 + exp(lse_neg - lse_id)); at a tiny
        # temperature the exp overflows to inf and the score to its limit 0
        with np.errstate(over="ignore"):
            shares = 1.0 / (1.0 + np.exp(lse_groups(sims) - lse_id[lo:hi, None]))
        # summed in group order, tile after tile, not pairwise (see the
        # module docstring); the rows' last tile divides
        total = scores[lo:hi]
        for share in shares.T:
            total += share
        if start + sims.shape[1] == rows.shape[0]:
            total /= n_groups

    group = g if inverse is None else None
    _blockwise(images, rows, n * neg.size, reduce, group)
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
