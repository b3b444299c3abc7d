"""Score functions: grouped negative-label softmax, adaptive weight, fusion.

The core score is the temperature-scaled ratio

    sum_i exp(s_id_i / tau) / (sum_i exp(s_id_i / tau) + sum_j exp(s_neg_j / tau))

evaluated with a max-shift so that small temperatures (tau = 0.01 gives
exponents up to +-100) stay numerically safe. Negatives are partitioned
into contiguous groups and per-group scores are averaged.

`negative_scores` reduces a space's groups in one of two ways, without a
Python loop over the groups' columns. Each writes every row's per-group
log-sum-exps of the negatives into one (rows x groups) array:

- a space that merges repeated rows (the sentence space) divides its
  distinct columns by the temperature, shifts each row once by its
  maximum and exponentiates in place; a (distinct rows x groups) count
  matrix then gives every group's sum in one product. Its scores differ
  from the group-by-group reduction by ~1e-15. One shift per row would
  underflow a group lying more than ~708 below the row's maximum, which
  unit rows allow once 2 / temperature exceeds that, so above
  ROW_SHIFT_SPAN such a space is reduced as every other one is;
- every other space views its product's columns in text order as
  `(rows, groups, group_size)`, the ragged last group a view of its own,
  and shifts each group by its own maximum in place. Its scores keep
  every bit of a product over one stored row per text reduced group by
  group. Of the two forms of a space (see `NegativeSpace`), a stored
  space's rows are the product's columns, and a selection's (as a rule,
  the word space's corpus rows) are gathered in text order a column tile
  at a time, as are a repeated-row space's above ROW_SHIFT_SPAN.

After the walk, the per-group shares are computed in place in that array
and summed in group order, once, then divided: a pairwise sum keeps
sub-ulp deficits of scores near 1 that the sequential sum rounds away, and
so moves the scores.

The ID part (the log-sum-exp over the labels) depends only on the image
rows, so it is computed once per scored matrix by `id_part` and shared by
every space through `negative_scores`.

Three products go through one tile helper, `_blockwise`: the ID part of
`id_part`, each space's product in `negative_scores`, and the word-space
selection's product in `max_label_similarity`. Each row's result depends on
that row alone, so these rules cut every product, whatever its width:

- Padding: the product's columns are padded with zero rows to
  `_padded(width)`, a multiple of WIDTH_MULTIPLE and at least
  MIN_BLOCK_ROWS; the reductions read only the real columns.
- Workers: once its padded cells reach MIN_SPLIT_CELLS, a product is dealt
  to at most SCORE_WORKERS workers, and to no more than its rows fill
  shares of MIN_BLOCK_ROWS; the calling thread takes the first part.
- Tiles: the padded product is one grid of tiles of about BLOCK_CELLS
  cells, set over one worker's share of the rows and listed column run by
  column run; the list is dealt in contiguous runs. Each worker walks its
  tiles through one buffer, so a product is never held whole (1,000 images
  against 10,000 negatives would take 80 MB).
- Row runs: at least MIN_BLOCK_ROWS rows (or all of a product's fewer
  rows) and no taller than a share; a shorter tail joins the run before it.
- Column runs: only the group-by-group reduction over a share of at least
  MIN_BLOCK_ROWS rows cuts columns, into runs of whole
  lcm(group_size, WIDTH_MULTIPLE) units, at least MIN_BLOCK_ROWS wide (a
  narrower tail joins the run before it) and as wide as BLOCK_CELLS allows
  (`_tile_steps`). A tile so holds whole groups and only writes their
  log-sum-exps. The row-wise reductions (the ID part, the selection and the
  sentence count product) walk whole-width row runs: cutting the
  selection's 1,000 label columns measured slower (OpenBLAS 0.3.31).
- Gathering: a worker gathers each of its column runs of a selection, or of
  a product that needs padding, once, into its buffer beside the tile and
  followed by the padding's zeroed rows; only the run where two parts meet
  can be gathered twice. A column run cut to BLOCK_CELLS gathers about that
  many cells too.

BLAS packs the negatives for every product, so a tile as tall as the
budget allows packs them once per row run, where whole-width runs would
pack all 10,000 every 64 rows. Every tile makes the same BLAS product, of
the same bytes in the same layout, and the same row- or group-wise numpy as
the whole padded matrix, and on the BLAS measured (see MIN_BLOCK_ROWS) the
results keep every bit of it; `tests/test_scoring.py` checks that premise
on the BLAS in use. Where the width is not a multiple of
WIDTH_MULTIPLE, the real columns of the padded product can differ in their
last bits from those of an unpadded one.

The benchmark (`perfbench/`) wraps `grouped_scores_batch` by name and is
to wrap `id_part` and `negative_scores` too, so these three keep their
names and signatures.
"""
from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .embeddings import LabelSpace, NegativeSpace
from .errors import ConfigError, DataError, InputError, check_field_types

SCORE_WORKERS = 2
# A tile of a BLAS product rounds as the unsplit product only when it runs
# the same kernel tiles. OpenBLAS sends a one-row tile through gemv and a
# tile of under ~1200 cells through a small-matrix kernel, and when the
# product's width is not a multiple of 8 its last columns round by where the
# tile starts (measured with OpenBLAS 0.3.31 on x86-64, 1 and 2 BLAS
# threads). So every product is padded with zero rows to a width that is a
# multiple of WIDTH_MULTIPLE and at least MIN_BLOCK_ROWS (`_padded`), it is
# split only into tiles of at least MIN_BLOCK_ROWS rows and MIN_BLOCK_ROWS
# columns, and a tile's columns start at a multiple of WIDTH_MULTIPLE (cut
# at column 265, the tiles of an 82 x 464 product at dim 8 rounded
# otherwise). Halving the rows of a ragged product rounded otherwise too,
# unpadded (35 of 40 random products at dim 512, one BLAS thread), and
# never when padded.
MIN_BLOCK_ROWS = 64
WIDTH_MULTIPLE = 8
# below this many padded product cells a worker costs more than it saves
MIN_SPLIT_CELLS = 1 << 18
# a tile holds about this many product cells (4 MB of float64), so a large
# product is never held whole
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


# slotted: a stream's caller holds every record until export (a 24,000-image
# stream ~1.2 MB less than with a per-record dict)
@dataclass(frozen=True, slots=True)
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


def _padded(width: int) -> int:
    """The columns a product `width` columns wide is padded to with zero
    rows, so that its tiles round as the whole padded product (the rules
    above)."""
    return max(MIN_BLOCK_ROWS, -(-width // WIDTH_MULTIPLE) * WIDTH_MULTIPLE)


def _runs(lo: int, hi: int, step: int) -> list[int]:
    """Bounds of runs of `step` from `lo` to `hi`, a tail under
    MIN_BLOCK_ROWS joining the run before it."""
    bounds = list(range(lo, hi, step)) + [hi]
    if len(bounds) > 2 and hi - bounds[-2] < MIN_BLOCK_ROWS:
        del bounds[-2]
    return bounds


def _tile_steps(
    n_rows: int, width: int, group: int | None, dim: int = 0
) -> tuple[int, int]:
    """(rows, columns) of the tiles of a product padded to `width` columns
    (`_padded`), of which a worker takes `n_rows` rows. A tile holds about
    BLOCK_CELLS cells and at least MIN_BLOCK_ROWS rows. Given a `group`,
    `n_rows` of at least MIN_BLOCK_ROWS are also cut into column runs of a
    multiple of lcm(group, WIDTH_MULTIPLE), at least MIN_BLOCK_ROWS wide: as
    wide as the budget allows over those rows, or over a square tile's rows
    when they are more, and over the `dim` entries of a gathered column.
    Otherwise a tile spans the width."""
    col_step = width
    if group is not None and n_rows >= MIN_BLOCK_ROWS:
        unit = math.lcm(group, WIDTH_MULTIPLE)
        unit *= -(-MIN_BLOCK_ROWS // unit)
        side = min(n_rows, math.isqrt(BLOCK_CELLS))
        budget = BLOCK_CELLS // max(side, dim)
        col_step = min(width, max(unit, budget // unit * unit))
    return max(MIN_BLOCK_ROWS, BLOCK_CELLS // col_step), col_step


def _blockwise(rows, cols, reduce, group: int | None = None, take=None) -> None:
    """`reduce(lo, hi, start, rows[lo:hi] @ cols[start:end].T)` over the
    tiles of the grid `_tile_steps` sets over one worker's share of the
    product padded to `_padded` columns, `reduce` given only a tile's real
    columns; dealt as the module docstring says: the first part on the
    calling thread and the rest on a per-call pool (a module-level pool
    would hang a forked child). Given `take`, the product's columns are
    `cols[take]`. Those, and the columns of a product that needs padding,
    are gathered a column run at a time into a part's buffer, each of its
    runs once, the padding's rows zeroed. Once every part has stopped, the
    earliest part's exception is raised unchanged."""
    n = rows.shape[0]
    width = cols.shape[0] if take is None else take.size
    padded = _padded(width)
    if padded != width and take is None:
        take = np.arange(width)
    dim = 0 if take is None else cols.shape[1]
    k = 1
    if n * padded >= MIN_SPLIT_CELLS:
        k = max(1, min(SCORE_WORKERS, n // MIN_BLOCK_ROWS))
    share = max(1, -(-n // k))
    row_step, col_step = _tile_steps(share, padded, group, dim)
    row_bounds = _runs(0, n, min(row_step, share))
    col_bounds = _runs(0, padded, col_step)
    runs = zip(col_bounds, col_bounds[1:]), zip(row_bounds, row_bounds[1:])
    tiles = list(itertools.product(*runs))  # column run by column run
    parts = [tiles[len(tiles) * i // k : len(tiles) * (i + 1) // k] for i in range(k)]
    # one buffer per part, reused by each of its tiles: the tile, then a
    # column run's gathered rows; the calling thread allocates them all, as
    # a worker's own large temporaries would stay in its malloc arena
    size = np.diff(row_bounds).max(initial=0) * np.diff(col_bounds).max(initial=0)
    buffers = [np.empty(size + np.diff(col_bounds).max(initial=0) * dim) for _ in parts]

    def fill(part, buffer) -> None:
        tile, gathered = buffer[:size], buffer[size:]
        for (start, stop), run in itertools.groupby(part, key=lambda t: t[0]):
            block, end = cols[start:stop], min(stop, width)
            if take is not None:
                # laid out as the same rows of a copy of cols[take] would be,
                # then the padding's rows, zeroed so that no stale bytes (a
                # NaN, say) enter the product; mode="clip" writes straight
                # into `out`
                block = gathered[: (stop - start) * dim].reshape(stop - start, dim)
                real = block[: end - start]
                np.take(cols, take[start:end], axis=0, out=real, mode="clip")
                block[end - start :] = 0.0
            for _, (lo, hi) in run:
                out = tile[: (hi - lo) * (stop - start)].reshape(hi - lo, stop - start)
                np.matmul(rows[lo:hi], block.T, out=out)
                reduce(lo, hi, start, out[:, : end - start])

    with ThreadPoolExecutor(max(1, len(parts) - 1)) as pool:
        futures = [pool.submit(fill, *job) for job in zip(parts[1:], buffers[1:])]
        fill(parts[0], buffers[0])
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
        # the first column equal to the row's maximum is the row's argmax; a
        # mask of it, an eighth of the tile, stands in for the copy of the
        # tile np.argmax makes when its rows are a padded tile's real columns
        top = np.max(sims, axis=1, keepdims=True)
        predictions[lo:hi] = np.argmax(sims == top, axis=1)
        sims /= cfg.temperature
        lse_id[lo:hi] = _logsumexp_rows(sims)

    _blockwise(images, ids.features.data, reduce)
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

    _blockwise(rows, ids.features.data, reduce)
    return max_sim


def _group_counts(
    inverse: np.ndarray, n_distinct: int, group_size: int
) -> np.ndarray:
    """(distinct rows x groups) float matrix: how many texts of each group
    have each distinct row. Its width is padded with zero columns to
    `_padded(groups)`, as every product is, so that every row run of
    `E @ counts` rounds as the whole product."""
    groups = -(-inverse.size // group_size)
    width = _padded(groups)
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
    cut in text order into groups of `cfg.group_size`."""
    rows = neg.rows
    if rows.shape[1] != images.shape[1]:
        raise DataError(f"negative dim {rows.shape[1]} vs image dim {images.shape[1]}")
    n = images.shape[0]
    g, tau = cfg.group_size, cfg.temperature
    n_groups = -(-neg.size // g)
    # each tile writes its rows' log-sum-exps of its groups' negatives; the
    # count product writes its padding columns too (see `_group_counts`)
    lse = np.empty((n, _padded(n_groups)))

    if neg.merges and 2.0 / tau <= ROW_SHIFT_SPAN:
        # repeated rows: one shift per row, every group's sum from one product
        counts = _group_counts(neg.inverse, rows.shape[0], g)

        def reduce(lo: int, hi: int, _start: int, sims: np.ndarray) -> None:
            sims /= tau
            shift = np.max(sims, axis=1, keepdims=True)
            sims -= shift
            np.exp(sims, out=sims)
            sums = np.matmul(sims, counts, out=lse[lo:hi])[:, :n_groups]
            np.log(sums, out=sums)
            sums += shift

        _blockwise(images, rows, reduce)
    else:
        # each group shifted by its own maximum, in views of a tile of whole
        # groups in text order (the last may end in the ragged group)
        def reduce(lo: int, hi: int, start: int, sims: np.ndarray) -> None:
            sims /= tau
            width = sims.shape[1]
            full = width - width % g
            out = lse[lo:hi, start // g : -(-(start + width) // g)]
            whole = sims[:, :full].reshape(hi - lo, full // g, g)
            out[:, : full // g] = _logsumexp_rows(whole)
            if full < width:  # the ragged last group
                out[:, -1:] = _logsumexp_rows(sims[:, None, full:])

        # a selection's, or a repeated-row space's, columns gathered run by run
        _blockwise(images, rows, reduce, g, neg.inverse)

    lse = lse[:, :n_groups]
    # per-group score = 1 / (1 + exp(lse_neg - lse_id)), in place; at a tiny
    # temperature the exp overflows to inf and the score to its limit 0
    lse -= lse_id[:, None]
    with np.errstate(over="ignore"):
        np.exp(lse, out=lse)
    lse += 1.0
    np.divide(1.0, lse, out=lse)
    # summed in group order, not pairwise (see the module docstring)
    scores = np.zeros(n)
    for share in lse.T:
        scores += share
    return scores / n_groups


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
