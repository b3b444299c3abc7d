"""Score functions: grouped negative-label softmax, adaptive weight, fusion.

The core score is the temperature-scaled ratio

    sum_i exp(s_id_i / tau) / (sum_i exp(s_id_i / tau) + sum_j exp(s_neg_j / tau))

evaluated with a max-shift so that small temperatures (tau = 0.01 gives
exponents up to +-100) stay numerically safe. Negatives are partitioned
into contiguous groups and per-group scores are averaged.

The ID part (the log-sum-exp over the labels) depends only on the image
rows, so it is computed once per scored matrix by `id_part` and shared by
every space through `negative_scores`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import LabelSpace, NegativeSpace
from .errors import ConfigError, DimError, InputError, check_field_types


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
    # written so that NaN fails too
    if not 0.0 < temperature < math.inf:
        raise ConfigError(f"temperature must be finite and > 0, got {temperature}")


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


def _logsumexp_rows(sims: np.ndarray, temperature: float) -> np.ndarray:
    scaled = sims / temperature
    shift = np.max(scaled, axis=1, keepdims=True)
    return shift[:, 0] + np.log(np.sum(np.exp(scaled - shift), axis=1))


def id_part(
    images: np.ndarray, ids: LabelSpace, cfg: ScoreConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Per image row: the log-sum-exp of the scaled ID similarities and the
    nearest ID class (ties to the lowest index), from one product."""
    if images.shape[1] != ids.features.dim:
        raise DimError(
            f"image dim {images.shape[1]} vs label dim {ids.features.dim}"
        )
    sim_id = images @ ids.features.data.T
    return _logsumexp_rows(sim_id, cfg.temperature), np.argmax(sim_id, axis=1)


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
    sim_neg = images @ rows.T
    total = np.zeros(images.shape[0])
    slices = neg.group_slices()
    for sl in slices:
        group = sim_neg[:, sl] if inverse is None else sim_neg[:, inverse[sl]]
        lse_neg = _logsumexp_rows(group, cfg.temperature)
        # per-group score = 1 / (1 + exp(lse_neg - lse_id))
        total += 1.0 / (1.0 + np.exp(lse_neg - lse_id))
    return total / len(slices)


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
