"""Streaming loop: cache, mine, regenerate spaces, score, adapt the weight.

Per batch: the batch joins the historical cache, negative images and the
similar ID-class subset are mined from the cache (always against the
fixed initial negative-label space), the two adaptive spaces are
regenerated through the client, the mixing weight is recomputed from the
mined negatives, and the batch is scored. Generation failures leave the
previous spaces in force and flag the state as degraded instead of
stalling the stream.
"""
from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field, asdict
from pathlib import Path

from .clients import GenerationClient
from .embeddings import (
    LabelSpace,
    NegativeSpace,
    TestBatch,
    decode_nspc,
    encode_nspc,
    with_ids,
)
from .errors import (
    ConfigError, DataError, FormatError, GenerationError, InputError, check_field_types
)
from .mining import (
    HistoryCache,
    MiningConfig,
    mine_negative_images,
    mine_similar_classes,
)
from .scoring import (
    ScoreConfig,
    ScoreRecord,
    adaptive_lambda,
    fused_score,
    id_part,
    negative_scores,
)
from .spaces import (
    SENTENCE_MAX_WORDS,
    SENTENCE_MIN_WORDS,
    CorpusCandidates,
    generate_ens,
    generate_vsnl,
    select_initial_nls,
)

CHECKPOINT_MAGIC = b"NCKP"
CHECKPOINT_VERSION = 2
# the matrices after the checkpoint header, in file order
CHECKPOINT_MATRICES = ("labels", "cache", "nl", "ens", "vsnl")


@dataclass(frozen=True)
class PipelineConfig:
    score: ScoreConfig = field(default_factory=ScoreConfig)
    mining: MiningConfig = field(default_factory=MiningConfig)
    num_negatives: int = 10000
    sentence_len_max: int = SENTENCE_MAX_WORDS

    def __post_init__(self):
        check_field_types(self)
        if self.num_negatives < self.score.group_size:
            raise ConfigError(
                "negative count must be at least one scoring group"
            )
        if self.sentence_len_max < SENTENCE_MIN_WORDS:
            raise ConfigError(f"sentence length cap must be >= {SENTENCE_MIN_WORDS}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, spec: dict) -> "PipelineConfig":
        try:
            spec = dict(spec)
            score = ScoreConfig(**spec.pop("score", {}))
            mining = MiningConfig(**spec.pop("mining", {}))
            return cls(score=score, mining=mining, **spec)
        except TypeError as exc:  # unknown key, or a value of the wrong type
            raise ConfigError(f"invalid config: {exc}") from exc

    def digest(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class StreamState:
    label_space: LabelSpace
    config: PipelineConfig
    cache: HistoryCache
    nl_space: NegativeSpace
    ens_space: NegativeSpace
    vsnl_space: NegativeSpace
    rng_seed: int
    degraded: bool = False
    # one fusion weight per processed batch
    lambda_history: list[float] = field(default_factory=list)

    @property
    def epoch(self) -> int:
        """Batches processed so far."""
        return len(self.lambda_history)

    @property
    def lambda_(self) -> float:
        """The latest fusion weight; 0.5 before the first batch."""
        return self.lambda_history[-1] if self.lambda_history else 0.5


def init_stream(
    ids: LabelSpace,
    corpus: CorpusCandidates,
    cfg: PipelineConfig,
    seed: int,
) -> StreamState:
    """Fresh state: both adaptive spaces alias the initial NL selection."""
    nl_space = select_initial_nls(corpus, ids, cfg.num_negatives)
    return StreamState(
        label_space=ids,
        config=cfg,
        cache=HistoryCache(cfg.mining.cache_capacity, ids.features.dim, seed),
        nl_space=nl_space,
        ens_space=nl_space,
        vsnl_space=nl_space,
        rng_seed=seed,
    )


def _regenerate(state: StreamState, client: GenerationClient) -> float:
    """Mine the cache, swap in fresh adaptive spaces and return their fusion
    weight; the current weight, with the spaces kept, when nothing is mined."""
    cfg = state.config
    n = len(state.cache)
    mined = mine_negative_images(
        state.cache.ids, state.cache.nl_scores[:n], cfg.mining
    )
    if mined.empty:
        return state.lambda_
    predictions = state.cache.predictions[:n]
    predicted_labels = {
        image_id: state.label_space.labels[predictions[idx]]
        for image_id, idx in zip(mined.image_ids, mined.indices)
    }
    ens_space = generate_ens(
        mined,
        predicted_labels,
        state.label_space,
        client,
        cfg.num_negatives,
        seed=state.rng_seed,
        epoch=state.epoch + 1,
        len_max=cfg.sentence_len_max,
    )
    classes = mine_similar_classes(predictions, state.label_space, cfg.mining)
    vsnl_space = generate_vsnl(classes, state.label_space, client, cfg.num_negatives)
    neg_vectors = state.cache.matrix()[list(mined.indices)]
    lse_id, _ = id_part(neg_vectors, state.label_space, cfg.score)
    ens_scores = negative_scores(neg_vectors, lse_id, ens_space, cfg.score)
    vsnl_scores = negative_scores(neg_vectors, lse_id, vsnl_space, cfg.score)
    state.ens_space = ens_space
    state.vsnl_space = vsnl_space
    return adaptive_lambda(ens_scores, vsnl_scores)


def process_batch(
    state: StreamState, batch: TestBatch, client: GenerationClient
) -> list[ScoreRecord]:
    """One streaming step; returns score records for the current batch."""
    cfg = state.config
    # the NL space and the label space are fixed for the stream, so these
    # serve both the batch's records and its rows in the cache; the ID part
    # serves every space, and raises DataError for a batch of another dim
    # before the batch changes any state
    images = batch.images.data
    lse_id, predictions = id_part(images, state.label_space, cfg.score)
    s_nl = negative_scores(images, lse_id, state.nl_space, cfg.score)
    slots = state.cache.append_batch(batch)
    kept = slots >= 0
    state.cache.nl_scores[slots[kept]] = s_nl[kept]
    state.cache.predictions[slots[kept]] = predictions[kept]
    lam = state.lambda_
    if len(state.cache) > 0:
        try:
            lam = _regenerate(state, client)
        except (GenerationError, DataError):  # e.g. a non-finite embedding
            state.degraded = True

    s_ens = negative_scores(images, lse_id, state.ens_space, cfg.score)
    s_vsnl = negative_scores(images, lse_id, state.vsnl_space, cfg.score)
    records = [
        ScoreRecord(
            image_id=batch.images.ids[i],
            s_nl=float(s_nl[i]),
            s_ens=float(s_ens[i]),
            s_vsnl=float(s_vsnl[i]),
            s_ada=fused_score(float(s_ens[i]), float(s_vsnl[i]), lam),
            predicted_class=int(predictions[i]),
        )
        for i in range(batch.images.rows)
    ]
    state.lambda_history.append(lam)
    return records


def run_stream(
    batches,
    ids: LabelSpace,
    corpus: CorpusCandidates,
    client: GenerationClient,
    cfg: PipelineConfig,
    seed: int,
) -> tuple[list[ScoreRecord], StreamState]:
    batches = list(batches)
    if not batches:
        raise InputError("at least one batch is required")
    state = init_stream(ids, corpus, cfg, seed)
    records: list[ScoreRecord] = []
    for batch in batches:
        records.extend(process_batch(state, batch, client))
    return records, state


def save_checkpoint(state: StreamState, path) -> None:
    """Single-file checkpoint: JSON header, then one NSPC container per
    matrix (labels, cache, nl, ens, vsnl)."""
    spaces = {"nl": state.nl_space, "ens": state.ens_space, "vsnl": state.vsnl_space}
    matrices = [state.label_space.features.data, state.cache.matrix()] + [
        space.stored_rows() for space in spaces.values()
    ]
    payloads = [encode_nspc(m) for m in matrices]
    header = {
        "lambda_history": state.lambda_history,
        "rng_seed": state.rng_seed,
        "degraded": state.degraded,
        "config": state.config.to_dict(),
        "config_hash": state.config.digest(),
        "labels": list(state.label_space.labels),
        "label_ids": list(state.label_space.features.ids),
        "prompt_template": state.label_space.prompt_template,
        "cache": state.cache.state_dict(),
        "spaces": {name: {"texts": list(s.texts)} for name, s in spaces.items()},
        "blob_sizes": [len(b) for b in payloads],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IQ", CHECKPOINT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for blob in payloads:
            fh.write(blob)


def _str_list(value, name: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"{name} must be a list of str")
    return value


def load_checkpoint(path) -> StreamState:
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint file")
    if len(raw) < 16:
        raise FormatError(f"{path}: truncated checkpoint header")
    version, header_len = struct.unpack("<IQ", raw[4:16])
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    try:
        header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
        expected = 16 + header_len + sum(header["blob_sizes"])
    except (ValueError, KeyError, TypeError) as exc:  # cut or corrupted header
        raise FormatError(f"{path}: unreadable checkpoint header ({exc!r})") from exc
    if len(raw) != expected:
        raise FormatError(f"{path}: checkpoint size {len(raw)}, expected {expected}")
    if len(header["blob_sizes"]) != len(CHECKPOINT_MATRICES):
        raise FormatError(f"{path}: expected {len(CHECKPOINT_MATRICES)} matrices")
    matrices = []
    cursor = 16 + header_len
    for name, size in zip(CHECKPOINT_MATRICES, header["blob_sizes"]):
        matrices.append(decode_nspc(raw[cursor : cursor + size], f"{path} [{name}]"))
        cursor += size
    label_data, cache_data, *space_data = matrices
    try:  # a header that parses may still miss a field or hold a bad one
        label_space = LabelSpace(
            labels=tuple(_str_list(header["labels"], "labels")),
            features=with_ids(header["label_ids"], label_data, f"{path} [labels]"),
            prompt_template=header["prompt_template"],
        )
        config = PipelineConfig.from_dict(header["config"])
        if header["config_hash"] != config.digest():
            raise ValueError("config_hash is not the digest of the config")
        if type(header["rng_seed"]) is not int:
            raise TypeError("rng_seed must be an int")
        # the cache rows stay a bare array: a stream may repeat an image id
        cached, n_rows = header["cache"], cache_data.shape[0]
        _str_list(cached["ids"], "cache ids")
        if cache_data.shape != (len(cached["ids"]), label_space.features.dim):
            raise FormatError(f"{path}: cache rows do not match their ids and dim")
        if type(cached["n_seen"]) is not int or cached["n_seen"] < n_rows:
            raise ValueError(f"cache n_seen must be an int >= its {n_rows} rows")
        if not n_rows <= cached["capacity"] == config.mining.cache_capacity:
            raise ValueError(f"cache capacity must be the config's, >= {n_rows} rows")
        cache = HistoryCache.from_state(cached, cache_data, header["rng_seed"])
        spaces = {}
        for name, data in zip(CHECKPOINT_MATRICES[2:], space_data):
            texts = _str_list(header["spaces"][name]["texts"], f"{name} texts")
            if len(texts) != data.shape[0]:
                raise ValueError(f"{name}: {len(texts)} texts for {data.shape[0]} rows")
            spaces[name] = NegativeSpace.from_rows(texts, data)
        history = header["lambda_history"]
        # a weight is a number in [0, 1]; NaN and bool fail
        if not isinstance(history, list) or not all(
            type(lam) in (int, float) and 0.0 <= lam <= 1.0 for lam in history
        ):
            raise ValueError("lambda_history must be a list of weights in [0, 1]")
        if not isinstance(header["degraded"], bool):
            raise TypeError("degraded must be a bool")
        scalars = {
            "rng_seed": header["rng_seed"],
            "degraded": header["degraded"],
            "lambda_history": history,
        }
    except (
        KeyError, TypeError, ValueError, OverflowError, ConfigError, DataError
    ) as exc:  # OverflowError: an rng_state integer outside its 128 bits
        raise FormatError(f"{path}: bad checkpoint header field ({exc!r})") from exc
    # the per-row columns are not stored; rebuild them from the loaded rows
    n = len(cache)
    lse_id, predictions = id_part(cache_data, label_space, config.score)
    cache.predictions[:n] = predictions
    cache.nl_scores[:n] = negative_scores(
        cache_data, lse_id, spaces["nl"], config.score
    )
    return StreamState(
        label_space=label_space,
        config=config,
        cache=cache,
        nl_space=spaces["nl"],
        ens_space=spaces["ens"],
        vsnl_space=spaces["vsnl"],
        **scalars,
    )
