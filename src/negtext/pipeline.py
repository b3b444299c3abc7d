"""Streaming loop: cache, mine, regenerate spaces, score, adapt the weight.

Per batch: the batch joins the historical cache, negative images and the
similar ID-class subset are mined from the cache (always against the
fixed initial negative-label space), the two adaptive spaces are
regenerated through the client in two concurrent lanes (see `_regenerate`),
the mixing weight is recomputed from the mined negatives, and the batch is
scored. A layer whose generation fails keeps its previous space, the
weight keeps its previous value, and the state is flagged as degraded
instead of stalling the stream; the other layer's new space stands.
"""
from __future__ import annotations

import hashlib
import json
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .clients import GenerationClient
from .embeddings import (
    _ROW_RUN, LabelSpace, NegativeSpace, TestBatch, decode_nspc, encode_nspc
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
CHECKPOINT_VERSION = 3
# the matrices after the checkpoint header, in file order
CHECKPOINT_MATRICES = ("cache", "ens", "vsnl")


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


def _generated(build, *args):
    """`build(*args)`, or None when generation fails."""
    try:
        return build(*args)
    except (GenerationError, DataError):  # e.g. a non-finite embedding
        return None


def _regenerate(
    state: StreamState,
    client: GenerationClient,
    images: np.ndarray,
    lse_id: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Mine the cache and regenerate the adaptive spaces in two lanes; returns
    the fusion weight and the batch's lookalike scores. When the cache is
    empty or nothing is mined, no lane starts: the current weight and the
    batch's scores against the current lookalike space.

    The lookalike lane runs on the calling thread: it generates its space,
    swaps it into the state, scores the mined rows, then scores the batch
    against the state's lookalike space. The sentence lane runs on one
    worker of a per-call pool (a module-level pool would hang a forked
    child): it requests the descriptions, waits until the lookalike lane
    has swapped its space in or failed, then embeds the sentences and
    scores the mined rows. So one embedding request is in flight at a
    time, and the old lookalike space is gone before the second. A layer
    whose generation fails keeps its space and flags the state degraded;
    the weight is then the current one. Any other exception is raised once
    both lanes have stopped.
    """
    cfg = state.config
    ids = state.label_space
    n = len(state.cache)
    if n:
        mined = mine_negative_images(
            state.cache.ids, state.cache.nl_scores[:n], cfg.mining
        )
    if n == 0 or mined.empty:
        return state.lambda_, negative_scores(
            images, lse_id, state.vsnl_space, cfg.score
        )
    predictions = state.cache.predictions[:n]
    predicted_labels = {
        image_id: ids.labels[predictions[idx]]
        for image_id, idx in zip(mined.image_ids, mined.indices)
    }
    classes = mine_similar_classes(predictions, ids, cfg.mining)
    neg_vectors = state.cache.matrix()[list(mined.indices)]
    lse_neg, _ = id_part(neg_vectors, ids, cfg.score)
    epoch = state.epoch + 1
    vsnl_settled = threading.Event()

    def sentence_lane() -> tuple[NegativeSpace, np.ndarray]:
        space = generate_ens(
            mined, predicted_labels, ids, client, cfg.num_negatives,
            seed=state.rng_seed, epoch=epoch, len_max=cfg.sentence_len_max,
            before_embed=vsnl_settled.wait,
        )
        return space, negative_scores(neg_vectors, lse_neg, space, cfg.score)

    with ThreadPoolExecutor(1) as pool:
        ens_lane = pool.submit(_generated, sentence_lane)
        try:
            vsnl_space = _generated(
                generate_vsnl, classes, ids, client, cfg.num_negatives
            )
            if vsnl_space is not None:
                state.vsnl_space = vsnl_space
        finally:
            vsnl_settled.set()
        if vsnl_space is not None:
            vsnl_scores = negative_scores(neg_vectors, lse_neg, vsnl_space, cfg.score)
        s_vsnl = negative_scores(images, lse_id, state.vsnl_space, cfg.score)
        ens = ens_lane.result()
    if ens is not None:
        state.ens_space, ens_scores = ens
    if ens is None or vsnl_space is None:
        state.degraded = True
        return state.lambda_, s_vsnl
    return adaptive_lambda(ens_scores, vsnl_scores), s_vsnl


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
    lam, s_vsnl = _regenerate(state, client, images, lse_id)
    s_ens = negative_scores(images, lse_id, state.ens_space, cfg.score)
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


def _inputs_digest(state: StreamState) -> str:
    """sha256 of what a stream takes from its inputs alone: the config, the
    labels with their template and rows, and the word space's texts and rows
    (one row per text, so the texts' count fixes where the rows part). The
    word space's rows are hashed a run of texts at a time, so no copy of
    them is gathered."""
    ids, nl = state.label_space, state.nl_space
    facts = [state.config.to_dict(), ids.labels, ids.prompt_template, nl.texts]
    digest = hashlib.sha256(json.dumps(facts, sort_keys=True).encode("utf-8"))
    digest.update(np.ascontiguousarray(ids.features.data, dtype="<f8"))
    for start in range(0, nl.size, _ROW_RUN):
        rows = nl.stored_rows(start, start + _ROW_RUN)
        digest.update(np.ascontiguousarray(rows, dtype="<f8"))
    return digest.hexdigest()


def _header_bytes(state: StreamState, digest: str, blob_sizes) -> bytes:
    spaces = {"ens": state.ens_space, "vsnl": state.vsnl_space}
    header = {
        "lambda_history": state.lambda_history,
        "rng_seed": state.rng_seed,
        "degraded": state.degraded,
        "config": state.config.to_dict(),
        "digest": digest,
        "cache": state.cache.state_dict(),
        "spaces": {
            name: {
                "texts": list(space.texts),
                "inverse": space.inverse.tolist() if space.merges else None,
            }
            for name, space in spaces.items()
        },
        "blob_sizes": list(blob_sizes),
    }
    return json.dumps(header, sort_keys=True).encode("utf-8")


def save_checkpoint(state: StreamState, path) -> None:
    """Single-file checkpoint (version 3): a JSON header, then one NSPC
    version 2 (float64) container per matrix: the cached rows and the
    sentence and lookalike spaces' distinct rows. Each space is written in
    the stored form `from_rows` builds, so a selection's rows (the word
    space's, while the others alias it) go in text order."""
    spaces = (state.ens_space, state.vsnl_space)
    matrices = (
        state.cache.matrix(), *(s.rows if s.merges else s.stored_rows() for s in spaces)
    )
    payloads = [encode_nspc(m, 2) for m in matrices]
    header_bytes = _header_bytes(
        state, _inputs_digest(state), [len(b) for b in payloads]
    )
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


def load_checkpoint(path, ids: LabelSpace, corpus: CorpusCandidates) -> StreamState:
    """The stream state a checkpoint holds, on the inputs it was saved with.

    `init_stream(ids, corpus, config, rng_seed)` builds the state from the
    stored config and seed; a file whose digest is not that of the config,
    `ids` and the word space built from `corpus` is refused. The cache, the
    sentence and lookalike spaces, the fusion weights and the degraded flag
    are then restored, and the cache's per-row columns (NL score, predicted
    class) rebuilt from its rows. A header that is not the one saving the
    loaded state writes is refused too, so each fact is read in the one form
    it is written in. Every refusal is a one-line FormatError naming the file.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint file")
    if len(raw) < 16:
        raise FormatError(f"{path}: truncated checkpoint header")
    version, header_len = struct.unpack("<IQ", raw[4:16])
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    header_bytes = raw[16 : 16 + header_len]
    try:
        header = json.loads(header_bytes.decode("utf-8"))
        expected = 16 + header_len + sum(header["blob_sizes"])
    except (ValueError, KeyError, TypeError, RecursionError) as exc:  # cut or corrupted
        raise FormatError(f"{path}: unreadable checkpoint header ({exc!r})") from exc
    if len(raw) != expected:
        raise FormatError(f"{path}: checkpoint size {len(raw)}, expected {expected}")
    if len(header["blob_sizes"]) != len(CHECKPOINT_MATRICES):
        raise FormatError(f"{path}: expected {len(CHECKPOINT_MATRICES)} matrices")
    matrices = {}
    cursor = 16 + header_len
    for name, size in zip(CHECKPOINT_MATRICES, header["blob_sizes"]):
        blob, source = raw[cursor : cursor + size], f"{path} [{name}]"
        matrices[name] = decode_nspc(blob, source)
        if blob[4:8] != struct.pack("<I", 2):  # float32 rows would not resume exactly
            raise FormatError(f"{source}: rows must be NSPC version 2 (float64)")
        cursor += size
    try:  # a header that parses may still miss a field or hold a bad one
        seed = header["rng_seed"]
        if type(seed) is not int or seed < 0:
            raise ValueError("rng_seed must be an int >= 0")
        # the config may not fit these inputs (too few corpus words, say)
        config = PipelineConfig.from_dict(header["config"])
        state = init_stream(ids, corpus, config, seed)
        digest = _inputs_digest(state)
        if header["digest"] != digest:
            raise ValueError("digest is not that of the config, labels and word space")
        try:  # a row off the unit sphere is a fault of the blob, not the header
            state.cache.load_state(header["cache"], matrices["cache"])
        except DataError as exc:
            raise FormatError(f"{path} [cache]: {exc}") from exc
        spaces = header["spaces"]
        state.ens_space, state.vsnl_space = (
            NegativeSpace.from_rows(
                _str_list(spaces[name]["texts"], f"{name} texts"),
                matrices[name],
                spaces[name]["inverse"],
            )
            for name in ("ens", "vsnl")
        )
        history = header["lambda_history"]
        # a weight is a number in [0, 1]; NaN and bool fail
        if not isinstance(history, list) or not all(
            type(lam) in (int, float) and 0.0 <= lam <= 1.0 for lam in history
        ):
            raise ValueError("lambda_history must be a list of weights in [0, 1]")
        if not isinstance(header["degraded"], bool):
            raise TypeError("degraded must be a bool")
        state.lambda_history, state.degraded = history, header["degraded"]
        # e.g. a generator state the generator stores in another form
        if _header_bytes(state, digest, header["blob_sizes"]) != header_bytes:
            raise ValueError("the header is not the one its state saves")
    except (
        KeyError, TypeError, ValueError, OverflowError,
        ConfigError, DataError, InputError,
    ) as exc:  # OverflowError: an rng_state integer outside its 128 bits
        raise FormatError(f"{path}: bad checkpoint header field ({exc!r})") from exc
    # the per-row columns are not stored; rebuild them from the loaded rows
    cache, score = state.cache, state.config.score
    n = len(cache)
    lse_id, predictions = id_part(cache.matrix(), ids, score)
    cache.predictions[:n] = predictions
    cache.nl_scores[:n] = negative_scores(cache.matrix(), lse_id, state.nl_space, score)
    return state
