"""Which program calls the traced run wraps, and the per-layer metrics.

Layers are the `negtext` modules. Each span times one public call of a
module, made from anywhere in the program; the calls are wrapped from the
benchmark's files, so nothing in the program changes.
"""
from __future__ import annotations

import os

from spans import Patches, Tracer, summarize

# name -> unit; the traced run reports every one of these on every
# workload (0 when the workload makes no such call)
PER_LAYER_UNITS = {
    "scoring.nl_cache_s": "s",
    "scoring.lambda_s": "s",
    "scoring.batch_s": "s",
    "scoring.sim_cells": "count",
    "mining.append_s": "s",
    "mining.matrix_s": "s",
    "mining.classify_s": "s",
    "mining.mine_s": "s",
    "mining.cache_rows": "count",
    "mining.mined_per_batch": "count",
    "spaces.ens_s": "s",
    "spaces.vsnl_s": "s",
    "spaces.describe_admit_ratio": "ratio",
    "spaces.ens_unique_frac": "ratio",
    "clients.describe_calls": "count",
    "clients.similar_calls": "count",
    "clients.embed_calls": "count",
    "clients.embed_texts": "count",
    "clients.embed_max_texts": "count",
    "clients.describe_unique_frac": "ratio",
    "clients.wait_s": "s",
    "clients.failures": "count",
    "pipeline.init_s": "s",
    "pipeline.batch_self_s": "s",
    "pipeline.checkpoint_s": "s",
    "pipeline.checkpoint_mb": "MB",
    "metrics.export_s": "s",
    "embeddings.load_s": "s",
    "embeddings.load_mb": "MB",
    "metrics.load_csv_s": "s",
    "metrics.fpr95_s": "s",
    "metrics.auroc_s": "s",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}


def _score_span(tracer: Tracer):
    def name(images, ids, neg, cfg):
        tracer.add("scoring.sim_cells", images.shape[0] * (ids.n_classes + neg.size))
        if images is tracer.context.get("batch_rows"):
            return "scoring.batch"
        return "scoring.nl_cache" if neg.kind.value == "nl" else "scoring.lambda"

    return name


def _batch_span(tracer: Tracer):
    def name(state, batch, client):
        tracer.context["batch_rows"] = batch.images.data
        return "pipeline.process_batch"

    return name


def _after_append(tracer, _result, cache, _batch):
    rows = tracer.counts.get("mining.cache_rows", 0)
    tracer.counts["mining.cache_rows"] = max(rows, len(cache))


def _after_mine(tracer, mined, *_args):
    tracer.add("mining.mined", len(mined.image_ids))


def _after_ens(tracer, space, *_args, **_kwargs):
    tracer.add("spaces.ens_texts", space.size)
    tracer.add("spaces.ens_unique", len(set(space.texts)))


def _after_file(counter: str, path_arg: int, accumulate: bool):
    def after(tracer, _result, *args, **_kwargs):
        size = os.path.getsize(args[path_arg])
        tracer.counts[counter] = size + (tracer.counts.get(counter, 0) if accumulate else 0)

    return after


def install(tracer: Tracer) -> Patches:
    """Wrap every timed call; import the program first."""
    import negtext.embeddings
    import negtext.metrics
    import negtext.mining
    import negtext.pipeline
    import negtext.scoring
    import negtext.spaces

    p = Patches()
    p.function(tracer, "negtext.scoring", "grouped_scores_batch", _score_span(tracer))
    cache_cls = negtext.mining.HistoryCache
    p.method(tracer, cache_cls, "append_batch", "mining.append", _after_append)
    p.method(tracer, cache_cls, "matrix", "mining.matrix")
    p.function(tracer, "negtext.mining", "classify_batch", "mining.classify")
    p.function(tracer, "negtext.mining", "mine_negative_images", "mining.mine", _after_mine)
    p.function(tracer, "negtext.mining", "mine_similar_classes", "mining.mine")
    p.function(tracer, "negtext.spaces", "generate_ens", "spaces.ens", _after_ens)
    p.function(tracer, "negtext.spaces", "generate_vsnl", "spaces.vsnl")
    p.function(tracer, "negtext.pipeline", "init_stream", "pipeline.init")
    p.function(tracer, "negtext.pipeline", "process_batch", _batch_span(tracer))
    p.function(
        tracer, "negtext.pipeline", "save_checkpoint", "pipeline.checkpoint",
        _after_file("pipeline.checkpoint_bytes", 1, accumulate=False),
    )
    p.function(tracer, "negtext.metrics", "export_results", "metrics.export")
    p.function(tracer, "negtext.metrics", "load_records_csv", "metrics.load_csv")
    p.function(tracer, "negtext.metrics", "fpr95", "metrics.fpr95")
    p.function(tracer, "negtext.metrics", "auroc", "metrics.auroc")
    p.function(
        tracer, "negtext.embeddings", "load_embeddings", "embeddings.load",
        _after_file("embeddings.load_bytes", 0, accumulate=True),
    )
    return p


def per_layer(tracer: Tracer, client: dict, overhead_s: float) -> dict:
    """Per-layer metrics of one traced unit of work. The caller adds
    `cli.import_s`, which it measures in fresh processes; `overhead_s` is
    the wrappers' estimated own cost."""
    table = summarize(tracer.spans())

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def own(name):
        return table.get(name, {}).get("self_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    counts = tracer.counts
    batches = table.get("pipeline.process_batch", {}).get("calls", 0)
    return {
        "scoring.nl_cache_s": total("scoring.nl_cache"),
        "scoring.lambda_s": total("scoring.lambda"),
        "scoring.batch_s": total("scoring.batch"),
        "scoring.sim_cells": counts.get("scoring.sim_cells", 0),
        "mining.append_s": total("mining.append"),
        "mining.matrix_s": total("mining.matrix"),
        "mining.classify_s": total("mining.classify"),
        "mining.mine_s": total("mining.mine"),
        "mining.cache_rows": counts.get("mining.cache_rows", 0),
        "mining.mined_per_batch": ratio(counts.get("mining.mined", 0), batches),
        "spaces.ens_s": own("spaces.ens"),
        "spaces.vsnl_s": own("spaces.vsnl"),
        "spaces.describe_admit_ratio": ratio(
            counts.get("spaces.ens_texts", 0), client["describe_calls"]
        ),
        "spaces.ens_unique_frac": ratio(
            counts.get("spaces.ens_unique", 0), counts.get("spaces.ens_texts", 0)
        ),
        "clients.describe_calls": client["describe_calls"],
        "clients.similar_calls": client["similar_calls"],
        "clients.embed_calls": client["embed_calls"],
        "clients.embed_texts": client["embed_texts"],
        "clients.embed_max_texts": client["embed_max_texts"],
        "clients.describe_unique_frac": ratio(
            client["describe_unique"], client["describe_calls"]
        ),
        "clients.wait_s": client["wait_s"],
        "clients.failures": client["failures"],
        "pipeline.init_s": total("pipeline.init"),
        "pipeline.batch_self_s": own("pipeline.process_batch"),
        "pipeline.checkpoint_s": total("pipeline.checkpoint"),
        "pipeline.checkpoint_mb": counts.get("pipeline.checkpoint_bytes", 0) / 1e6,
        "metrics.export_s": total("metrics.export"),
        "embeddings.load_s": total("embeddings.load"),
        "embeddings.load_mb": counts.get("embeddings.load_bytes", 0) / 1e6,
        "metrics.load_csv_s": total("metrics.load_csv"),
        "metrics.fpr95_s": total("metrics.fpr95"),
        "metrics.auroc_s": total("metrics.auroc"),
        "trace.overhead_s": overhead_s,
    }
