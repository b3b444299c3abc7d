"""Workload process: one fresh process per workload run, started by run.py.

    python perfbench/work.py <workload> --seed N --seconds S --trace 0|1 --dir D

Generates the inputs, then, while the time budget lasts, repeats the
unit of work (load the inputs, init_stream, the closed-loop stream,
export_results plus save_checkpoint, and an eval of the exported CSV),
with cold-import probes in fresh processes before and after every unit.
With --trace 1 it runs the unit untraced, then traced, and compares
their outputs. Writes D/result.json.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from clients import CountingClient

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 42
# the mixed world of the acceptance suite; its geometry sets how many
# describe calls a stream makes, so the seed permutes rows instead
PINNED_WORLD_SEED = 42
REGRESSION_SHAPE = (5, 400, 400)
# injected generation latency of gen-latency, per call and per text
GEN_LATENCY = {"describe_s": 0.003, "similar_s": 0.003, "embed_s": 0.010,
               "embed_text_s": 1e-5}
PAPER_BATCHES = 8
PAPER_BATCH_SIZE = 1000
PAPER_CACHE = 4000
# cold `import negtext` probes, one fresh process each: before the first
# unit and after every unit, at least PROBES_PER_GAP of them and for at
# least PROBE_SHARE of the unit's time, so they spread over the whole run
PROBES_PER_GAP = 2
PROBE_SHARE = 0.5
PROBE_TIMEOUT_S = 60


def reference(workload: str) -> dict:
    refs = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    return refs[workload]


@dataclass
class Inputs:
    load: object  # () -> (LabelSpace, CorpusCandidates, [TestBatch]); timed in a unit
    truth: dict
    n_batches: int
    config: object
    seed: int
    make_client: object  # () -> inner GenerationClient
    latency: dict = field(default_factory=dict)


def permute_rows(batches, seed: int):
    """Shuffle rows inside each batch; the default seed keeps the order."""
    if seed == DEFAULT_SEED:
        return batches
    from negtext import EmbeddingMatrix, TestBatch

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6E1A]))
    out = []
    for batch in batches:
        order = rng.permutation(batch.images.rows)
        out.append(
            TestBatch(
                images=EmbeddingMatrix(
                    ids=tuple(batch.images.ids[i] for i in order),
                    data=batch.images.data[order],
                ),
                ground_truth=tuple(batch.ground_truth[i] for i in order),
            )
        )
    return out


def paper_inputs(seed: int, files: Path) -> Inputs:
    """Writes the world as NSPC files; each unit loads them, as `negtext run` does."""
    from world import make_world

    world = make_world(seed, PAPER_BATCHES, PAPER_BATCH_SIZE)
    from negtext import (
        CorpusCandidates, EmbeddingMatrix, LabelSpace, MiningConfig,
        PipelineConfig, ScoreConfig, TestBatch, save_embeddings,
    )

    from clients import PaperFakeClient

    files.mkdir(parents=True)
    save_embeddings(
        EmbeddingMatrix.from_rows(
            [f"txt_{n}" for n in world.class_names], world.label_vectors
        ),
        files / "labels.nspc",
    )
    save_embeddings(
        EmbeddingMatrix.from_rows(
            [f"corpus_{i:05d}" for i in range(len(world.corpus_words))],
            world.corpus_vectors,
        ),
        files / "corpus.nspc",
    )
    for i, (ids, rows, _) in enumerate(world.batches):
        save_embeddings(EmbeddingMatrix.from_rows(ids, rows), files / f"batch_{i:03d}.nspc")
    truth = {i: t for ids, _, tags in world.batches for i, t in zip(ids, tags)}
    # the fake client needs only the concepts; drop the rows now on disk
    world.batches.clear()
    world.label_vectors = world.corpus_vectors = None

    def load():
        # looked up per call, so the traced run's wrapper is the one called
        from negtext.embeddings import load_embeddings

        label_space = LabelSpace(
            labels=tuple(world.class_names),
            features=load_embeddings(files / "labels.nspc"),
        )
        corpus = CorpusCandidates(
            words=tuple(world.corpus_words),
            features=load_embeddings(files / "corpus.nspc"),
        )
        batches = []
        for i in range(PAPER_BATCHES):
            images = load_embeddings(files / f"batch_{i:03d}.nspc")
            batches.append(
                TestBatch(images=images, ground_truth=tuple(truth[j] for j in images.ids))
            )
        return label_space, corpus, batches

    config = PipelineConfig(
        score=ScoreConfig(temperature=0.01, group_size=100),
        mining=MiningConfig(cache_capacity=PAPER_CACHE),
        num_negatives=10000,
    )
    return Inputs(load, truth, PAPER_BATCHES, config, seed, lambda: PaperFakeClient(world))


def gen_latency_inputs(seed: int) -> Inputs:
    from negtext.synthetic import (
        SyntheticWorld, scenario_pipeline_config, scenario_world_config,
    )

    world = SyntheticWorld(scenario_world_config("mixed", seed=PINNED_WORLD_SEED))
    batches = permute_rows(world.make_batches(*REGRESSION_SHAPE), seed)
    truth = {
        i: t for b in batches for i, t in zip(b.images.ids, b.ground_truth)
    }
    return Inputs(lambda: (world.label_space, world.corpus, batches), truth,
                  len(batches), scenario_pipeline_config(), seed,
                  world.oracle_client, dict(GEN_LATENCY))


def record_problems(batch, records) -> list[str]:
    """One record per image, in batch order, with s_ada finite in [0, 1]."""
    if [r.image_id for r in records] != list(batch.images.ids):
        return ["records do not match the batch's images one to one"]
    bad = [r.image_id for r in records if not (0.0 <= r.s_ada <= 1.0)]  # NaN fails too
    return [f"s_ada outside [0, 1] or not finite for {bad[:3]}"] if bad else []


def split_scores(records, truth):
    ids = [r.s_ada for r in records if truth[r.image_id] == "ID"]
    oods = [r.s_ada for r in records if truth[r.image_id] == "OOD"]
    return ids, oods


@dataclass
class Unit:
    records: list = field(default_factory=list)
    state: object = None
    client: dict = field(default_factory=dict)
    lambda_final: float = math.nan
    init_s: float = 0.0
    batch_s: list = field(default_factory=list)
    export_s: float = 0.0
    run_s: float = 0.0
    eval_s: float = 0.0
    report: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


def export_and_eval(unit: Unit, inp: Inputs, out_dir: Path) -> tuple[float, float]:
    """export_results + save_checkpoint, then eval of the exported CSV."""
    from negtext.metrics import compute_report, export_results, load_records_csv
    from negtext.pipeline import save_checkpoint

    unit.attempted += 2
    start = time.perf_counter()
    try:
        export_results(unit.records, inp.truth, out_dir)
        save_checkpoint(unit.state, out_dir / "checkpoint.nckp")
    except Exception as exc:  # a failed operation is counted, not fatal
        unit.fail(f"export raised {exc!r}")
        unit.fail("eval skipped: export failed")
        return math.nan, math.nan
    export_s = time.perf_counter() - start
    start = time.perf_counter()
    try:
        records, tags = load_records_csv(out_dir / "records.csv")
        report = compute_report(*split_scores(records, tags)).to_dict()
    except Exception as exc:
        unit.fail(f"eval raised {exc!r}")
        return export_s, math.nan
    eval_s = time.perf_counter() - start
    exported = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    if report != exported:
        unit.fail("eval of the exported CSV differs from the exported report")
    unit.report = exported
    return export_s, eval_s


def run_unit(inp: Inputs, out_dir: Path, tracer=None) -> Unit:
    from negtext.pipeline import init_stream, process_batch

    unit = Unit()
    out_dir.mkdir(parents=True, exist_ok=True)
    run_start = time.perf_counter()
    label_space, corpus, batches = inp.load()
    start = time.perf_counter()
    unit.state = init_stream(label_space, corpus, inp.config, inp.seed)
    unit.init_s = time.perf_counter() - start
    client = CountingClient(inp.make_client(), tracer=tracer, **inp.latency)
    for batch in batches:
        unit.attempted += 1
        degraded = unit.state.degraded
        start = time.perf_counter()
        try:
            records = process_batch(unit.state, batch, client)
        except Exception as exc:
            unit.fail(f"batch raised {exc!r}")
            continue
        unit.batch_s.append(time.perf_counter() - start)
        problems = record_problems(batch, records)
        if unit.state.degraded and not degraded:
            problems.append("generation degraded")
        if problems:
            unit.fail(f"batch {len(unit.batch_s)}: {'; '.join(problems)}")
        unit.records.extend(records)
    unit.export_s, unit.eval_s = export_and_eval(unit, inp, out_dir)
    unit.run_s = time.perf_counter() - run_start - unit.eval_s
    unit.client = client.counts()
    if unit.state.lambda_history:
        unit.lambda_final = unit.state.lambda_history[-1]
    return unit


def reference_problems(workload: str, unit: Unit, truth: dict) -> list[str]:
    """Default seed only: quality values and exact client call counts."""
    from negtext.metrics import compute_report

    ref = reference(workload)
    got = compute_report(*split_scores(unit.records, truth))
    values = {
        "auroc": got.auroc,
        "fpr95": got.fpr95,
        "lambda_final": unit.lambda_final,
    }
    problems = [
        f"{k} {v!r} differs from reference {ref[k]!r}"
        for k, v in values.items()
        if abs(v - ref[k]) > ref["tolerance"]
    ]
    problems += [
        f"{k} {unit.client[k]} differs from reference {ref[k]}"
        for k in ("describe_calls", "similar_calls", "embed_calls", "embed_texts")
        if unit.client[k] != ref[k]
    ]
    return problems


def build_inputs(args) -> Inputs:
    if args.workload == "paper-stream":
        return paper_inputs(args.seed, args.dir / "inputs")
    return gen_latency_inputs(args.seed)


def call_counts(client: dict) -> dict:
    return {k: v for k, v in client.items() if k != "wait_s"}


def import_probe(module: str) -> float:
    """Seconds a fresh interpreter takes to import `module`."""
    code = (
        "import time; t = time.perf_counter(); "
        f"import {module}; print(time.perf_counter() - t)"
    )
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S, check=False,
    )
    if res.returncode != 0:
        raise RuntimeError(f"import {module} failed: {res.stderr.strip()[-500:]}")
    return float(res.stdout)


def import_probes(module: str, count: int, seconds: float = 0.0) -> list[float]:
    """At least `count` probes, and more until `seconds` have passed."""
    start = time.perf_counter()
    times = []
    while len(times) < count or time.perf_counter() - start < seconds:
        times.append(import_probe(module))
    return times


def measure(args) -> dict:
    inp = build_inputs(args)
    import_probe("negtext")  # warm-up against a cold file cache, discarded
    units: list[Unit] = []
    start = time.perf_counter()
    import_s = import_probes("negtext", PROBES_PER_GAP)
    while True:
        unit_start = time.perf_counter()
        units.append(run_unit(inp, args.dir / f"unit{len(units)}"))
        units[-1].state = None
        import_s += import_probes(
            "negtext", PROBES_PER_GAP, PROBE_SHARE * (time.perf_counter() - unit_start)
        )
        now = time.perf_counter()
        # another unit only while it is projected to end within the budget
        if now - start + (now - unit_start) > args.seconds:
            break

    first = units[0]
    problems = [p for u in units for p in u.problems]
    failed = sum(u.failed for u in units)
    for i, unit in enumerate(units[1:], 1):
        same_counts = call_counts(unit.client) == call_counts(first.client)
        if unit.records != first.records or not same_counts:
            problems.append(f"unit {i} differs from unit 0")
            failed += 1
    if args.seed == DEFAULT_SEED and not first.failed:
        ref_problems = reference_problems(args.workload, first, inp.truth)
        problems += ref_problems
        failed += bool(ref_problems)

    batch_s = [s for u in units for s in u.batch_s]
    return {
        "correct": not problems,
        "attempted": sum(u.attempted for u in units),
        "failed": failed,
        "problems": problems,
        "metrics": {
            "setup_s": statistics.median(import_s)
            + statistics.median(u.init_s for u in units),
            "images_per_s": len(inp.truth) * len(units) / sum(batch_s),
            "batch_s_p50": statistics.median(batch_s),
            "run_s": statistics.median(u.run_s for u in units),
            # this process only: the probes are its children
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "gen_calls_per_batch": (
                first.client["describe_calls"] + first.client["similar_calls"]
                + first.client["embed_calls"]
            ) / inp.n_batches,
            "auroc": first.report.get("auroc", math.nan),
        },
        "info": {
            "export_s": statistics.median(u.export_s for u in units),
            "eval_s": statistics.median(u.eval_s for u in units),
            "fpr95": first.report.get("fpr95", math.nan),
            "lambda_final": first.lambda_final,
            "units": len(units),
            "batch_samples": len(batch_s),
            "import_samples": len(import_s),
            "client": first.client,
        },
    }


def traced(args) -> dict:
    from layers import install, per_layer
    from spans import Tracer, span_cost

    inp = build_inputs(args)
    # the untraced unit comes first, so it also warms the process up
    plain = run_unit(inp, args.dir / "untraced")
    plain.state = None
    tracer = Tracer()
    patches = install(tracer)
    try:
        unit = run_unit(inp, args.dir / "traced", tracer)
    finally:
        patches.restore()
    problems = plain.problems + unit.problems
    failed = plain.failed + unit.failed
    if unit.records != plain.records or not same_files(
        args.dir / "untraced", args.dir / "traced"
    ):
        problems.append("traced outputs differ from untraced outputs")
        failed += 1
    write_trace(tracer, args.trace_out)
    metrics = per_layer(tracer, unit.client, span_cost() * len(tracer.names))
    import_probe("negtext.cli")  # warm-up, discarded
    metrics["cli.import_s"] = statistics.median(import_probes("negtext.cli", 3))
    return {
        "correct": not problems,
        "attempted": plain.attempted + unit.attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
    }


OUTPUT_FILES = ("records.csv", "report.json", "histogram.csv", "checkpoint.nckp")


def same_files(a: Path, b: Path) -> bool:
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in OUTPUT_FILES)


def write_trace(tracer, out: Path | None) -> None:
    if out is None:
        return
    from spans import summarize

    out.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(out.with_suffix(".jsonl"))
    out.with_suffix(".summary.json").write_text(
        json.dumps(summarize(tracer.spans()), indent=1, sort_keys=True),
        encoding="utf-8",
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=("paper-stream", "gen-latency"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args()
    args.dir.mkdir(parents=True, exist_ok=True)
    result = traced(args) if args.trace else measure(args)
    (args.dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
