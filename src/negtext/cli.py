"""Command-line front end.

Commands: ingest, run, eval, sweep, synth-world, fixtures record|replay.
A run is described by a JSON manifest:

    {
      "config": "config.json" | {inline config dict},
      "client": {"mode": "synthetic", "scenario": "far",
                 "n_batches": 3, "id_per_batch": 150, "ood_per_batch": 150}
              | {"mode": "replay", "fixtures": "fixtures/"}
              | {"mode": "http", "endpoint": "...", "auth_token": "..."},
      "labels": "labels.json",
      "corpus": {"embeddings": "corpus.nspc", "words": "corpus_words.json"},
      "batches": ["batch_000.nspc", ...],
      "truth": "truth.csv",
      "output_dir": "out",
      "seed": 42
    }

Synthetic mode rebuilds the whole world from scenario + seed, so the
labels/corpus/batches entries are optional there. The HTTP endpoint and
auth token fall back to the NEGTEXT_ENDPOINT / NEGTEXT_AUTH_TOKEN
environment variables. Exit codes: 0 success, 2 success with degraded
generation (stale negative spaces), 1 any error.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace
from itertools import groupby
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np

from .clients import (
    GenerationClient,
    HttpGenerationClient,
    RecordingClient,
    ReplayClient,
)
from .embeddings import (
    EmbeddingMatrix,
    LabelSpace,
    TestBatch,
    batches_truth,
    load_embeddings,
    save_embeddings,
)
from .errors import ConfigError, InputError, NegtextError
from .metrics import (
    checked_tag,
    compute_report,
    export_results,
    load_records_csv,
    read_csv_rows,
    split_scores,
)
from .pipeline import PipelineConfig, run_stream, save_checkpoint
from .scoring import fused_score
from .spaces import CorpusCandidates
from .synthetic import (
    SCENARIOS,
    SyntheticWorld,
    scenario_pipeline_config,
    scenario_world_config,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DEGRADED = 2

def _whole_number(value: float) -> int:
    if not value.is_integer():
        raise InputError(f"sentence length must be a whole number, got {value:g}")
    return int(value)


def _fusion_weight(value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise InputError(f"lambda must lie in [0, 1], got {value:g}")
    return value


# sweep axis -> (the config overrides that set it to a value, and the fixed
# fusion weight that re-fuses the stream's records or None)
SWEEP_AXES = {
    "delta": lambda v: ({"mining.class_ratio": v}, None),
    "lambda": lambda v: ({}, _fusion_weight(v)),
    "eta": lambda v: ({"mining.selection_ratio": v}, None),
    "length": lambda v: ({"sentence_len_max": _whole_number(v)}, None),
}

ENV_ENDPOINT = "NEGTEXT_ENDPOINT"
ENV_AUTH_TOKEN = "NEGTEXT_AUTH_TOKEN"


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1; code 2 is reserved for degraded runs."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


# ---------------------------------------------------------------------------
# manifest handling


class Manifest:
    def __init__(self, spec: dict, base_dir: Path):
        self.spec = spec
        self.base_dir = base_dir

    @classmethod
    def load(cls, path) -> "Manifest":
        path = Path(path)
        if not path.exists():
            raise InputError(f"manifest not found: {path}")
        spec = _read_json(path, "manifest")
        if not isinstance(spec, dict):
            raise InputError(f"{path}: manifest must be a JSON object")
        manifest = cls(spec, path.parent)
        manifest.validate_paths()
        return manifest

    def _resolve(self, rel) -> Path:
        if not isinstance(rel, str):
            raise InputError(f"manifest paths must be strings, got {rel!r}")
        return (self.base_dir / rel).resolve()

    def referenced_paths(self) -> list[Path]:
        paths = []
        config = self.spec.get("config")
        if isinstance(config, str):
            paths.append(self._resolve(config))
        for key in ("labels", "truth"):
            if self.spec.get(key):
                paths.append(self._resolve(self.spec[key]))
        corpus = self.spec.get("corpus") or {}
        batches = self.spec.get("batches") or []
        if not isinstance(corpus, dict) or not isinstance(batches, list):
            raise InputError("manifest 'corpus' must be an object, 'batches' a list")
        for key in ("embeddings", "words"):
            if corpus.get(key):
                paths.append(self._resolve(corpus[key]))
        for entry in batches:
            paths.append(self._resolve(entry))
        client = self.client_spec
        if client["mode"] == "replay" and client.get("fixtures"):
            paths.append(self._resolve(client["fixtures"]))
        return paths

    def validate_paths(self) -> None:
        missing = [str(p) for p in self.referenced_paths() if not p.exists()]
        if missing:
            raise InputError(f"manifest references missing paths: {missing}")

    @property
    def client_spec(self) -> dict:
        client = self.spec.get("client")
        if not isinstance(client, dict) or "mode" not in client:
            raise ConfigError("manifest needs a client block with a mode")
        return client

    @property
    def seed(self) -> int:
        seed = _int_entry(self.spec, "seed", 0)
        if seed < 0:
            raise ConfigError(f"manifest 'seed' must be >= 0, got {seed}")
        return seed

    def output_dir(self, override=None) -> Path:
        out = override or self.spec.get("output_dir")
        if not out:
            raise ConfigError("no output directory (manifest output_dir or --out)")
        return self._resolve(out) if override is None else Path(out)

    def pipeline_config(self, overrides=None) -> PipelineConfig:
        config = self.spec.get("config")
        source = "manifest 'config'"
        if config is None:
            synthetic = self.client_spec["mode"] == "synthetic"
            spec = scenario_pipeline_config().to_dict() if synthetic else {}
        elif isinstance(config, str):
            source = f"config file {self._resolve(config)}"
            spec = _read_json(self._resolve(config), "config")
        else:
            spec = config
        if not isinstance(spec, dict):
            raise ConfigError(f"{source} must be a JSON object, got {spec!r}")
        spec = dict(spec)
        for key, value in (overrides or {}).items():
            _apply_override(spec, key, value)
        return PipelineConfig.from_dict(spec)


def _read_json(path: Path, what: str):
    """The parsed JSON file; `what` names it in the error."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # also a file that is not UTF-8
        raise InputError(f"{path}: {what} is not valid JSON ({exc})") from exc


def _int_entry(spec: dict, key: str, default: int) -> int:
    value = spec.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"manifest {key!r} must be an integer, got {value!r}")
    return value


def _apply_override(spec: dict, dotted_key: str, value) -> None:
    parts = dotted_key.split(".")
    node = spec
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override through non-object key {part!r}")
    node[parts[-1]] = value


def _parse_set_flags(pairs) -> dict:
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


# ---------------------------------------------------------------------------
# input assembly


def _load_truth_csv(path) -> dict[str, str]:
    rows = enumerate(read_csv_rows(path, ("image_id", "tag")), start=2)
    return {
        row["image_id"]: checked_tag(f"{path}, line {line}", row["tag"])
        for line, row in rows
    }


def _save_truth_csv(truth: dict[str, str], path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([("image_id", "tag"), *truth.items()])


@dataclass(frozen=True)
class RunInputs:
    label_space: LabelSpace
    corpus: CorpusCandidates
    batches: list[TestBatch]
    truth: dict[str, str]  # image_id -> tag, possibly empty
    world: SyntheticWorld | None = None  # the synthetic world, in synthetic mode


def _is_http_url(endpoint) -> bool:
    if not isinstance(endpoint, str):
        return False
    try:
        parts = urlsplit(endpoint)
    except ValueError:  # e.g. an unclosed IPv6 bracket
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


def _build_client(manifest: Manifest, world=None) -> GenerationClient:
    client_spec = manifest.client_spec
    mode = client_spec["mode"]
    if mode == "synthetic":
        return world.oracle_client()
    if mode == "replay":
        fixtures = client_spec.get("fixtures")
        if not fixtures:
            raise ConfigError("replay client needs a fixtures directory")
        return ReplayClient(manifest._resolve(fixtures))
    if mode == "http":
        endpoint = client_spec.get("endpoint") or os.environ.get(ENV_ENDPOINT)
        if not endpoint:
            raise ConfigError(
                f"http client needs an endpoint ({ENV_ENDPOINT} or manifest)"
            )
        if not _is_http_url(endpoint):
            raise ConfigError(
                f"http client endpoint must be an http(s) URL with a host, "
                f"got {endpoint!r}"
            )
        token = client_spec.get("auth_token") or os.environ.get(ENV_AUTH_TOKEN)
        return HttpGenerationClient(endpoint, auth_token=token)
    raise ConfigError(f"unknown client mode {mode!r}")


def _assemble_inputs(manifest: Manifest) -> RunInputs:
    client_spec = manifest.client_spec
    if client_spec["mode"] == "synthetic":
        scenario = client_spec.get("scenario")
        if not scenario:
            raise ConfigError("synthetic client needs a scenario name")
        world = SyntheticWorld(scenario_world_config(scenario, seed=manifest.seed))
        batches = world.make_batches(
            _int_entry(client_spec, "n_batches", 3),
            _int_entry(client_spec, "id_per_batch", 150),
            _int_entry(client_spec, "ood_per_batch", 150),
        )
        return RunInputs(
            world.label_space, world.corpus, batches, batches_truth(batches), world
        )

    for key in ("labels", "corpus", "batches"):
        if not manifest.spec.get(key):
            raise ConfigError(f"manifest needs {key!r} outside synthetic mode")
    label_space = LabelSpace.from_manifest(manifest._resolve(manifest.spec["labels"]))
    corpus_spec = manifest.spec["corpus"]
    words_path = manifest._resolve(corpus_spec.get("words"))
    words = _read_json(words_path, "corpus words")
    if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
        raise InputError(f"{words_path}: corpus words must be a JSON list of strings")
    corpus = CorpusCandidates(
        words=tuple(words),
        features=load_embeddings(manifest._resolve(corpus_spec.get("embeddings"))),
    )
    truth_path = manifest.spec.get("truth")
    if truth_path:
        truth_path = manifest._resolve(truth_path)
    truth = _load_truth_csv(truth_path) if truth_path else {}
    batches = []
    for entry in manifest.spec["batches"]:
        images = load_embeddings(manifest._resolve(entry))
        try:
            tags = tuple(truth[i] for i in images.ids) if truth else None
        except KeyError as exc:
            raise InputError(f"{truth_path}: no tag for image {exc.args[0]!r}") from exc
        batches.append(TestBatch(images=images, ground_truth=tags))
    return RunInputs(label_space, corpus, batches, truth)


# ---------------------------------------------------------------------------
# commands


def _execute_run(
    manifest: Manifest, args, client_for: Callable[[RunInputs], GenerationClient]
) -> int:
    """One stream over the manifest's inputs, with the client that
    `client_for` builds once they are loaded."""
    config = manifest.pipeline_config(_parse_set_flags(getattr(args, "set", None)))
    inputs = _assemble_inputs(manifest)
    client = client_for(inputs)
    out_dir = manifest.output_dir(getattr(args, "out", None))
    out_dir.mkdir(parents=True, exist_ok=True)

    records, state = run_stream(
        inputs.batches,
        inputs.label_space,
        inputs.corpus,
        client,
        config,
        seed=manifest.seed,
    )
    export_results(records, inputs.truth, out_dir)
    save_checkpoint(state, out_dir / "checkpoint.nckp")
    if state.degraded:
        print(
            "warning: generation degraded; stale negative spaces were used",
            file=sys.stderr,
        )
        return EXIT_DEGRADED
    return EXIT_OK


def cmd_run(args) -> int:
    manifest = Manifest.load(args.manifest)
    return _execute_run(
        manifest, args, lambda inputs: _build_client(manifest, inputs.world)
    )


def cmd_eval(args) -> int:
    records, tags = load_records_csv(args.records)
    truth = _load_truth_csv(args.truth) if args.truth else tags
    report = compute_report(*split_scores(records, truth))
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise InputError(f"--values must be numbers ({exc})") from exc
    if len(values) < 2:
        raise InputError("sweep needs at least two values")
    manifest = Manifest.load(args.manifest)
    base_overrides = _parse_set_flags(args.set)
    # every value is checked, the inputs are loaded and the clients are built
    # before the CSV is opened
    points = []
    for value in values:
        overrides, lam = SWEEP_AXES[args.axis](value)
        config = manifest.pipeline_config({**base_overrides, **overrides})
        points.append((value, config, lam))
    inputs = _assemble_inputs(manifest)
    if not inputs.truth:
        raise InputError("sweep requires ground truth")
    # consecutive values with equal configs share one stream, and each
    # stream gets a fresh client
    streams = [
        (list(group), _build_client(manifest, inputs.world))
        for _, group in groupby(points, key=lambda point: point[1].digest())
    ]
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    degraded = False
    with out_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([args.axis, "auroc", "fpr95", "n_id", "n_ood"])
        fh.flush()
        for group, client in streams:
            records = None  # hold one stream's records at a time
            records, state = run_stream(
                inputs.batches, inputs.label_space, inputs.corpus, client,
                group[0][1], seed=manifest.seed,
            )
            degraded = degraded or state.degraded
            for value, _, lam in group:
                scored = records if lam is None else [
                    replace(r, s_ada=fused_score(r.s_ens, r.s_vsnl, lam))
                    for r in records
                ]
                # quantize like the records exporter so sweep rows agree with
                # the report a plain run of the same config would produce
                report = compute_report(
                    *split_scores(scored, inputs.truth, quantized=True)
                )
                writer.writerow(
                    ["%g" % value, "%.9g" % report.auroc, "%.9g" % report.fpr95,
                     report.n_id, report.n_ood]
                )
                fh.flush()
    return EXIT_DEGRADED if degraded else EXIT_OK


def cmd_ingest(args) -> int:
    src = Path(args.input)
    if not src.exists():
        raise InputError(f"input not found: {src}")
    if src.suffix == ".npy":
        if not args.ids:
            raise InputError("--ids is required for .npy input")
        try:
            data = np.asarray(np.load(src), dtype=np.float64)
        except (ValueError, EOFError) as exc:  # pickled, non-numeric, cut or empty
            raise InputError(f"{src}: not a numeric .npy array ({exc})") from exc
        ids = [
            line.strip()
            for line in Path(args.ids).read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
    elif src.suffix == ".csv":
        ids, rows = [], []
        with src.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row:
                    continue
                try:
                    values = [float(x) for x in row[1:]]
                except ValueError as exc:  # e.g. a header row
                    raise InputError(f"{src}, line {reader.line_num}: {exc}") from exc
                if rows and len(values) != len(rows[0]):
                    raise InputError(
                        f"{src}, line {reader.line_num}: {len(values)} values, "
                        f"expected {len(rows[0])}"
                    )
                ids.append(row[0])
                rows.append(values)
        data = np.asarray(rows, dtype=np.float64)
    else:
        raise InputError(f"unsupported input format {src.suffix!r} (.npy or .csv)")
    matrix = EmbeddingMatrix.from_rows(ids, data)
    save_embeddings(matrix, args.out)
    print(f"wrote {matrix.rows} x {matrix.dim} embeddings to {args.out}")
    return EXIT_OK


def cmd_synth_world(args) -> int:
    world = SyntheticWorld(scenario_world_config(args.scenario, seed=args.seed))
    batches = world.make_batches(args.batches, args.id_per_batch, args.ood_per_batch)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    world.label_space.save_manifest(out_dir / "labels.json", "labels.nspc")
    save_embeddings(world.corpus.features, out_dir / "corpus.nspc")
    (out_dir / "corpus_words.json").write_text(
        json.dumps(list(world.corpus.words), indent=2), encoding="utf-8"
    )
    batch_names = []
    for i, batch in enumerate(batches):
        name = f"batch_{i:03d}.nspc"
        save_embeddings(batch.images, out_dir / name)
        batch_names.append(name)
    _save_truth_csv(batches_truth(batches), out_dir / "truth.csv")
    (out_dir / "config.json").write_text(
        json.dumps(scenario_pipeline_config().to_dict(), indent=2, sort_keys=True),
        encoding="utf-8",
    )
    manifest = {
        "config": "config.json",
        "client": {
            "mode": "synthetic",
            "scenario": args.scenario,
            "n_batches": args.batches,
            "id_per_batch": args.id_per_batch,
            "ood_per_batch": args.ood_per_batch,
        },
        "labels": "labels.json",
        "corpus": {"embeddings": "corpus.nspc", "words": "corpus_words.json"},
        "batches": batch_names,
        "truth": "truth.csv",
        "output_dir": "out",
        "seed": args.seed,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2), encoding="utf-8"
    )
    print(f"wrote {args.scenario} world fixtures to {out_dir}")
    return EXIT_OK


def cmd_fixtures(args) -> int:
    manifest = Manifest.load(args.manifest)
    fixtures_dir = Path(args.fixtures)
    if args.action == "record":
        return _execute_run(
            manifest,
            args,
            lambda inputs: RecordingClient(
                _build_client(manifest, inputs.world), fixtures_dir
            ),
        )
    # replay builds no client from the manifest
    if not fixtures_dir.exists():
        raise InputError(f"fixtures directory not found: {fixtures_dir}")
    return _execute_run(manifest, args, lambda inputs: ReplayClient(fixtures_dir))


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="negtext", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert raw embeddings to the binary format")
    p.add_argument("input", help="source .npy (with --ids) or .csv (id,v0,v1,...)")
    p.add_argument("--ids", help="text file with one row id per line (.npy input)")
    p.add_argument("-o", "--out", required=True, help="output .nspc path")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("run", help="execute a stream described by a manifest")
    p.add_argument("manifest")
    p.add_argument("--out", help="override the manifest output directory")
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config field, e.g. --set score.temperature=0.1",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="recompute metrics from an exported records CSV")
    p.add_argument("records")
    p.add_argument("--truth", help="CSV with image_id,tag (default: tags in records)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run the pipeline across one config axis")
    p.add_argument("axis", choices=SWEEP_AXES)
    p.add_argument("manifest")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("-o", "--out", required=True, help="output CSV path")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth-world", help="dump a synthetic world as CLI fixtures")
    p.add_argument("scenario", choices=SCENARIOS)
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--batches", type=int, default=3)
    p.add_argument("--id-per-batch", type=int, default=150)
    p.add_argument("--ood-per-batch", type=int, default=150)
    p.set_defaults(func=cmd_synth_world)

    p = sub.add_parser("fixtures", help="record or replay generation fixtures")
    p.add_argument("action", choices=("record", "replay"))
    p.add_argument("manifest")
    p.add_argument("--fixtures", required=True, help="fixtures directory")
    p.add_argument("--out", help="override the manifest output directory")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NegtextError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
