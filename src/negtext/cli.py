"""Command-line front end.

Commands: ingest, run, eval, sweep, synth-world, fixtures record|replay.
A run is described by a JSON manifest:

    {
      "config": "config.json" | {inline config dict},
      "client": {"mode": "synthetic", "concepts": "concepts.json"}
              | {"mode": "replay", "fixtures": "fixtures/"}
              | {"mode": "http", "endpoint": "...", "auth_token": "..."},
      "labels": "labels.json",
      "corpus": {"embeddings": "corpus.nspc", "words": "corpus_words.json"},
      "batches": ["batch_000.nspc", ...],
      "truth": "truth.csv",
      "output_dir": "out",
      "seed": 42
    }

Every mode reads labels, corpus, batches and truth from the files the
manifest names, and `seed` seeds the stream. `Manifest.load` checks each
block against its key table (MANIFEST_KEYS, CORPUS_KEYS, CLIENT_KEYS)
before any file is read: an unknown key, a value of the wrong JSON type or
a missing required key is refused, and a null value counts as absent. A
path (an input file or directory) must not be the empty string. The
synthetic client is the oracle of the world its concepts file names:
`synth-world` writes it as {"scenario", "seed", "images"}, the world's
scenario and seed and each image's concept. The HTTP endpoint and auth
token fall back to the NEGTEXT_ENDPOINT / NEGTEXT_AUTH_TOKEN environment
variables. Exit codes: 0 success, 2 success with degraded generation (stale
negative spaces), 1 any error.
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
from .errors import ConfigError, InputError, NegtextError, check_keys
from .metrics import (
    SCORE_FMT,
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


# the keys of each manifest block and the JSON type each takes; a misspelt
# key would be ignored silently (a `truht` file, say, writes no report), so
# any other key is refused
MANIFEST_KEYS = {
    "config": "path or object", "client": "required object",
    "labels": "required path", "corpus": "required object",
    "batches": "required list of paths", "truth": "path",
    "output_dir": "string", "seed": "integer",
}
CORPUS_KEYS = {"embeddings": "required path", "words": "required path"}
CLIENT_KEYS = {
    "synthetic": {"mode": "string", "concepts": "required path"},
    "replay": {"mode": "string", "fixtures": "required path"},
    "http": {"mode": "string", "endpoint": "string", "auth_token": "string"},
}


class Manifest:
    def __init__(self, spec: dict, base_dir: Path):
        self.spec = spec
        self.base_dir = base_dir

    @classmethod
    def load(cls, path) -> "Manifest":
        path = Path(path)
        if not path.exists():
            raise InputError(f"manifest not found: {path}")
        spec = check_keys(_read_json(path, "manifest"), MANIFEST_KEYS, path, "manifest")
        spec["corpus"] = check_keys(spec["corpus"], CORPUS_KEYS, path, "corpus")
        mode = spec["client"].get("mode")
        if not isinstance(mode, str) or mode not in CLIENT_KEYS:
            raise ConfigError(
                f"{path}: client 'mode' must be one of {', '.join(CLIENT_KEYS)}, "
                f"got {mode!r}"
            )
        # a synthetic block from before the concepts file names no world
        hint = ""
        if mode == "synthetic":
            hint = "; re-run synth-world to write the world again"
        spec["client"] = check_keys(
            spec["client"], CLIENT_KEYS[mode], path, f"{mode} client", hint
        )
        _checked_seed(spec.get("seed", 0), f"{path}: manifest 'seed'")
        return cls(spec, path.parent)

    def _path(self, rel: str) -> Path:
        return (self.base_dir / rel).resolve()

    def _resolve(self, rel) -> Path:
        """The input file or directory `rel` names, checked where it is read."""
        path = self._path(rel)
        if not path.exists():
            raise InputError(f"manifest path not found: {path}")
        return path

    @property
    def seed(self) -> int:
        return self.spec.get("seed", 0)

    def output_dir(self, override=None) -> Path:
        out = override or self.spec.get("output_dir")
        if not out:
            raise ConfigError("no output directory (manifest output_dir or --out)")
        return self._path(out) if override is None else Path(out)

    def pipeline_config(self, overrides=None) -> PipelineConfig:
        spec = self.spec.get("config")
        if spec is None:
            synthetic = self.spec["client"]["mode"] == "synthetic"
            spec = scenario_pipeline_config().to_dict() if synthetic else {}
        elif isinstance(spec, str):
            path = self._resolve(spec)
            spec = _read_json(path, "config")
            if not isinstance(spec, dict):
                raise ConfigError(
                    f"config file {path} must be a JSON object, got {spec!r}"
                )
        spec = dict(spec)
        for key, value in (overrides or {}).items():
            _apply_override(spec, key, value)
        return PipelineConfig.from_dict(spec)


def _checked_seed(seed, what: str) -> int:
    """`seed` if it is a JSON integer >= 0; `what` names it in the error."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"{what} must be an integer >= 0, got {seed!r}")
    return seed


def _read_json(path: Path, what: str):
    """The parsed JSON file; `what` names it in the error."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # also a file that is not UTF-8
        raise InputError(f"{path}: {what} is not valid JSON ({exc})") from exc


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
        except (json.JSONDecodeError, RecursionError):
            overrides[key] = raw
    return overrides


# ---------------------------------------------------------------------------
# input assembly


def _load_truth_csv(path) -> dict[str, str]:
    truth = {}
    for line, row in enumerate(read_csv_rows(path, ("image_id", "tag")), start=2):
        where, image_id = f"{path}, line {line}", row["image_id"]
        if image_id in truth:
            raise InputError(f"{where}: image {image_id!r} is tagged twice")
        truth[image_id] = checked_tag(where, row["tag"])
    return truth


def _save_truth_csv(truth: dict[str, str], path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([("image_id", "tag"), *truth.items()])


@dataclass(frozen=True)
class RunInputs:
    label_space: LabelSpace
    corpus: CorpusCandidates
    batches: list[TestBatch]
    truth: dict[str, str]  # image_id -> tag, possibly empty


def _is_http_url(endpoint) -> bool:
    if not isinstance(endpoint, str):
        return False
    try:
        parts = urlsplit(endpoint)
    except ValueError:  # e.g. an unclosed IPv6 bracket
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


def _oracle_client(manifest: Manifest, batches: list[TestBatch]) -> GenerationClient:
    """The oracle of the world the manifest's concepts file names, told each
    image's concept by that file, which must name every batch image."""
    path = manifest._resolve(manifest.spec["client"]["concepts"])
    spec = _read_json(path, "concepts")
    if not isinstance(spec, dict) or spec.keys() != {"scenario", "seed", "images"}:
        raise InputError(
            f"{path}: concepts must be an object of scenario, seed and images; "
            "re-run synth-world to write the world again"
        )
    concepts = spec["images"]
    if not isinstance(concepts, dict) or not all(
        isinstance(name, str) for name in concepts.values()
    ):
        raise InputError(f"{path}: concepts images must be a JSON object of str names")
    seed = _checked_seed(spec["seed"], f"{path}: concepts 'seed'")
    world = SyntheticWorld(scenario_world_config(spec["scenario"], seed=seed))
    unknown = set(concepts.values()) - world.concepts.keys()
    if unknown:
        raise InputError(
            f"{path}: scenario {spec['scenario']!r} has no concept {min(unknown)!r}"
        )
    missing = next(
        (i for b in batches for i in b.images.ids if i not in concepts), None
    )
    if missing is not None:
        raise InputError(f"{path}: no concept for image {missing!r}")
    return world.oracle_client(concepts)


def _build_client(manifest: Manifest, batches: list[TestBatch]) -> GenerationClient:
    """The manifest's client for a stream of `batches`."""
    client_spec = manifest.spec["client"]
    if client_spec["mode"] == "synthetic":
        return _oracle_client(manifest, batches)
    if client_spec["mode"] == "replay":
        return ReplayClient(manifest._resolve(client_spec["fixtures"]))
    endpoint = client_spec.get("endpoint") or os.environ.get(ENV_ENDPOINT)
    if not endpoint:
        raise ConfigError(f"http client needs an endpoint ({ENV_ENDPOINT} or manifest)")
    if not _is_http_url(endpoint):
        raise ConfigError(
            f"http client endpoint must be an http(s) URL with a host, "
            f"got {endpoint!r}"
        )
    token = client_spec.get("auth_token") or os.environ.get(ENV_AUTH_TOKEN)
    return HttpGenerationClient(endpoint, auth_token=token)


def _assemble_inputs(manifest: Manifest) -> RunInputs:
    spec = manifest.spec
    label_space = LabelSpace.from_manifest(manifest._resolve(spec["labels"]))
    words_path = manifest._resolve(spec["corpus"]["words"])
    words = _read_json(words_path, "corpus words")
    if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
        raise InputError(f"{words_path}: corpus words must be a JSON list of strings")
    corpus = CorpusCandidates(
        words=tuple(words),
        features=load_embeddings(manifest._resolve(spec["corpus"]["embeddings"])),
    )
    truth_path = spec.get("truth")
    if truth_path:
        truth_path = manifest._resolve(truth_path)
    truth = _load_truth_csv(truth_path) if truth_path else {}
    batches = []
    for entry in spec["batches"]:
        path = manifest._resolve(entry)
        images = load_embeddings(path)
        if images.rows == 0:
            raise InputError(f"{path}: batch holds no images")
        try:
            tags = tuple(truth[i] for i in images.ids) if truth else None
        except KeyError as exc:
            raise InputError(f"{truth_path}: no tag for image {exc.args[0]!r}") from exc
        batches.append(TestBatch(images=images, ground_truth=tags))
    return RunInputs(label_space, corpus, batches, truth)


# ---------------------------------------------------------------------------
# commands


def _execute_run(
    manifest: Manifest, args, client_for: Callable[[list[TestBatch]], GenerationClient]
) -> int:
    """One stream over the manifest's inputs, with the client that
    `client_for` builds for its batches once they are loaded."""
    config = manifest.pipeline_config(_parse_set_flags(getattr(args, "set", None)))
    seed = manifest.seed
    inputs = _assemble_inputs(manifest)
    client = client_for(inputs.batches)
    out_dir = manifest.output_dir(getattr(args, "out", None))
    records, state = run_stream(
        inputs.batches,
        inputs.label_space,
        inputs.corpus,
        client,
        config,
        seed=seed,
    )
    # export_results makes the output directory, so a stream that fails
    # leaves none behind
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
    return _execute_run(manifest, args, lambda b: _build_client(manifest, b))


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
    seed = manifest.seed
    inputs = _assemble_inputs(manifest)
    if not inputs.truth:
        raise InputError("sweep requires ground truth")
    # consecutive values with equal configs share one stream, and each
    # stream gets a fresh client
    streams = [
        (list(group), _build_client(manifest, inputs.batches))
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
                group[0][1], seed=seed,
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
                    ["%g" % value, SCORE_FMT % report.auroc, SCORE_FMT % report.fpr95,
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
        try:  # mapped, so a header claiming more rows than the file holds fails
            data = np.array(np.load(src, mmap_mode="r"), dtype=np.float64)
        except (ValueError, EOFError) as exc:  # pickled, non-numeric, cut or empty
            raise InputError(f"{src}: not a numeric .npy array ({exc})") from exc
        try:
            lines = Path(args.ids).read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise InputError(f"{args.ids}: not UTF-8 text ({exc})") from exc
        ids = [line.strip() for line in lines if line.strip()]
    elif src.suffix == ".csv":
        ids, rows = [], []
        try:
            with src.open(newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                for row in reader:
                    if not row:
                        continue
                    try:
                        values = [float(x) for x in row[1:]]
                    except ValueError as exc:  # e.g. a header row
                        where = f"{src}, line {reader.line_num}"
                        raise InputError(f"{where}: {exc}") from exc
                    if rows and len(values) != len(rows[0]):
                        raise InputError(
                            f"{src}, line {reader.line_num}: {len(values)} values, "
                            f"expected {len(rows[0])}"
                        )
                    ids.append(row[0])
                    rows.append(values)
        except UnicodeDecodeError as exc:
            raise InputError(f"{src}: not UTF-8 text ({exc})") from exc
        except csv.Error as exc:  # e.g. a field over the csv module's limit
            raise InputError(f"{src}, line {reader.line_num}: {exc}") from exc
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

    # the world's rows are float64 and are written as such (NSPC version 2),
    # so a run on these files scores exactly the world that drew them
    world.label_space.save_manifest(out_dir / "labels.json", "labels.nspc", 2)
    save_embeddings(world.corpus.features, out_dir / "corpus.nspc", 2)
    (out_dir / "corpus_words.json").write_text(
        json.dumps(list(world.corpus.words), indent=2), encoding="utf-8"
    )
    batch_names = []
    for i, batch in enumerate(batches):
        name = f"batch_{i:03d}.nspc"
        save_embeddings(batch.images, out_dir / name, 2)
        batch_names.append(name)
    _save_truth_csv(batches_truth(batches), out_dir / "truth.csv")
    # the oracle's world is the one this file names, whatever seeds the stream
    concepts = {
        "scenario": args.scenario, "seed": args.seed, "images": world.image_concepts
    }
    (out_dir / "concepts.json").write_text(
        json.dumps(concepts, indent=2), encoding="utf-8"
    )
    (out_dir / "config.json").write_text(
        json.dumps(scenario_pipeline_config().to_dict(), indent=2, sort_keys=True),
        encoding="utf-8",
    )
    manifest = {
        "config": "config.json",
        "client": {"mode": "synthetic", "concepts": "concepts.json"},
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
            lambda b: RecordingClient(_build_client(manifest, b), fixtures_dir),
        )
    # replay builds no client from the manifest
    if not fixtures_dir.exists():
        raise InputError(f"fixtures directory not found: {fixtures_dir}")
    return _execute_run(manifest, args, lambda _: ReplayClient(fixtures_dir))


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


# an empty path names the working directory, or reads as no file
PATH_FLAGS = ("out", "fixtures", "truth", "ids")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in PATH_FLAGS:
            if getattr(args, flag, None) == "":
                raise InputError(f"--{flag} must name a path, got ''")
        return args.func(args)
    except NegtextError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
