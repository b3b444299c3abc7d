"""Command-line behavior: exit codes, determinism, fixtures, sweeps."""
import csv
import io
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from negtext.cli import Manifest, _assemble_inputs, _build_client, main
from negtext.embeddings import EmbeddingMatrix, load_embeddings, save_embeddings
from negtext.metrics import compute_report, load_records_csv, split_scores
from negtext.pipeline import load_checkpoint


def run_cli(*argv):
    return main([str(a) for a in argv])


def write_manifest(world_dir, name, **entries):
    """A copy of the world's manifest with `entries` replaced; its path."""
    manifest = json.loads((world_dir / "manifest.json").read_text())
    path = world_dir / f"manifest_{name}.json"
    path.write_text(json.dumps({**manifest, **entries}))
    return path


def read_records(path):
    with path.open(newline="") as fh:
        return {row["image_id"]: row for row in csv.DictReader(fh)}


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("world")
    code = run_cli(
        "synth-world", "far", "-o", out,
        "--seed", 42, "--batches", 2, "--id-per-batch", 150, "--ood-per-batch", 150,
    )
    assert code == 0
    return out


class TestSynthWorld:
    def test_fixture_files_exist(self, world_dir):
        for name in (
            "manifest.json", "config.json", "labels.json", "labels.nspc",
            "corpus.nspc", "corpus_words.json", "truth.csv", "concepts.json",
            "batch_000.nspc", "batch_001.nspc",
        ):
            assert (world_dir / name).exists(), name

    def test_rows_are_written_as_float64(self, world_dir):
        # NSPC version 2, so a run scores exactly the rows the world drew
        for name in ("labels.nspc", "corpus.nspc", "batch_000.nspc"):
            assert (world_dir / name).read_bytes()[4:8] == b"\x02\x00\x00\x00", name

    def test_concepts_name_every_image(self, world_dir):
        spec = json.loads((world_dir / "concepts.json").read_text())
        assert (spec["scenario"], spec["seed"]) == ("far", 42)
        concepts = spec["images"]
        truth = {
            row["image_id"]: row["tag"]
            for row in csv.DictReader((world_dir / "truth.csv").open())
        }
        assert concepts.keys() == truth.keys()
        assert all(
            name.startswith("class_") == (truth[image] == "ID")
            for image, name in concepts.items()
        )

    def test_batches_match_truth(self, world_dir):
        truth = {
            row["image_id"]: row["tag"]
            for row in csv.DictReader((world_dir / "truth.csv").open())
        }
        images = load_embeddings(world_dir / "batch_000.nspc")
        assert all(i in truth for i in images.ids)
        assert set(truth.values()) == {"ID", "OOD"}

    @pytest.mark.parametrize("flags", [
        ("--seed", -1),
        ("--id-per-batch", -3),
        ("--ood-per-batch", -1),
        ("--batches", -2),
        ("--id-per-batch", 0, "--ood-per-batch", 0),
        ("--batches", 0),
    ])
    def test_bad_seed_or_count_fails_before_writing(self, tmp_path, capsys, flags):
        out = tmp_path / "world"
        assert run_cli("synth-world", "far", "-o", out, *flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()


class TestRun:
    def test_happy_path_writes_report(self, world_dir, tmp_path):
        out = tmp_path / "run"
        assert run_cli("run", world_dir / "manifest.json", "--out", out) == 0
        assert (out / "records.csv").exists()
        assert (out / "report.json").exists()
        assert (out / "checkpoint.nckp").exists()
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["auroc"] <= 1.0

    def test_synthetic_run_scores_the_batch_files(self, world_dir, tmp_path):
        # each image of the first batch takes the row of the image before it
        world = tmp_path / "world"
        shutil.copytree(world_dir, world)
        images = load_embeddings(world / "batch_000.nspc")
        rolled = EmbeddingMatrix(images.ids, np.roll(images.data, 1, axis=0))
        save_embeddings(rolled, world / "batch_000.nspc", version=2)
        assert run_cli("run", world_dir / "manifest.json", "--out", tmp_path / "a") == 0
        assert run_cli("run", world / "manifest.json", "--out", tmp_path / "b") == 0
        before = read_records(tmp_path / "a" / "records.csv")
        after = read_records(tmp_path / "b" / "records.csv")
        assert before.keys() == after.keys() and before != after
        # the first batch is scored against the word space the stream starts
        # with, so its word-space score moves with the row
        for image, previous in zip(images.ids, np.roll(images.ids, 1)):
            assert float(after[image]["s_nl"]) == pytest.approx(
                float(before[previous]["s_nl"]), abs=2e-9
            )
            assert (
                after[image]["predicted_class"] == before[previous]["predicted_class"]
            )

    @pytest.mark.parametrize("key", ["labels", "corpus", "batches"])
    def test_synthetic_manifest_without_an_input_fails_with_one_line(
        self, world_dir, tmp_path, capsys, key
    ):
        path = write_manifest(world_dir, f"null_{key}", **{key: None})
        out = tmp_path / "o"
        assert run_cli("run", path, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {path}: manifest needs {key!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key",
        [
            "config", "labels", "truth", "corpus.embeddings", "corpus.words",
            "batches", "concepts", "fixtures", "--out", "--fixtures", "--truth",
            "--ids",
        ],
    )
    def test_empty_path_fails_with_one_line(
        self, world_dir, tmp_path, capsys, monkeypatch, key
    ):
        # an empty path reads as no file: `"truth": ""` would write no report,
        # `--truth ""` score by the records' own tags, and `--out ""` or
        # `--fixtures ""` write to the working directory
        monkeypatch.chdir(tmp_path)
        if key.startswith("--"):
            path = world_dir / "manifest.json"
            argvs = {
                "--out": [
                    ("run", path, "--out", ""),
                    ("fixtures", "record", path, "--fixtures", "fx", "--out", ""),
                    ("sweep", "lambda", path, "--values", "0,1", "-o", ""),
                    ("synth-world", "far", "-o", ""),
                    ("ingest", "v.csv", "-o", ""),
                ],
                "--fixtures": [
                    ("fixtures", action, path, "--fixtures", "", "--out", "o")
                    for action in ("record", "replay")
                ],
                "--truth": [("eval", "records.csv", "--truth", "")],
                "--ids": [("ingest", "v.npy", "--ids", "", "-o", "v.nspc")],
            }[key]
            message = f"error: {key} must name a path, got ''\n"
            for argv in argvs:
                assert run_cli(*argv) == 1, argv
                assert capsys.readouterr().err == message, argv
                assert list(tmp_path.iterdir()) == [], argv
            return
        manifest = json.loads((world_dir / "manifest.json").read_text())
        block, types, got, hint = "manifest", "path", "''", ""
        name = key.removeprefix("corpus.")
        if key == "config":
            manifest["config"], types = "", "path or object"
        elif key == "batches":
            manifest["batches"] = [manifest["batches"][0], ""]
            types, got = "list of paths", f"[{manifest['batches'][0]!r}, '']"
        elif name != key:
            manifest["corpus"][name], block = "", "corpus"
        elif key == "concepts":
            manifest["client"]["concepts"], block = "", "synthetic client"
            hint = "; re-run synth-world to write the world again"
        elif key == "fixtures":
            manifest["client"] = {"mode": "replay", "fixtures": ""}
            block = "replay client"
        else:
            manifest[key] = ""
        path = world_dir / f"manifest_empty_{key}.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "o"
        assert run_cli("run", path, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: {block} {name!r} must be of type {types}, "
            f"got {got}{hint}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, right",
        [
            ("truht", "truth"), ("ouput_dir", "output_dir"), ("sed", "seed"),
            ("wrods", "words"), ("concept", "concepts"), ("auth_tokn", "auth_token"),
            ("prompt_templat", "prompt_template"),
        ],
    )
    def test_misspelt_manifest_key_fails_with_one_line(
        self, world_dir, tmp_path, capsys, key, right
    ):
        # ignored, `truht` would write no report, `sed` seed the stream 0 and
        # `prompt_templat` prompt with the default template
        block = {
            "wrods": "corpus", "concept": "synthetic client",
            "auth_tokn": "http client", "prompt_templat": "labels file",
        }.get(key, "manifest")
        manifest = json.loads((world_dir / "manifest.json").read_text())
        labels = json.loads((world_dir / "labels.json").read_text())
        labels["prompt_template"] = "A photo of a <label>."
        if block == "http client":
            manifest["client"] = {"mode": "http", "auth_token": "t"}
        node = {
            "manifest": manifest, "corpus": manifest["corpus"], "labels file": labels
        }.get(block, manifest["client"])
        node[key] = node.pop(right)
        path = named = world_dir / f"manifest_{key}.json"
        if block == "labels file":
            named = world_dir / f"labels_{key}.json"
            named.write_text(json.dumps(labels))
            manifest["labels"] = named.name
        path.write_text(json.dumps(manifest))
        message = f"error: {named}: unknown {block} key {key!r}"
        if block == "synthetic client":
            message += "; re-run synth-world to write the world again"
        message += "\n"
        out, fixtures = tmp_path / "o", tmp_path / "fx"
        for argv in (
            ("run", path, "--out", out),
            ("fixtures", "record", path, "--fixtures", fixtures, "--out", out),
            ("fixtures", "replay", path, "--fixtures", tmp_path, "--out", out),
        ):
            assert run_cli(*argv) == 1, argv
            assert capsys.readouterr().err == message, argv
            assert not out.exists() and not fixtures.exists()

    def test_missing_input_fails_before_output(self, world_dir, tmp_path, capsys):
        # a replay client over no fixtures would degrade (exit 2); it fails
        client = {"mode": "replay", "fixtures": "fx_missing"}
        bad = write_manifest(world_dir, "replay_fx_missing", client=client)
        out = tmp_path / "never"
        assert run_cli("run", bad, "--out", out) == 1
        missing = (world_dir / "fx_missing").resolve()
        assert capsys.readouterr().err == f"error: manifest path not found: {missing}\n"
        assert not out.exists()

    def test_missing_label_features_fail_with_one_line(self, world_dir, tmp_path, capsys):
        # the features file is named by the labels manifest, not the manifest
        labels = json.loads((world_dir / "labels.json").read_text())
        labels_path = world_dir / "labels_features_missing.json"
        labels_path.write_text(json.dumps({**labels, "features": "nope_labels.nspc"}))
        bad = write_manifest(world_dir, "labels_features_missing", labels=labels_path.name)
        out = tmp_path / "never"
        assert run_cli("run", bad, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error: {labels_path}: labels features not found: "
            f"{world_dir / 'nope_labels.nspc'}\n"
        )
        assert not out.exists()

    # numpy raises MemoryError for the first and ValueError past its size limit
    @pytest.mark.parametrize("capacity", [10**13, 10**16])
    def test_cache_too_large_to_allocate_fails_with_one_line(
        self, world_dir, tmp_path, capsys, capacity
    ):
        out = tmp_path / "huge"
        setting = f"mining.cache_capacity={capacity}"
        assert run_cli("run", world_dir / "manifest.json", "--out", out, "--set", setting) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: mining.cache_capacity {capacity} asks for ")
        assert err.count("\n") == 1 and " bytes " in err
        assert not out.exists()

    def test_rerun_is_byte_identical(self, world_dir, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", world_dir / "manifest.json", "--out", out1) == 0
        assert run_cli("run", world_dir / "manifest.json", "--out", out2) == 0
        for name in ("records.csv", "report.json", "histogram.csv", "checkpoint.nckp"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_malformed_manifest_fails_with_one_line(
        self, world_dir, tmp_path, capsys, monkeypatch
    ):
        bad = tmp_path / "manifest.json"
        bad.write_text('{"client": {"mode": ')
        manifest = json.loads((world_dir / "manifest.json").read_text())
        (world_dir / "labels_no_features.json").write_text('{"labels": ["a"]}')
        (world_dir / "broken.json").write_text('{"labels": [')
        labels = json.loads((world_dir / "labels.json").read_text())
        labels["labels"][1] = 5
        (world_dir / "labels_number.json").write_text(json.dumps(labels))
        labels["labels"][1], labels["prompt_template"] = "x", 5
        (world_dir / "template_number.json").write_text(json.dumps(labels))
        del labels["prompt_template"]
        # a string would be read as one label per letter
        (world_dir / "labels_abc.json").write_text(
            json.dumps({**labels, "labels": "abc"})
        )
        (world_dir / "features_number.json").write_text(
            json.dumps({**labels, "features": 5})
        )
        words = json.loads((world_dir / "corpus_words.json").read_text())
        (world_dir / "words_number.json").write_text(json.dumps([7, *words[1:]]))
        truth_lines = (world_dir / "truth.csv").read_text().splitlines(keepends=True)
        dropped = truth_lines.pop(2).split(",")[0]  # the second image of batch 0
        (world_dir / "truth_missing_image.csv").write_text("".join(truth_lines))
        image, tag = truth_lines[1].strip().split(",")
        other = "OOD" if tag == "ID" else "ID"
        (world_dir / "truth_twice.csv").write_text(
            "".join(truth_lines) + f"{image},{other}\n"
        )
        (world_dir / "truth_latin1.csv").write_bytes(
            (world_dir / "truth.csv").read_bytes() + b"img_\xe9,ID\n"
        )
        dim = load_embeddings(world_dir / "batch_000.nspc").dim
        save_embeddings(
            EmbeddingMatrix((), np.empty((0, dim))), world_dir / "batch_empty.nspc", 2
        )
        (world_dir / "batch_int_id.nspc").write_bytes(
            (world_dir / "batch_000.nspc").read_bytes()
        )
        batch_ids = json.loads((world_dir / "batch_000.nspc.ids.json").read_text())
        (world_dir / "batch_int_id.nspc.ids.json").write_text(
            json.dumps([12345, *batch_ids[1:]])
        )
        # nested past the recursion limit, in every JSON file a run reads
        deep = "[" * 200_000 + "]" * 200_000
        (world_dir / "deep.json").write_text(deep)
        (world_dir / "batch_deep_ids.nspc").write_bytes(
            (world_dir / "batch_000.nspc").read_bytes()
        )
        (world_dir / "batch_deep_ids.nspc.ids.json").write_text(deep)
        # a field over the csv module's limit of 131,072 characters
        (world_dir / "truth_long_field.csv").write_text(
            "".join(truth_lines) + "img_x," + "I" * 131_073 + "\n"
        )
        variants = {
            "seed": {**manifest, "seed": "abc"},
            # only a JSON integer: no float is truncated, no bool taken for 0 or 1
            "seed_float": {**manifest, "seed": 42.9},
            "seed_negative": {**manifest, "seed": -1},
            "seed_bool": {**manifest, "seed": True},
            "seed_string": {**manifest, "seed": "42"},
            "no_features": {**manifest, "labels": "labels_no_features.json"},
            "broken_labels": {**manifest, "labels": "broken.json"},
            "broken_words": {
                **manifest, "corpus": {**manifest["corpus"], "words": "broken.json"}
            },
            "words_not_list": {
                **manifest,
                "corpus": {**manifest["corpus"], "words": "labels_no_features.json"},
            },
            "label_not_string": {**manifest, "labels": "labels_number.json"},
            "template_not_string": {**manifest, "labels": "template_number.json"},
            "labels_string": {**manifest, "labels": "labels_abc.json"},
            "features_number": {**manifest, "labels": "features_number.json"},
            "word_not_string": {
                **manifest,
                "corpus": {**manifest["corpus"], "words": "words_number.json"},
            },
            "config_not_object": {**manifest, "config": 5},
            # entries of the wrong JSON type
            "corpus_string": {**manifest, "corpus": "corpus.nspc"},
            "batches_number": {**manifest, "batches": 5},
            "labels_number": {**manifest, "labels": 7},
            "truth_list": {**manifest, "truth": ["a"]},
            "fixtures_number": {**manifest, "client": {"mode": "replay", "fixtures": 3}},
            "auth_token_number": {
                **manifest, "client": {"mode": "http", "auth_token": 5}
            },
            "mode_unknown": {**manifest, "client": {"mode": "grpc"}},
            "mode_not_string": {**manifest, "client": {"mode": ["http"]}},
            "not_an_object": [manifest],
            "truth_latin1": {**manifest, "truth": "truth_latin1.csv"},
            "truth_missing_image": {**manifest, "truth": "truth_missing_image.csv"},
            "truth_twice": {**manifest, "truth": "truth_twice.csv"},
            "batch_empty": {**manifest, "batches": ["batch_000.nspc", "batch_empty.nspc"]},
            # no truth file, whose lookup would reject the id first
            "batch_id_not_string": {
                **{k: v for k, v in manifest.items() if k != "truth"},
                "batches": ["batch_int_id.nspc"],
            },
            "endpoint_not_url": {
                **manifest, "client": {"mode": "http", "endpoint": "not-a-url"}
            },
            "env_endpoint_not_http": {**manifest, "client": {"mode": "http"}},
            "deep_config": {**manifest, "config": "deep.json"},
            "deep_labels": {**manifest, "labels": "deep.json"},
            "deep_words": {**manifest, "corpus": {**manifest["corpus"], "words": "deep.json"}},
            "deep_concepts": {
                **manifest, "client": {"mode": "synthetic", "concepts": "deep.json"}
            },
            "deep_batch_ids": {
                **{k: v for k, v in manifest.items() if k != "truth"},
                "batches": ["batch_deep_ids.nspc"],
            },
            "truth_long_field": {**manifest, "truth": "truth_long_field.csv"},
        }
        # each input the manifest names is checked where it is read
        missing = {
            "config_missing": {**manifest, "config": "nope_config.json"},
            "labels_missing": {**manifest, "labels": "nope_labels.json"},
            "words_missing": {
                **manifest, "corpus": {**manifest["corpus"], "words": "nope_words.json"}
            },
            "embeddings_missing": {
                **manifest,
                "corpus": {**manifest["corpus"], "embeddings": "nope_corpus.nspc"},
            },
            "batch_missing": {
                **manifest, "batches": [*manifest["batches"], "nope_batch.nspc"]
            },
            "truth_missing": {**manifest, "truth": "nope_truth.csv"},
            "fixtures_missing": {
                **manifest, "client": {"mode": "replay", "fixtures": "nope_fx"}
            },
        }
        variants.update(missing)
        monkeypatch.setenv("NEGTEXT_ENDPOINT", "ftp://example.test/api")
        cases = [("run", bad, "--out", tmp_path / "o")]
        cases.append(("run", world_dir / "deep.json", "--out", tmp_path / "o"))
        for name, spec in variants.items():
            path = world_dir / f"manifest_bad_{name}.json"
            path.write_text(json.dumps(spec))
            cases.append(("run", path, "--out", tmp_path / "o"))
        for name in ("label_not_string", "word_not_string", *missing):
            path = world_dir / f"manifest_bad_{name}.json"
            cases.append((
                "sweep", "lambda", path, "--values", "0,1", "-o", tmp_path / "s.csv",
            ))
            cases.append((
                "fixtures", "record", path, "--fixtures", tmp_path / "fx",
                "--out", tmp_path / "o",
            ))
        cases.append((
            "sweep", "lambda", world_dir / "manifest.json",
            "--values", "a,b", "-o", tmp_path / "s.csv",
        ))
        path = world_dir / "manifest_bad_output_dir_number.json"
        path.write_text(json.dumps({**manifest, "output_dir": 5}))
        cases.append(("run", path))
        for argv in cases:
            assert run_cli(*argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        for name, message in (
            ("truth_missing_image", f"missing_image.csv: no tag for image {dropped!r}"),
            (
                "truth_twice",
                f"truth_twice.csv, line {len(truth_lines) + 1}: "
                f"image {image!r} is tagged twice",
            ),
            ("batch_empty", "batch_empty.nspc: batch holds no images"),
            ("endpoint_not_url", "must be an http(s) URL with a host, got 'not-a-url'"),
            ("env_endpoint_not_http", "got 'ftp://example.test/api'"),
            (
                "label_not_string",
                "labels_number.json: labels file 'labels' must be of type list of "
                "strings, got ['class_00', 5, ",
            ),
            (
                "template_not_string",
                "template_number.json: labels file 'prompt_template' must be of type "
                "string, got 5",
            ),
            ("word_not_string", "words_number.json: corpus words must be a JSON list"),
            (
                "labels_string",
                "labels_abc.json: labels file 'labels' must be of type list of "
                "strings, got 'abc'",
            ),
            (
                "features_number",
                "features_number.json: labels file 'features' must be of type "
                "string, got 5",
            ),
            (
                "auth_token_number",
                "auth_token_number.json: http client 'auth_token' must be of type "
                "string, got 5",
            ),
            (
                "mode_unknown",
                "mode_unknown.json: client 'mode' must be one of synthetic, replay, "
                "http, got 'grpc'",
            ),
            ("truth_latin1", "truth_latin1.csv: not UTF-8 text"),
            ("batch_id_not_string", "batch_int_id.nspc: expected a list of 300 str ids"),
            *(
                (name, "deep.json: ") for name in
                ("deep_config", "deep_labels", "deep_words", "deep_concepts")
            ),
            ("deep_batch_ids", "batch_deep_ids.nspc.ids.json: not a JSON id list"),
            ("truth_long_field", "truth_long_field.csv, line "),
            *(
                (name, f"manifest path not found: {world_dir.resolve()}/nope_")
                for name in missing
            ),
        ):
            path = world_dir / f"manifest_bad_{name}.json"
            assert run_cli("run", path, "--out", tmp_path / "o") == 1
            assert message in capsys.readouterr().err, name
        assert not (tmp_path / "o").exists() and not (tmp_path / "fx").exists()
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize(
        "endpoint",
        ["http://localhost:8000/v1", "https://example.test", "HTTPS://[::1]:9"],
    )
    def test_http_endpoint_takes_an_http_url(self, tmp_path, endpoint):
        spec = {"client": {"mode": "http", "endpoint": endpoint}}
        assert _build_client(Manifest(spec, tmp_path), []).endpoint == endpoint

    def test_unknown_config_key_fails_with_one_line(self, world_dir, tmp_path, capsys):
        config = json.loads((world_dir / "config.json").read_text())
        manifest = json.loads((world_dir / "manifest.json").read_text())
        bad_configs = {
            # keys of fields that were removed
            "mode": {**config, "mode": "adaptive"},
            "regen_every": {**config, "regen_every": 1},
            "adapt": {**config, "adapt": False},
            "lambda_override": {
                **config, "score": {**config["score"], "lambda_override": 0.5}
            },
            # values whose type does not match the field
            "capacity": {**config, "mining": {**config["mining"], "cache_capacity": 2.5}},
            "negatives": {**config, "num_negatives": 200.0},
            "group": {**config, "score": {**config["score"], "group_size": 25.0}},
            # not a JSON object at all
            "string": "abc",
        }
        argvs = [
            ("run", world_dir / "manifest.json", "--out", tmp_path / "o",
             "--set", "mining.bogus=1"),
        ]
        for name, bad in bad_configs.items():
            (world_dir / f"config_{name}.json").write_text(json.dumps(bad))
            path = world_dir / f"manifest_config_{name}.json"
            path.write_text(json.dumps({**manifest, "config": f"config_{name}.json"}))
            argvs.append(("run", path, "--out", tmp_path / "o"))
        argvs.append(("run", world_dir / "manifest_config_string.json",
                      "--out", tmp_path / "o", "--set", "score.temperature=0.1"))
        for argv in argvs:
            code = run_cli(*argv)
            assert code == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)

    def test_bool_lambda_override_fails_with_one_line(self, world_dir, tmp_path, capsys):
        # a JSON bool where a number is meant, and a number where a bool is
        out = tmp_path / "o"
        for setting in (
            "score.lambda_override=true",
            "score.lambda_override=0.5",
            "score.group_size=true",
            "score.temperature=true",
            "score.temperature=NaN",
            "score.temperature=Infinity",
            "score.temperature=1e-320",
            "score.temperature=6e-309",
            "mining.cache_capacity=true",
            "adapt=0",
            "adapt=false",
        ):
            code = run_cli(
                "run", world_dir / "manifest.json", "--out", out, "--set", setting
            )
            assert code == 1, setting
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (setting, err)
            assert not out.exists()

    def test_run_without_truth_leaves_tags_empty(self, world_dir, tmp_path):
        path = write_manifest(world_dir, "no_truth", truth=None)
        out = tmp_path / "run"
        assert run_cli("run", path, "--out", out) == 0
        rows = list(csv.DictReader((out / "records.csv").open()))
        assert rows and all(row["tag"] == "" for row in rows)
        assert (out / "histogram.csv").exists()
        assert not (out / "report.json").exists()

    def test_set_overrides_config(self, world_dir, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "run", world_dir / "manifest.json", "--out", out,
            "--set", "score.temperature=0.02",
        )
        assert code == 0
        inputs = _assemble_inputs(Manifest.load(world_dir / "manifest.json"))
        state = load_checkpoint(
            out / "checkpoint.nckp", inputs.label_space, inputs.corpus
        )
        assert state.config.score.temperature == 0.02

    def test_manifest_seed_seeds_only_the_stream(self, tmp_path):
        # the oracle's world is the one the concepts file names, so another
        # stream seed still scores the world's own images
        world = tmp_path / "mixed"
        assert run_cli("synth-world", "mixed", "-o", world) == 0
        path = write_manifest(world, "seed_7", seed=7)
        assert run_cli("run", path, "--out", tmp_path / "o") == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["auroc"] == 0.9908

    def test_concepts_missing_an_image_fail_before_output(
        self, world_dir, tmp_path, capsys
    ):
        spec = json.loads((world_dir / "concepts.json").read_text())
        kept = dict(list(spec["images"].items())[::2])
        (world_dir / "concepts_every_other.json").write_text(
            json.dumps({**spec, "images": kept})
        )
        client = {"mode": "synthetic", "concepts": "concepts_every_other.json"}
        path = write_manifest(world_dir, "every_other", client=client)
        batch = load_embeddings(world_dir / "batch_000.nspc")
        first_missing = next(i for i in batch.ids if i not in kept)
        for argv in (
            ("run", path, "--out", tmp_path / "o"),
            ("sweep", "lambda", path, "--values", "0,1", "-o", tmp_path / "s.csv"),
        ):
            assert run_cli(*argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert f"no concept for image {first_missing!r}" in err
        assert not (tmp_path / "o").exists() and not (tmp_path / "s.csv").exists()


class TestFixtures:
    def test_record_then_replay_is_byte_identical(self, world_dir, tmp_path):
        fixtures = tmp_path / "fx"
        rec_out, rep_out = tmp_path / "rec", tmp_path / "rep"
        assert run_cli(
            "fixtures", "record", world_dir / "manifest.json",
            "--fixtures", fixtures, "--out", rec_out,
        ) == 0
        assert any(fixtures.iterdir())
        assert run_cli(
            "fixtures", "replay", world_dir / "manifest.json",
            "--fixtures", fixtures, "--out", rep_out,
        ) == 0
        for name in ("records.csv", "report.json", "checkpoint.nckp"):
            assert (rec_out / name).read_bytes() == (rep_out / name).read_bytes()

    def test_record_builds_the_world_once_and_matches_run(
        self, world_dir, tmp_path, monkeypatch
    ):
        import negtext.synthetic

        builds = []
        original_init = negtext.synthetic.SyntheticWorld.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(negtext.synthetic.SyntheticWorld, "__init__", counting_init)
        rec_out = tmp_path / "rec"
        assert run_cli(
            "fixtures", "record", world_dir / "manifest.json",
            "--fixtures", tmp_path / "fx", "--out", rec_out,
        ) == 0
        assert len(builds) == 1
        # the recording client answers like the client of a plain run
        run_out = tmp_path / "run"
        assert run_cli("run", world_dir / "manifest.json", "--out", run_out) == 0
        for name in ("records.csv", "report.json", "checkpoint.nckp"):
            assert (rec_out / name).read_bytes() == (run_out / name).read_bytes()

    def test_record_with_bad_synthetic_inputs_leaves_no_fixtures_dir(
        self, world_dir, tmp_path, capsys
    ):
        client = json.loads((world_dir / "manifest.json").read_text())["client"]
        spec = json.loads((world_dir / "concepts.json").read_text())
        concepts = spec["images"]
        first = next(iter(concepts))
        bad_concepts = {
            # what a world from an older synth-world holds
            "flat": concepts,
            "list": list(concepts),
            "images_list": {**spec, "images": list(concepts)},
            "number_name": {**spec, "images": {**concepts, first: 5}},
            "unknown_name": {**spec, "images": {**concepts, first: "class_99"}},
            "no_scenario": {**spec, "scenario": None},
            "unknown_scenario": {**spec, "scenario": "nope"},
            "seed_bool": {**spec, "seed": True},
            "seed_negative": {**spec, "seed": -1},
        }
        for name, content in bad_concepts.items():
            (world_dir / f"concepts_{name}.json").write_text(json.dumps(content))
        no_concepts = {k: v for k, v in client.items() if k != "concepts"}

        def concepts_file(name):
            return {**client, "concepts": f"concepts_{name}.json"}

        cases = {
            "no_concepts": (no_concepts, "re-run synth-world"),
            "concepts_flat": (concepts_file("flat"), "re-run synth-world"),
            "concepts_list": (
                concepts_file("list"),
                "concepts_list.json: concepts must be an object of scenario, seed",
            ),
            "concepts_images_list": (
                concepts_file("images_list"),
                "concepts_images_list.json: concepts images must be a JSON object",
            ),
            "concepts_number_name": (
                concepts_file("number_name"),
                "concepts_number_name.json: concepts images must be a JSON object",
            ),
            "concepts_unknown_name": (
                concepts_file("unknown_name"),
                "concepts_unknown_name.json: scenario 'far' has no concept 'class_99'",
            ),
            "no_scenario": (concepts_file("no_scenario"), "unknown scenario None"),
            "unknown_scenario": (
                concepts_file("unknown_scenario"), "unknown scenario 'nope'"
            ),
            "seed_bool": (concepts_file("seed_bool"), "concepts 'seed' must be"),
            "seed_negative": (concepts_file("seed_negative"), "concepts 'seed' must be"),
            "concepts_missing": (
                {**client, "concepts": "nope.json"},
                f"error: manifest path not found: {(world_dir / 'nope.json').resolve()}\n",
            ),
            "concepts_broken": (
                {**client, "concepts": "truth.csv"}, "concepts is not valid JSON"
            ),
        }
        for name, (spec, message) in cases.items():
            path = write_manifest(world_dir, f"record_{name}", client=spec)
            assert run_cli(
                "fixtures", "record", path,
                "--fixtures", tmp_path / "fx", "--out", tmp_path / "o",
            ) == 1, name
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (name, err)
            assert message in err, (name, err)
            assert not (tmp_path / "fx").exists(), name
            assert not (tmp_path / "o").exists(), name

    def test_replay_of_a_null_description_degrades(self, world_dir, tmp_path, capsys):
        fixtures = tmp_path / "fx"
        assert run_cli(
            "fixtures", "record", world_dir / "manifest.json",
            "--fixtures", fixtures, "--out", tmp_path / "rec",
        ) == 0
        path = next(
            p for p in sorted(fixtures.iterdir())
            if json.loads(p.read_text())["request"]["task"] == "describe"
        )
        stored = json.loads(path.read_text())
        stored["response"]["texts"] = [None]
        path.write_text(json.dumps(stored))
        capsys.readouterr()
        assert run_cli(
            "fixtures", "replay", world_dir / "manifest.json",
            "--fixtures", fixtures, "--out", tmp_path / "rep",
        ) == 2
        assert capsys.readouterr().err == (
            "warning: generation degraded; stale negative spaces were used\n"
        )

    def test_replay_builds_no_client_from_the_manifest(
        self, world_dir, tmp_path, capsys, monkeypatch
    ):
        # an http client without an endpoint cannot be built; replay never asks
        manifest = json.loads((world_dir / "manifest.json").read_text())
        manifest["client"] = {"mode": "http"}
        path = world_dir / "manifest_http_no_endpoint.json"
        path.write_text(json.dumps(manifest))
        monkeypatch.delenv("NEGTEXT_ENDPOINT", raising=False)
        fixtures = tmp_path / "fx"
        fixtures.mkdir()
        capsys.readouterr()
        # no fixture answers a request, so every regeneration degrades
        assert run_cli(
            "fixtures", "replay", path, "--fixtures", fixtures, "--out", tmp_path / "rep"
        ) == 2
        assert capsys.readouterr().err == (
            "warning: generation degraded; stale negative spaces were used\n"
        )

    def test_replay_reads_no_client_file_of_the_manifest(self, world_dir, tmp_path):
        fixtures, rec_out, rep_out = tmp_path / "fx", tmp_path / "rec", tmp_path / "rep"
        assert run_cli(
            "fixtures", "record", world_dir / "manifest.json",
            "--fixtures", fixtures, "--out", rec_out,
        ) == 0
        client = {"mode": "synthetic", "concepts": "nope.json"}
        path = write_manifest(world_dir, "replay_no_concepts", client=client)
        assert run_cli(
            "fixtures", "replay", path, "--fixtures", fixtures, "--out", rep_out
        ) == 0
        for name in ("records.csv", "report.json", "checkpoint.nckp"):
            assert (rec_out / name).read_bytes() == (rep_out / name).read_bytes()

    def test_replay_without_fixtures_fails(self, world_dir, tmp_path):
        assert run_cli(
            "fixtures", "replay", world_dir / "manifest.json",
            "--fixtures", tmp_path / "nope", "--out", tmp_path / "o",
        ) == 1


class TestEval:
    def _run(self, world_dir, tmp_path):
        out = tmp_path / "run"
        assert run_cli("run", world_dir / "manifest.json", "--out", out) == 0
        return out

    def test_eval_matches_run_report(self, world_dir, tmp_path, capsys):
        out = self._run(world_dir, tmp_path)
        assert run_cli("eval", out / "records.csv") == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads((out / "report.json").read_text())

    def test_single_sided_truth_fails(self, world_dir, tmp_path):
        out = self._run(world_dir, tmp_path)
        truth = tmp_path / "truth_id_only.csv"
        records, tags = load_records_csv(out / "records.csv")
        with truth.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["image_id", "tag"])
            for r in records:
                writer.writerow([r.image_id, "ID"])
        assert run_cli("eval", out / "records.csv", "--truth", truth) == 1

    @pytest.mark.parametrize(
        "content, named",
        [
            (b"a,b\n1,2\n", "image_id"),
            # the header is checked before a later row is read
            pytest.param(
                b"a,b\n" + b"1,2\n" * 5_000 + b"\xe9,2\n",
                "missing column(s) image_id",
                id="header-before-undecodable-row",
            ),
            (b"image_id,s_nl,s_ens,s_vsnl,s_ada,predicted_class,tag\n"
             b"img_1,0.5,0.5,0.5,abc,0,ID\n", "line 2"),
            (b"image_id,s_nl,s_ens,s_vsnl,s_ada,predicted_class,tag\n"
             b"img_\xe9,0.5,0.5,0.5,0.5,0,ID\n", "not UTF-8 text"),
            # counted twice as OOD, the metrics would be silently wrong
            (b"image_id,s_nl,s_ens,s_vsnl,s_ada,predicted_class,tag\n"
             b"a,0.5,0.5,0.5,0.5,0,ID\nb,0.5,0.5,0.5,0.5,0,OOD\n"
             b"a,0.5,0.5,0.5,0.5,0,OOD\n",
             "line 4: image 'a' is tagged OOD here but ID on an earlier line"),
            # a field over the csv module's limit of 131,072 characters
            pytest.param(
                b"image_id,s_nl,s_ens,s_vsnl,s_ada,predicted_class,tag\n"
                + b"a" * 131_073 + b",0.5,0.5,0.5,0.5,0,ID\n",
                "line 2: field larger than field limit",
                id="long-field",
            ),
        ],
    )
    def test_malformed_records_fail_with_one_line(
        self, tmp_path, capsys, content, named
    ):
        junk = tmp_path / "junk.csv"
        junk.write_bytes(content)
        assert run_cli("eval", junk) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert str(junk) in err[0] and named in err[0]

    def test_truth_tagging_an_image_twice_fails_with_one_line(
        self, world_dir, tmp_path, capsys
    ):
        out = self._run(world_dir, tmp_path)
        truth = tmp_path / "t.csv"
        truth.write_text("image_id,tag\nimg_a,ID\nimg_b,OOD\nimg_a,OOD\n")
        capsys.readouterr()
        assert run_cli("eval", out / "records.csv", "--truth", truth) == 1
        assert capsys.readouterr().err == (
            f"error: {truth}, line 4: image 'img_a' is tagged twice\n"
        )

    def test_truth_with_wrong_header_fails_with_one_line(
        self, world_dir, tmp_path, capsys
    ):
        out = self._run(world_dir, tmp_path)
        truth = tmp_path / "t.csv"
        truth.write_text("id,label\nimg_000000,ID\n")
        capsys.readouterr()
        assert run_cli("eval", out / "records.csv", "--truth", truth) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert str(truth) in err[0] and "tag" in err[0]

    @pytest.mark.parametrize("where", ["truth", "records"])
    def test_unknown_tag_fails_with_one_line(
        self, world_dir, tmp_path, capsys, where
    ):
        out = self._run(world_dir, tmp_path)
        with (out / "records.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        truth = {row["image_id"]: row["tag"] for row in rows}
        bad = rows[2]["image_id"]  # on line 4 of either file
        truth[bad] = truth[bad].lower()
        if where == "truth":
            path = tmp_path / "truth.csv"
            with path.open("w", newline="") as fh:
                csv.writer(fh).writerows([("image_id", "tag"), *truth.items()])
            args = (out / "records.csv", "--truth", path)
        else:
            path = tmp_path / "records.csv"
            with path.open("w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows({**row, "tag": truth[row["image_id"]]} for row in rows)
            args = (path,)
        capsys.readouterr()
        assert run_cli("eval", *args) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert str(path) in err[0] and "line 4" in err[0]

    def test_inverted_scores_complement_auroc(self, world_dir, tmp_path, capsys):
        out = self._run(world_dir, tmp_path)
        records, tags = load_records_csv(out / "records.csv")
        inverted = tmp_path / "inverted.csv"
        with (out / "records.csv").open(newline="") as src, inverted.open(
            "w", newline=""
        ) as dst:
            reader = csv.DictReader(src)
            writer = csv.DictWriter(dst, fieldnames=reader.fieldnames)
            writer.writeheader()
            for row in reader:
                row["s_ada"] = repr(1.0 - float(row["s_ada"]))
                writer.writerow(row)
        assert run_cli("eval", out / "records.csv") == 0
        direct = json.loads(capsys.readouterr().out)["auroc"]
        assert run_cli("eval", inverted) == 0
        flipped = json.loads(capsys.readouterr().out)["auroc"]
        assert direct + flipped == pytest.approx(1.0, abs=1e-9)


class CountingClient:
    """Delegates to `inner` and appends each request to `calls`."""

    def __init__(self, inner, calls):
        self.inner = inner
        self.calls = calls

    def describe_image(self, image_ref, exclude_label):
        self.calls.append(("describe", image_ref, exclude_label))
        return self.inner.describe_image(image_ref, exclude_label)

    def similar_labels(self, class_name, count):
        self.calls.append(("similar", class_name, count))
        return self.inner.similar_labels(class_name, count)

    def embed_texts(self, texts):
        self.calls.append(("embed", tuple(texts)))
        return self.inner.embed_texts(texts)


class TestSweep:
    def test_lambda_endpoints_match_single_space_modes(self, world_dir, tmp_path):
        sweep_csv = tmp_path / "sweep.csv"
        assert run_cli(
            "sweep", "lambda", world_dir / "manifest.json",
            "--values", "0,0.5,1", "-o", sweep_csv,
        ) == 0
        rows = list(csv.DictReader(sweep_csv.open()))
        assert [row["lambda"] for row in rows] == ["0", "0.5", "1"]

        # a fixed weight of 0 (resp. 1) scores with the lookalike (resp.
        # sentence) space alone: the s_vsnl (resp. s_ens) column of a run
        out = tmp_path / "run"
        assert run_cli("run", world_dir / "manifest.json", "--out", out) == 0
        records, truth = load_records_csv(out / "records.csv")
        for column, row in (("s_vsnl", rows[0]), ("s_ens", rows[2])):
            single = [replace(r, s_ada=getattr(r, column)) for r in records]
            report = compute_report(*split_scores(single, truth))
            assert row["auroc"] == "%.9g" % report.auroc
            assert row["fpr95"] == "%.9g" % report.fpr95

    def test_lambda_sweep_makes_the_client_calls_of_one_run(
        self, world_dir, tmp_path, monkeypatch
    ):
        import negtext.cli

        calls = []
        build_client = negtext.cli._build_client
        monkeypatch.setattr(
            negtext.cli, "_build_client",
            lambda *a: CountingClient(build_client(*a), calls),
        )
        assert run_cli("run", world_dir / "manifest.json", "--out", tmp_path / "o") == 0
        run_calls = calls.copy()
        calls.clear()
        assert run_cli(
            "sweep", "lambda", world_dir / "manifest.json",
            "--values", "0,0.25,0.5,1", "-o", tmp_path / "s.csv",
        ) == 0
        # describe requests run concurrently, so compare the calls as a multiset
        assert run_calls and Counter(calls) == Counter(run_calls)

    @pytest.mark.parametrize(
        "axis,values",
        [("length", "2.5,4"), ("length", "4,5.5"), ("lambda", "0.5,1.5")],
    )
    def test_bad_value_fails_before_writing(self, world_dir, tmp_path, capsys, axis, values):
        out = tmp_path / "s.csv"
        code = run_cli("sweep", axis, world_dir / "manifest.json", "--values", values, "-o", out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_missing_truth_fails_before_writing(self, world_dir, tmp_path, capsys):
        path = write_manifest(world_dir, "sweep_no_truth", truth=None)
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "lambda", path, "--values", "0,1", "-o", out) == 1
        err = capsys.readouterr().err
        assert err == "error: sweep requires ground truth\n"
        assert not out.exists()

    def test_single_value_is_usage_error(self, world_dir, tmp_path):
        assert run_cli(
            "sweep", "delta", world_dir / "manifest.json",
            "--values", "0.3", "-o", tmp_path / "s.csv",
        ) == 1


def _npy_header(*shape) -> bytes:
    """The header of a float64 .npy file of `shape`, without its data."""
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        out, {"descr": "<f8", "fortran_order": False, "shape": shape}
    )
    return out.getvalue()


class TestIngest:
    def test_csv_roundtrip(self, tmp_path):
        src = tmp_path / "v.csv"
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((3, 5))
        with src.open("w", newline="") as fh:
            writer = csv.writer(fh)
            for i, row in enumerate(rows):
                writer.writerow([f"v{i}"] + [repr(float(x)) for x in row])
        out = tmp_path / "v.nspc"
        assert run_cli("ingest", src, "-o", out) == 0
        matrix = load_embeddings(out)
        assert matrix.ids == ("v0", "v1", "v2")
        expected = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        assert np.allclose(matrix.data, expected, atol=1e-6)

    def test_npy_requires_ids(self, tmp_path):
        src = tmp_path / "v.npy"
        np.save(src, np.eye(3))
        assert run_cli("ingest", src, "-o", tmp_path / "v.nspc") == 1

    @pytest.mark.parametrize(
        "name, content, named",
        [
            ("header.csv", b"id,a,b\nv0,1,2\n", "header.csv, line 1"),
            ("ragged.csv", b"v0,1,2\nv1,1,2,3\n", "ragged.csv, line 2"),
            ("latin1.csv", b"v0,1,2\nv\xe9,1,2\n", "latin1.csv: not UTF-8 text"),
            (
                "pickled.npy",
                np.array([{"v": 1}, None], dtype=object),
                "pickled.npy: not a numeric .npy array",
            ),
            ("eye.npy", np.eye(2), "ids.txt: not UTF-8 text"),
            (
                "long.csv",
                b"v0,1,2\nv1," + b"1" * 131_073 + b",2\n",
                "long.csv, line 2: field larger than field limit",
            ),
            # a header claiming 10^11 rows (2.18 TiB) over no data
            ("huge.npy", _npy_header(10**11, 3), "huge.npy: not a numeric .npy array"),
        ],
        ids=["header", "ragged", "latin1", "pickled", "latin1_ids", "long_field", "huge"],
    )
    def test_bad_input_fails_with_one_line(self, tmp_path, capsys, name, content, named):
        src = tmp_path / name
        if isinstance(content, bytes):
            src.write_bytes(content)
        else:
            np.save(src, content, allow_pickle=True)
        ids = tmp_path / "ids.txt"
        ids.write_bytes(b"v0\nv\xe9\n")  # read only for a numeric .npy
        assert run_cli("ingest", src, "--ids", ids, "-o", tmp_path / "v.nspc") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {tmp_path / named}")

    def test_unsupported_format_fails(self, tmp_path):
        src = tmp_path / "v.parquet"
        src.write_bytes(b"")
        assert run_cli("ingest", src, "-o", tmp_path / "v.nspc") == 1


def _module_loaded_by_cli_import(module: str) -> bool:
    """Whether a fresh `import negtext.cli` puts `module` in `sys.modules`."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    probe = f"import sys, negtext.cli; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    )
    return out.stdout.strip() == "True"


def test_cli_import_does_not_load_scipy():
    assert not _module_loaded_by_cli_import("scipy")


def test_cli_import_does_not_load_requests():
    # only the HTTP clients need it, and it costs ~8 MB of RSS
    assert not _module_loaded_by_cli_import("requests")
