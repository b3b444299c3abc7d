"""Command-line behavior: exit codes, determinism, fixtures, sweeps."""
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from negtext.cli import main
from negtext.embeddings import load_embeddings
from negtext.metrics import load_records_csv
from negtext.pipeline import load_checkpoint
from negtext.scoring import fused_score


def run_cli(*argv):
    return main([str(a) for a in argv])


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
            "corpus.nspc", "corpus_words.json", "truth.csv",
            "batch_000.nspc", "batch_001.nspc",
        ):
            assert (world_dir / name).exists(), name

    def test_batches_match_truth(self, world_dir):
        truth = {
            row["image_id"]: row["tag"]
            for row in csv.DictReader((world_dir / "truth.csv").open())
        }
        images = load_embeddings(world_dir / "batch_000.nspc")
        assert all(i in truth for i in images.ids)
        assert set(truth.values()) == {"ID", "OOD"}


class TestRun:
    def test_happy_path_writes_report(self, world_dir, tmp_path):
        out = tmp_path / "run"
        assert run_cli("run", world_dir / "manifest.json", "--out", out) == 0
        assert (out / "records.csv").exists()
        assert (out / "report.json").exists()
        assert (out / "checkpoint.nckp").exists()
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["auroc"] <= 1.0

    def test_missing_input_fails_before_output(self, world_dir, tmp_path):
        manifest = json.loads((world_dir / "manifest.json").read_text())
        manifest["client"] = {"mode": "replay", "fixtures": "fx_missing"}
        bad = tmp_path / "bad_manifest.json"
        bad.write_text(json.dumps(manifest))
        out = tmp_path / "never"
        assert run_cli("run", bad, "--out", out) == 1
        assert not out.exists()

    def test_rerun_is_byte_identical(self, world_dir, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", world_dir / "manifest.json", "--out", out1) == 0
        assert run_cli("run", world_dir / "manifest.json", "--out", out2) == 0
        for name in ("records.csv", "report.json", "histogram.csv", "checkpoint.nckp"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_malformed_manifest_fails_with_one_line(self, world_dir, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text('{"client": {"mode": ')
        manifest = json.loads((world_dir / "manifest.json").read_text())
        replay = {**manifest, "client": {"mode": "replay", "fixtures": "."}}
        (world_dir / "labels_no_features.json").write_text('{"labels": ["a"]}')
        (world_dir / "broken.json").write_text('{"labels": [')
        variants = {
            "seed": {**manifest, "seed": "abc"},
            "n_batches": {
                **manifest, "client": {**manifest["client"], "n_batches": "x"}
            },
            "no_features": {**replay, "labels": "labels_no_features.json"},
            "broken_labels": {**replay, "labels": "broken.json"},
            "broken_words": {
                **replay, "corpus": {**manifest["corpus"], "words": "broken.json"}
            },
            "words_not_list": {
                **replay,
                "corpus": {**manifest["corpus"], "words": "labels_no_features.json"},
            },
            "config_not_object": {**manifest, "config": 5},
        }
        cases = [("run", bad, "--out", tmp_path / "o")]
        for name, spec in variants.items():
            path = world_dir / f"manifest_bad_{name}.json"
            path.write_text(json.dumps(spec))
            cases.append(("run", path, "--out", tmp_path / "o"))
        cases.append((
            "sweep", "lambda", world_dir / "manifest.json",
            "--values", "a,b", "-o", tmp_path / "s.csv",
        ))
        for argv in cases:
            assert run_cli(*argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)

    def test_unknown_config_key_fails_with_one_line(self, world_dir, tmp_path, capsys):
        config = json.loads((world_dir / "config.json").read_text())
        manifest = json.loads((world_dir / "manifest.json").read_text())
        bad_configs = {
            # keys of fields that were removed
            "mode": {**config, "mode": "adaptive"},
            "regen_every": {**config, "regen_every": 1},
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
            "score.group_size=true",
            "score.temperature=true",
            "score.temperature=NaN",
            "score.temperature=Infinity",
            "score.temperature=1e-320",
            "mining.cache_capacity=true",
            "adapt=0",
        ):
            code = run_cli(
                "run", world_dir / "manifest.json", "--out", out, "--set", setting
            )
            assert code == 1, setting
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (setting, err)
            assert not out.exists()

    def test_run_without_truth_leaves_tags_empty(self, world_dir, tmp_path):
        fixtures = tmp_path / "fx"
        assert run_cli(
            "fixtures", "record", world_dir / "manifest.json",
            "--fixtures", fixtures, "--out", tmp_path / "rec",
        ) == 0
        manifest = json.loads((world_dir / "manifest.json").read_text())
        del manifest["truth"]
        manifest["client"] = {"mode": "replay", "fixtures": str(fixtures)}
        path = world_dir / "manifest_no_truth.json"
        path.write_text(json.dumps(manifest))
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
            "--set", "score.lambda_override=0",
        )
        assert code == 0
        records, _ = load_records_csv(out / "records.csv")
        assert all(r.s_ada == r.s_vsnl for r in records)

    def test_lambda_override_alone_fixes_the_weight(self, world_dir, tmp_path):
        out = tmp_path / "run"
        assert run_cli(
            "run", world_dir / "manifest.json", "--out", out,
            "--set", "score.lambda_override=0.3",
        ) == 0
        records, _ = load_records_csv(out / "records.csv")
        # records.csv holds 9 significant digits
        assert records and all(
            r.s_ada == pytest.approx(fused_score(r.s_ens, r.s_vsnl, 0.3), abs=1e-8)
            for r in records
        )
        assert load_checkpoint(out / "checkpoint.nckp").lambda_history == [0.3, 0.3]


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
        # the recording client answers from the world that made the stream
        run_out = tmp_path / "run"
        assert run_cli("run", world_dir / "manifest.json", "--out", run_out) == 0
        for name in ("records.csv", "report.json", "checkpoint.nckp"):
            assert (rec_out / name).read_bytes() == (run_out / name).read_bytes()

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
            ("a,b\n1,2\n", "image_id"),
            ("image_id,s_nl,s_ens,s_vsnl,s_ada,predicted_class,tag\n"
             "img_1,0.5,0.5,0.5,abc,0,ID\n", "line 2"),
        ],
    )
    def test_malformed_records_fail_with_one_line(
        self, tmp_path, capsys, content, named
    ):
        junk = tmp_path / "junk.csv"
        junk.write_text(content)
        assert run_cli("eval", junk) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert str(junk) in err[0] and named in err[0]

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


class TestSweep:
    def test_lambda_endpoints_match_single_space_modes(self, world_dir, tmp_path):
        sweep_csv = tmp_path / "sweep.csv"
        assert run_cli(
            "sweep", "lambda", world_dir / "manifest.json",
            "--values", "0,0.5,1", "-o", sweep_csv,
        ) == 0
        rows = list(csv.DictReader(sweep_csv.open()))
        assert len(rows) == 3

        for value, row in (("0", rows[0]), ("1", rows[2])):
            out = tmp_path / f"lambda_{value}"
            assert run_cli(
                "run", world_dir / "manifest.json", "--out", out,
                "--set", f"score.lambda_override={value}",
            ) == 0
            report = json.loads((out / "report.json").read_text())
            assert float(row["auroc"]) == pytest.approx(report["auroc"], abs=1e-9)
            assert float(row["fpr95"]) == pytest.approx(report["fpr95"], abs=1e-9)

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

    def test_single_value_is_usage_error(self, world_dir, tmp_path):
        assert run_cli(
            "sweep", "delta", world_dir / "manifest.json",
            "--values", "0.3", "-o", tmp_path / "s.csv",
        ) == 1


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
            ("header.csv", b"id,a,b\nv0,1,2\n", "line 1"),
            ("ragged.csv", b"v0,1,2\nv1,1,2,3\n", "line 2"),
            ("pickled.npy", None, ""),
        ],
        ids=["header", "ragged", "pickled"],
    )
    def test_bad_input_fails_with_one_line(self, tmp_path, capsys, name, content, named):
        src = tmp_path / name
        if content is None:
            np.save(src, np.array([{"v": 1}, None], dtype=object), allow_pickle=True)
        else:
            src.write_bytes(content)
        ids = tmp_path / "ids.txt"
        ids.write_text("v0\nv1\n")
        assert run_cli("ingest", src, "--ids", ids, "-o", tmp_path / "v.nspc") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert str(src) in err[0] and named in err[0]

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
