"""Core type invariants, vector primitives, and file-format round trips."""
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from negtext import embeddings
from negtext.embeddings import (
    EmbeddingMatrix,
    LabelSpace,
    NegativeSpace,
    TestBatch,
    decode_nspc,
    encode_nspc,
    load_embeddings,
    save_embeddings,
)
from negtext.errors import DataError, FormatError

from conftest import make_label_space, unit_rows

finite_rows = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(2, 10)),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


class TestEmbeddingMatrix:
    @given(data=finite_rows)
    # entries whose squares underflow (a row of norm 0.9994, a row taken for
    # zero) or overflow (a row of zeros) in a plain norm
    @example(data=np.array([[3.34e-161, 3.34e-161]]))
    @example(data=np.array([[1e-170, 0.0, 5e-171]]))
    @example(data=np.array([[1e200, 1e200]]))
    def test_rows_are_unit_norm_after_ingestion(self, data):
        if np.any(np.all(data == 0.0, axis=1)):
            with pytest.raises(DataError):
                EmbeddingMatrix.from_rows(
                    [f"r{i}" for i in range(data.shape[0])], data
                )
            return
        matrix = EmbeddingMatrix.from_rows(
            [f"r{i}" for i in range(data.shape[0])], data
        )
        norms = np.linalg.norm(matrix.data, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-6

    def test_normalization_skips_rows_already_unit(self):
        # rows inside the tolerance band are passed through untouched so
        # repeated ingestion is bitwise idempotent
        rng = np.random.default_rng(3)
        once = EmbeddingMatrix.from_rows(["a", "b"], rng.standard_normal((2, 5)))
        twice = EmbeddingMatrix.from_rows(once.ids, once.data)
        assert np.array_equal(once.data, twice.data)

    def test_extreme_rows_leave_other_rows_bytes(self):
        rng = np.random.default_rng(4)
        ordinary = rng.standard_normal((2, 5))
        alone = EmbeddingMatrix.from_rows(["a", "b"], ordinary)
        mixed = EmbeddingMatrix.from_rows(
            ["a", "tiny", "huge", "b"],
            np.vstack([ordinary[0], np.full(5, 1e-170), np.full(5, 1e200), ordinary[1]]),
        )
        assert mixed.data[[0, 3]].tobytes() == alone.data.tobytes()
        assert np.allclose(mixed.data[1:3], np.sqrt(0.2), rtol=0, atol=1e-15)

    def test_rows_normalized_in_runs_equal_rows_one_at_a_time(self):
        # a unit first run, then a run of non-unit rows and a ragged last run
        # holding an extreme-norm row and a non-unit row
        run = embeddings._ROW_RUN
        rng = np.random.default_rng(6)
        data = rng.standard_normal((2 * run + 37, 16))
        data[:run] = unit_rows(rng, run, 16)
        data[-3] = np.full(16, 1e-170)
        data[-2] = np.full(16, 1e200)
        data[-1] *= 3.0
        expected = np.vstack([embeddings._normalize_rows(row[None]) for row in data])
        assert embeddings._normalize_rows(data).tobytes() == expected.tobytes()
        # a non-finite entry in the last run is reported ahead of a zero row
        # in the first
        data[-1, 5], data[0] = np.inf, 0.0
        with pytest.raises(DataError, match="non-finite"):
            embeddings._normalize_rows(data)

    def test_division_keeps_the_bytes_of_rows_that_need_none(self):
        # -0.0 and subnormal entries of a unit row survive next to a row
        # that is divided by its norm
        unit = np.array([[-0.0, 5e-324, 0.6, -0.8, 2.2e-308]])
        data = np.vstack([unit, [[-0.0, 5e-324, 3.0, 4.0, 0.0]]])
        rows = embeddings._normalize_rows(data)
        assert rows[:1].view(np.uint64).tolist() == unit.view(np.uint64).tolist()
        assert np.signbit(rows[1, 0]) and np.abs(np.linalg.norm(rows[1]) - 1.0) < 1e-15

    def test_direct_construction_holds_unit_rows(self):
        data = np.array([[3.0, 4.0], [0.0, -2.0]])
        matrix = EmbeddingMatrix(("a", "b"), data)
        assert np.array_equal(matrix.data, [[0.6, 0.8], [0.0, -1.0]])
        assert data[0, 0] == 3.0 and not matrix.data.flags.writeable

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError):
            EmbeddingMatrix.from_rows(["a", "a"], np.eye(2))

    def test_id_count_mismatch_rejected(self):
        with pytest.raises(DataError):
            EmbeddingMatrix.from_rows(["a"], np.eye(2))

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            EmbeddingMatrix.from_rows(["a"], np.array([[np.nan, 1.0]]))

    def test_data_is_read_only(self):
        matrix = EmbeddingMatrix.from_rows(["a"], np.array([[3.0, 4.0]]))
        with pytest.raises(ValueError):
            matrix.data[0, 0] = 0.0


class TestFileFormat:
    def _roundtrip(self, matrix, tmp_path):
        path = tmp_path / "m.nspc"
        save_embeddings(matrix, path)
        return path, load_embeddings(path)

    def test_roundtrip_preserves_ids_and_values(self, tmp_path):
        rng = np.random.default_rng(5)
        matrix = EmbeddingMatrix.from_rows(
            [f"id{i}" for i in range(7)], unit_rows(rng, 7, 12)
        )
        _, loaded = self._roundtrip(matrix, tmp_path)
        assert loaded.ids == matrix.ids
        assert np.allclose(loaded.data, matrix.data, atol=1e-6)

    def test_double_roundtrip_is_bitwise_stable(self, tmp_path):
        rng = np.random.default_rng(6)
        matrix = EmbeddingMatrix.from_rows(
            [f"id{i}" for i in range(4)], unit_rows(rng, 4, 9)
        )
        path1, loaded1 = self._roundtrip(matrix, tmp_path)
        path2 = tmp_path / "m2.nspc"
        save_embeddings(loaded1, path2)
        assert path1.read_bytes()[20:] == path2.read_bytes()[20:]
        loaded2 = load_embeddings(path2)
        assert np.array_equal(loaded1.data, loaded2.data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.nspc"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_embeddings(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "m.nspc"
        path.write_bytes(b"NSPC\x01")
        with pytest.raises(FormatError):
            load_embeddings(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "m.nspc"
        path.write_bytes(b"NSPC" + struct.pack("<IQI", 99, 1, 2) + b"\x00" * 8)
        with pytest.raises(FormatError):
            load_embeddings(path)

    def test_payload_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.nspc"
        path.write_bytes(b"NSPC" + struct.pack("<IQI", 1, 2, 2) + b"\x00" * 8)
        with pytest.raises(FormatError):
            load_embeddings(path)

    def test_version_2_roundtrips_float64_rows_bit_for_bit(self, tmp_path):
        rows = unit_rows(np.random.default_rng(8), 3, 5)
        assert not np.array_equal(rows.astype(np.float32), rows)
        matrix = EmbeddingMatrix(("a", "b", "c"), rows)
        path = tmp_path / "m.nspc"
        save_embeddings(matrix, path, version=2)
        raw = path.read_bytes()
        assert struct.unpack("<IQI", raw[4:20]) == (2, 3, 5)
        assert len(raw) == 20 + 3 * 5 * 8
        loaded = load_embeddings(path)
        assert np.array_equal(loaded.data.view(np.uint64), rows.view(np.uint64))

    def test_version_1_decodes_float32_rows_as_before(self, tmp_path):
        rows = np.array([[0.6, 0.8, 0.0], [0.0, 0.28, 0.96]], dtype="<f4")
        raw = b"NSPC" + struct.pack("<IQI", 1, 2, 3) + rows.tobytes()
        assert encode_nspc(rows) == raw
        decoded = decode_nspc(raw, "m.nspc")
        assert decoded.dtype == np.float64
        assert np.array_equal(decoded, rows.astype(np.float64))

    def test_version_2_payload_sized_for_float32_rejected_with_one_line(self):
        raw = b"NSPC" + struct.pack("<IQI", 2, 2, 3) + np.zeros(6, "<f4").tobytes()
        message = "m.nspc: payload size 24, expected 48"
        with pytest.raises(FormatError, match=message) as excinfo:
            decode_nspc(raw, "m.nspc")
        assert "\n" not in str(excinfo.value)

    def test_load_checks_each_entry_for_finiteness_once(self, tmp_path, monkeypatch):
        rows = unit_rows(np.random.default_rng(9), 2 * embeddings._ROW_RUN + 3, 4)
        path = tmp_path / "m.nspc"
        save_embeddings(EmbeddingMatrix.from_rows(map(str, range(len(rows))), rows), path)
        checked = []
        isfinite = np.isfinite

        def counting_isfinite(x, *args, **kwargs):
            checked.append(np.size(x))
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counting_isfinite)
        load_embeddings(path)
        assert sum(checked) == rows.size

    def test_non_finite_entry_rejected_with_one_line_naming_the_file(self, tmp_path):
        path = tmp_path / "m.nspc"
        save_embeddings(EmbeddingMatrix.from_rows(["a", "b"], np.eye(2)), path)
        raw = bytearray(path.read_bytes())
        raw[-4:] = np.array([np.nan], "<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: non-finite") as excinfo:
            load_embeddings(path)
        assert "\n" not in str(excinfo.value)

    def test_missing_sidecar_rejected(self, tmp_path):
        matrix = EmbeddingMatrix.from_rows(["a"], np.array([[1.0, 0.0]]))
        path = tmp_path / "m.nspc"
        save_embeddings(matrix, path)
        (tmp_path / "m.nspc.ids.json").unlink()
        with pytest.raises(FormatError):
            load_embeddings(path)

    def test_sidecar_count_mismatch_rejected(self, tmp_path):
        matrix = EmbeddingMatrix.from_rows(["a"], np.array([[1.0, 0.0]]))
        path = tmp_path / "m.nspc"
        save_embeddings(matrix, path)
        (tmp_path / "m.nspc.ids.json").write_text(json.dumps(["a", "b"]))
        with pytest.raises(DataError):
            load_embeddings(path)

    @pytest.mark.parametrize("ids", [[12345, "b"], ["a", None], "ab"])
    def test_sidecar_ids_not_str_rejected_with_one_line(self, tmp_path, ids):
        matrix = EmbeddingMatrix.from_rows(["a", "b"], np.eye(2))
        path = tmp_path / "m.nspc"
        save_embeddings(matrix, path)
        (tmp_path / "m.nspc.ids.json").write_text(json.dumps(ids))
        message = f"{path}: expected a list of 2 str ids"
        with pytest.raises(DataError, match=message) as excinfo:
            load_embeddings(path)
        assert "\n" not in str(excinfo.value)


class TestLabelSpace:
    def test_empty_label_set_rejected(self):
        # so the grouped score always has an ID part
        with pytest.raises(DataError, match="at least one class"):
            LabelSpace(labels=(), features=EmbeddingMatrix((), np.empty((0, 4))))

    def test_casefold_collision_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(DataError):
            LabelSpace(
                labels=("Fox", "fox"),
                features=EmbeddingMatrix.from_rows(
                    ["a", "b"], unit_rows(rng, 2, 4)
                ),
            )

    def test_template_requires_placeholder(self):
        with pytest.raises(DataError):
            LabelSpace(
                labels=("fox",),
                features=EmbeddingMatrix.from_rows(["a"], np.array([[1.0, 0.0]])),
                prompt_template="no placeholder",
            )

    def test_canonical_labels_built_once(self, monkeypatch):
        calls = []
        canon = embeddings._canon_label
        monkeypatch.setattr(
            embeddings, "_canon_label", lambda label: calls.append(label) or canon(label)
        )
        space = make_label_space(n=3, dim=4, seed=9)
        assert len(calls) == 3
        for _ in range(3):
            assert space.canon_labels() == {"label_0", "label_1", "label_2"}
        assert len(calls) == 3

    def test_manifest_roundtrip(self, tmp_path):
        space = make_label_space(n=3, dim=6, seed=8)
        space.save_manifest(tmp_path / "labels.json", "labels.nspc")
        loaded = LabelSpace.from_manifest(tmp_path / "labels.json")
        assert loaded.labels == space.labels
        assert loaded.prompt_template == space.prompt_template
        assert np.allclose(loaded.features.data, space.features.data, atol=1e-6)


class TestNegativeSpace:
    def test_empty_space_rejected(self):
        # so the grouped score always has a negative group
        with pytest.raises(DataError, match="must be non-empty"):
            NegativeSpace.from_rows([], np.empty((0, 4)))


class TestTestBatch:
    def test_tag_validation(self):
        rng = np.random.default_rng(9)
        images = EmbeddingMatrix.from_rows(["a", "b"], unit_rows(rng, 2, 4))
        with pytest.raises(DataError):
            TestBatch(images=images, ground_truth=("ID", "WAT"))
        with pytest.raises(DataError):
            TestBatch(images=images, ground_truth=("ID",))
        TestBatch(images=images, ground_truth=("ID", "OOD"))
        TestBatch(images=images)
