"""Detection metrics against brute-force oracles, plus result export."""
import csv

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from negtext.errors import InputError
from negtext.metrics import (
    auroc,
    compute_report,
    export_results,
    fpr95,
    load_records_csv,
)
from negtext.scoring import ScoreRecord

score_lists = st.lists(
    st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=40
)

# a few thousand scores quantized to 3 digits: nearly every value is tied
_rng = np.random.default_rng(11)
TIED_ID = np.round(_rng.uniform(0.2, 1.0, 2000), 3).tolist()
TIED_OOD = np.round(_rng.uniform(0.0, 0.8, 1500), 3).tolist()


def auroc_oracle(id_scores, ood_scores):
    """Exhaustive pairwise comparison; ties count one half."""
    wins = 0.0
    for a in id_scores:
        for b in ood_scores:
            wins += 1.0 if a > b else (0.5 if a == b else 0.0)
    return wins / (len(id_scores) * len(ood_scores))


def fpr95_oracle(id_scores, ood_scores, target=0.95):
    """Sweep attained ID scores for the largest threshold with TPR >= target."""
    id_scores = np.asarray(id_scores)
    ood_scores = np.asarray(ood_scores)
    best = None
    for gamma in sorted(set(id_scores)):
        if np.mean(id_scores >= gamma) >= target:
            best = gamma if best is None else max(best, gamma)
    if best is None:
        best = float(np.min(id_scores))
    return float(np.mean(ood_scores >= best))


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.8], [0.1, 0.2]) == 1.0

    def test_ties_count_half(self):
        assert auroc([0.5], [0.5]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            auroc([], [0.5])

    def test_nan_rejected(self):
        with pytest.raises(InputError):
            auroc([0.5, float("nan")], [0.5])

    @given(id_scores=score_lists, ood_scores=score_lists)
    @example(id_scores=TIED_ID, ood_scores=TIED_OOD)
    @settings(max_examples=100)
    def test_matches_pairwise_oracle(self, id_scores, ood_scores):
        assert auroc(id_scores, ood_scores) == pytest.approx(
            auroc_oracle(id_scores, ood_scores), abs=1e-12
        )

    @given(id_scores=score_lists, ood_scores=score_lists)
    @settings(max_examples=50)
    def test_complement_symmetry(self, id_scores, ood_scores):
        assert auroc(id_scores, ood_scores) + auroc(
            ood_scores, id_scores
        ) == pytest.approx(1.0, abs=1e-12)

    @given(id_scores=score_lists, ood_scores=score_lists)
    @settings(max_examples=50)
    def test_invariant_under_monotone_transform(self, id_scores, ood_scores):
        before = auroc(id_scores, ood_scores)
        transform = lambda xs: [np.expm1(3.0 * x) for x in xs]
        after = auroc(transform(id_scores), transform(ood_scores))
        assert after == pytest.approx(before, abs=1e-12)


class TestFpr95:
    def test_perfect_separation(self):
        assert fpr95([0.9] * 20, [0.1] * 20) == 0.0

    def test_total_overlap(self):
        assert fpr95([0.5] * 20, [0.5] * 20) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            fpr95([0.5], [])

    def test_nan_rejected(self):
        with pytest.raises(InputError):
            fpr95([0.5], [float("nan")])

    @given(id_scores=score_lists, ood_scores=score_lists)
    @example(id_scores=TIED_ID, ood_scores=TIED_OOD)
    @settings(max_examples=100)
    def test_matches_threshold_sweep_oracle(self, id_scores, ood_scores):
        assert fpr95(id_scores, ood_scores) == pytest.approx(
            fpr95_oracle(id_scores, ood_scores), abs=1e-12
        )

    @given(id_scores=score_lists, ood_scores=score_lists, shift=st.floats(0.0, 0.5))
    @settings(max_examples=50)
    def test_monotone_as_ood_scores_decrease(self, id_scores, ood_scores, shift):
        lowered = [x - shift for x in ood_scores]
        assert fpr95(id_scores, lowered) <= fpr95(id_scores, ood_scores)


def _records(scores):
    return [
        ScoreRecord(
            image_id=f"img_{i}",
            s_nl=s,
            s_ens=s,
            s_vsnl=s,
            s_ada=s,
            predicted_class=0,
        )
        for i, s in enumerate(scores)
    ]


class TestExport:
    def test_row_count_and_header(self, tmp_path):
        records = _records([0.1, 0.5, 0.9])
        truth = {"img_0": "OOD", "img_1": "OOD", "img_2": "ID"}
        paths = export_results(records, truth, tmp_path)
        with paths["records"].open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "image_id", "s_nl", "s_ens", "s_vsnl", "s_ada", "predicted_class", "tag",
        ]
        assert len(rows) == 4

    def test_histogram_counts_sum_to_n(self, tmp_path):
        rng = np.random.default_rng(0)
        scores = rng.uniform(0, 1, 57)
        truth = {f"img_{i}": ("ID" if i % 2 else "OOD") for i in range(57)}
        paths = export_results(_records(scores), truth, tmp_path)
        with paths["histogram"].open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50
        assert sum(int(r["count"]) for r in rows) == 57

    def test_reimport_reproduces_metrics(self, tmp_path):
        rng = np.random.default_rng(1)
        scores = np.concatenate(
            [rng.uniform(0.5, 1.0, 30), rng.uniform(0.0, 0.6, 30)]
        )
        truth = {f"img_{i}": ("ID" if i < 30 else "OOD") for i in range(60)}
        paths = export_results(_records(scores), truth, tmp_path)
        records, tags = load_records_csv(paths["records"])
        id_scores = [r.s_ada for r in records if tags[r.image_id] == "ID"]
        ood_scores = [r.s_ada for r in records if tags[r.image_id] == "OOD"]
        report = compute_report(id_scores, ood_scores)
        import json

        exported = json.loads(paths["report"].read_text())
        assert report.auroc == exported["auroc"]
        assert report.fpr95 == exported["fpr95"]

    def test_empty_records_rejected_before_write(self, tmp_path):
        out = tmp_path / "sub"
        with pytest.raises(InputError):
            export_results([], {}, out)
        assert not out.exists()

    def test_missing_truth_rejected_before_write(self, tmp_path):
        out = tmp_path / "sub"
        with pytest.raises(InputError):
            export_results(_records([0.5, 0.6]), {"img_0": "ID"}, out)
        assert not out.exists()
