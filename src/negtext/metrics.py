"""Detection metrics and result export.

AUROC is the probability that a random ID score exceeds a random OOD
score (ties count one half). FPR95 takes the largest attained ID score
that keeps the ID true-positive rate at or above 95% as the threshold
and reports the OOD fraction at or above it. Both sort once and count
with `searchsorted`, so they run in O(n log n).
"""
from __future__ import annotations

import csv
import json
from collections.abc import Iterator
from contextlib import closing
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import InputError
from .scoring import ScoreRecord

HISTOGRAM_BINS = 50
SCORE_FMT = "%.9g"  # 9 significant digits in every CSV
TPR_TARGET = 0.95


@dataclass(frozen=True)
class MetricReport:
    auroc: float
    fpr95: float
    n_id: int
    n_ood: int

    def to_dict(self) -> dict:
        return asdict(self)


def _score_pair(id_scores, ood_scores) -> tuple[np.ndarray, np.ndarray]:
    id_scores = np.asarray(id_scores, dtype=np.float64)
    ood_scores = np.asarray(ood_scores, dtype=np.float64)
    if id_scores.size == 0 or ood_scores.size == 0:
        raise InputError("both ID and OOD scores are required")
    if np.isnan(id_scores).any() or np.isnan(ood_scores).any():
        raise InputError("scores must not be NaN")
    return id_scores, ood_scores


def auroc(id_scores, ood_scores) -> float:
    id_scores, ood_scores = _score_pair(id_scores, ood_scores)
    ood_sorted = np.sort(ood_scores)
    below = np.searchsorted(ood_sorted, id_scores, side="left")
    at_or_below = np.searchsorted(ood_sorted, id_scores, side="right")
    # Mann-Whitney U = #(OOD < id) + 1/2 #(OOD == id), summed exactly in integers
    u = int(np.sum(below) + np.sum(at_or_below)) / 2.0
    return u / (id_scores.size * ood_scores.size)


def fpr95(id_scores, ood_scores) -> float:
    id_scores, ood_scores = _score_pair(id_scores, ood_scores)
    # largest attained threshold with TPR(gamma) >= TPR_TARGET; no interpolation
    candidates = np.unique(id_scores)  # ascending, so TPR falls along it
    n = id_scores.size
    at_or_above = n - np.searchsorted(np.sort(id_scores), candidates, side="left")
    passing = np.flatnonzero(at_or_above / n >= TPR_TARGET)
    gamma = candidates[passing[-1]] if passing.size else candidates[0]
    return float(np.count_nonzero(ood_scores >= gamma) / ood_scores.size)


def compute_report(id_scores, ood_scores) -> MetricReport:
    return MetricReport(
        auroc=auroc(id_scores, ood_scores),
        fpr95=fpr95(id_scores, ood_scores),
        n_id=len(id_scores),
        n_ood=len(ood_scores),
    )


def _fmt(x: float) -> str:
    return SCORE_FMT % x


def split_scores(
    records: list[ScoreRecord], truth: dict[str, str], quantized: bool = False
) -> tuple[list[float], list[float]]:
    """The s_ada of the ID-tagged and of the OOD-tagged records, in order.

    `quantized` first rounds each score to the digits a records CSV
    stores, so the metrics equal an eval of the exported file.
    """
    missing = [r.image_id for r in records if r.image_id not in truth]
    if missing:
        raise InputError(f"records without ground truth: {missing[:10]}")
    id_scores: list[float] = []
    ood_scores: list[float] = []
    for r in records:
        score = float(_fmt(r.s_ada)) if quantized else r.s_ada
        tag = checked_tag(f"ground truth of {r.image_id!r}", truth[r.image_id])
        (id_scores if tag == "ID" else ood_scores).append(score)
    return id_scores, ood_scores


RECORD_COLUMNS = ("image_id", "s_nl", "s_ens", "s_vsnl", "s_ada", "predicted_class")


def checked_tag(where: str, tag) -> str:
    """`tag` if it is ID or OOD; else an InputError naming `where` it came
    from (a file and line, or an image's ground truth)."""
    if tag not in ("ID", "OOD"):
        raise InputError(f"{where}: tag {tag!r} is neither ID nor OOD")
    return tag


def export_results(
    records: list[ScoreRecord],
    ground_truth: dict[str, str],
    out_dir,
) -> dict[str, Path]:
    """Write records CSV, histogram CSV, and a JSON metric report.

    An empty `ground_truth` leaves the tag column empty and writes no
    report; truth that misses some records is rejected. The report is
    computed from the serialized (9-significant-digit) score values so
    that re-importing the CSV reproduces it exactly.
    """
    if not records:
        raise InputError("no records to export")
    if ground_truth:
        id_scores, ood_scores = split_scores(records, ground_truth, quantized=True)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    records_path = out_dir / "records.csv"
    with records_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*RECORD_COLUMNS, "tag"])
        for r in records:
            writer.writerow(
                [
                    r.image_id,
                    _fmt(r.s_nl),
                    _fmt(r.s_ens),
                    _fmt(r.s_vsnl),
                    _fmt(r.s_ada),
                    r.predicted_class,
                    ground_truth.get(r.image_id, ""),
                ]
            )

    s_ada = np.array([float(_fmt(r.s_ada)) for r in records])
    counts, edges = np.histogram(s_ada, bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    hist_path = out_dir / "histogram.csv"
    with hist_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_left", "bin_right", "count"])
        for i, count in enumerate(counts):
            writer.writerow([_fmt(edges[i]), _fmt(edges[i + 1]), int(count)])

    out = {"records": records_path, "histogram": hist_path}
    if ground_truth and id_scores and ood_scores:
        report = compute_report(id_scores, ood_scores)
        report_path = out_dir / "report.json"
        report_path.write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True),
            encoding="utf-8",
        )
        out["report"] = report_path
    return out


def read_csv_rows(path, columns) -> Iterator[dict[str, str]]:
    """Rows of a headed UTF-8 CSV, yielded as they are read, once the header
    is found to name every one of `columns`. The file stays open until the
    rows run out, one fails, or the generator is closed: a reader that may
    stop early closes it (`contextlib.closing`)."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            missing = [c for c in columns if c not in (reader.fieldnames or ())]
            if missing:
                raise InputError(f"{path}: missing column(s) {', '.join(missing)}")
            yield from reader
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc})") from exc
        except csv.Error as exc:  # e.g. a field over the csv module's limit
            # the DictReader's own line_num stops at the last row it returned
            raise InputError(f"{path}, line {reader.reader.line_num}: {exc}") from exc


def load_records_csv(path) -> tuple[list[ScoreRecord], dict[str, str]]:
    records: list[ScoreRecord] = []
    tags: dict[str, str] = {}
    with closing(read_csv_rows(path, RECORD_COLUMNS)) as rows:
        for line, row in enumerate(rows, start=2):
            try:
                records.append(
                    ScoreRecord(
                        image_id=row["image_id"],
                        s_nl=float(row["s_nl"]),
                        s_ens=float(row["s_ens"]),
                        s_vsnl=float(row["s_vsnl"]),
                        s_ada=float(row["s_ada"]),
                        predicted_class=int(row["predicted_class"]),
                    )
                )
            except (TypeError, ValueError) as exc:  # short row or non-numeric cell
                raise InputError(f"{path}, line {line}: {exc}") from exc
            if row.get("tag"):
                where, image_id = f"{path}, line {line}", row["image_id"]
                tag = checked_tag(where, row["tag"])
                # two batch files may share an image, but not tag it two ways
                if tags.setdefault(image_id, tag) != tag:
                    raise InputError(
                        f"{where}: image {image_id!r} is tagged {tag} here "
                        f"but {tags[image_id]} on an earlier line"
                    )
    return records, tags
