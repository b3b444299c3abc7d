"""Acceptance gate: oracle equivalences, exact laws, and pinned regressions.

Each test covers one release criterion and prints a PASS line with the
tolerance it enforces (visible under `pytest -s`). Tolerances:

  - grouped score vs extended-precision oracle: 1e-9 relative
  - single-group score vs direct formula:       1e-12 absolute
  - mining selection / threshold laws:          exact
  - adaptive-weight laws and hand values:       exact / 1e-15
  - metrics vs brute-force oracles:             1e-12 absolute
  - fixed-weight endpoint identities:           bitwise
  - synthetic regression values:                1e-9 absolute (pinned)
  - CLI determinism:                            byte-identical
  - stream causality:                           record equality (exact)
"""
import time

import numpy as np
import pytest

from negtext.metrics import auroc, fpr95
from negtext.mining import MiningConfig, mine_negative_images
from negtext.pipeline import run_stream
from negtext.scoring import (
    ScoreConfig,
    adaptive_lambda,
    fused_score,
    grouped_scores_batch,
)
from negtext.synthetic import (
    SyntheticWorld,
    run_scenario,
    scenario_pipeline_config,
    scenario_world_config,
)

from conftest import make_label_space, make_negative_space, unit_rows
from test_metrics import auroc_oracle, fpr95_oracle
from test_scoring import grouped_score_oracle, softmax_score_oracle


def _passed(line):
    print(f"[PASS] {line}")


def test_score_oracle_equivalence():
    """10,000 random instances, tau in {0.01, 0.1, 1}, 1e-9 relative, <10 s."""
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    checked = 0
    while checked < 10_000:
        block = 200
        n_id = int(rng.integers(1, 8))
        m = int(rng.integers(1, 60))
        g = int(rng.integers(1, 16))
        tau = float(rng.choice([0.01, 0.1, 1.0]))
        ids = make_label_space(n=n_id, dim=8, seed=checked)
        neg = make_negative_space(m=m, dim=8, seed=checked + 1)
        cfg = ScoreConfig(temperature=tau, group_size=g)
        images = unit_rows(rng, block, 8)
        got = grouped_scores_batch(images, ids, neg, cfg)
        for i in range(block):
            expected = grouped_score_oracle(images[i], ids, neg, cfg)
            assert got[i] == pytest.approx(expected, rel=1e-9), (
                f"instance {checked + i}: tau={tau} m={m} g={g}"
            )
        checked += block
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    _passed(
        f"score-oracle equivalence: {checked} instances within 1e-9 rel "
        f"in {elapsed:.1f}s"
    )


def test_single_group_reduction():
    """1,000 instances: one-group engine score equals the direct ratio, 1e-12."""
    rng = np.random.default_rng(1)
    for k in range(1_000):
        n_id = int(rng.integers(1, 6))
        m = int(rng.integers(1, 20))
        ids = make_label_space(n=n_id, dim=8, seed=10_000 + k)
        neg = make_negative_space(m=m, dim=8, seed=20_000 + k)
        v = unit_rows(rng, 1, 8)[0]
        direct = softmax_score_oracle(
            ids.features.data @ v, neg.stored_rows() @ v, 0.01
        )
        got = grouped_scores_batch(
            v[None, :], ids, neg, ScoreConfig(group_size=m)
        )[0]
        assert got == pytest.approx(direct, abs=1e-12)
    _passed("single-group reduction: 1000 instances within 1e-12 abs")


def test_mining_laws():
    """1,000 random vectors: size, threshold maximality, tie order — exact."""
    cfg = MiningConfig()
    mined = mine_negative_images(
        ["a", "b", "c", "d", "e"], [0.95, 0.2, 0.5, 0.1, 0.8], cfg
    )
    assert mined.image_ids == ("d", "b") and mined.gamma_star == 0.2

    rng = np.random.default_rng(2)
    for k in range(1_000):
        n = int(rng.integers(1, 80))
        scores = np.round(rng.uniform(0, 1, n), 2)  # rounding forces ties
        ids = [f"i{j}" for j in range(n)]
        result = mine_negative_images(ids, scores, cfg)
        candidates = np.flatnonzero(scores < cfg.initial_threshold)
        if candidates.size == 0:
            assert result.empty and result.gamma_star is None
            continue
        expected_k = max(1, int(np.floor(cfg.selection_ratio * candidates.size)))
        assert len(result.indices) == expected_k
        selected = scores[list(result.indices)]
        assert result.gamma_star == np.max(selected)
        rest = np.setdiff1d(candidates, np.array(result.indices))
        if rest.size:
            assert result.gamma_star <= np.min(scores[rest])
        # tie determinism: stable order reproduces on a rerun
        assert result == mine_negative_images(ids, scores, cfg)
    _passed("mining laws: worked example + 1000 random vectors, exact")


def test_lambda_laws():
    """Symmetry point, strict monotonicity on a 100x100 grid, hand values."""
    assert adaptive_lambda([0.2], [0.8]) == 0.8
    assert adaptive_lambda([0.9], [0.1]) == pytest.approx(0.1, abs=1e-15)
    grid = np.linspace(0.005, 0.995, 100)
    for a in grid:
        assert adaptive_lambda([a], [a]) == 0.5
    table = np.array(
        [[adaptive_lambda([a], [b]) for b in grid] for a in grid]
    )
    assert np.all(np.diff(table, axis=0) < 0), "not strictly decreasing in a"
    assert np.all(np.diff(table, axis=1) > 0), "not strictly increasing in b"
    _passed("lambda laws: hand values exact, strict monotonicity on 100x100 grid")


def test_metric_oracle_equivalence():
    """1,000 random instances up to 500+500 scores, 1e-12 absolute."""
    rng = np.random.default_rng(3)
    for k in range(1_000):
        n_id = int(rng.integers(1, 501))
        n_ood = int(rng.integers(1, 501))
        # quantized draws produce heavy ties, stressing both conventions
        id_scores = np.round(rng.uniform(0, 1, n_id), 2)
        ood_scores = np.round(rng.uniform(0, 1, n_ood), 2)
        got_a = auroc(id_scores, ood_scores)
        want_a = float(
            np.mean(
                (id_scores[:, None] > ood_scores[None, :])
                + 0.5 * (id_scores[:, None] == ood_scores[None, :])
            )
        )
        assert got_a == pytest.approx(want_a, abs=1e-12)
        assert fpr95(id_scores, ood_scores) == pytest.approx(
            fpr95_oracle(id_scores, ood_scores), abs=1e-12
        )
    # spot-check the quadratic reference implementations agree too
    assert auroc_oracle([0.5, 0.7], [0.5]) == 0.75
    _passed("metric-oracle equivalence: 1000 instances within 1e-12 abs")


def test_endpoint_identities():
    """Fixed weight 1 (resp. 0) reproduces the sentence (resp. label) score bitwise."""
    world = SyntheticWorld(scenario_world_config("mixed", seed=42))
    batches = world.make_batches(3, 150, 150)
    records, _ = run_stream(
        batches, world.label_space, world.corpus, world.oracle_client(),
        scenario_pipeline_config(), seed=42,
    )
    assert records and all(
        fused_score(r.s_ens, r.s_vsnl, 1.0) == r.s_ens
        and fused_score(r.s_ens, r.s_vsnl, 0.0) == r.s_vsnl
        for r in records
    )
    _passed("endpoint identities: fixed weight 0/1 bitwise across a full stream")


# Pinned on the first green run of the 5x(400+400) seed-42 regression;
# any drift beyond 1e-9 means the numeric path changed and must be
# re-justified, not re-pinned casually.
PINNED = {
    "far": {
        "base": (0.63451349999999995, 0.72999999999999998),
        "adapted": (1.0, 0.0),
        "lambda_final": 0.76927823691040109,
    },
    "near": {
        "base": (0.70289637500000002, 0.73650000000000004),
        "adapted": (0.99965974999999996, 0.0),
        "lambda_final": 0.3238242611603549,
    },
    "mixed": {
        "base": (0.97721349999999996, 0.23799999999999999),
        "adapted": (0.98685774999999998, 0.0),
        "lambda_final": 0.49514391099930088,
    },
}


def test_synthetic_ablation_regression():
    """Seed 42, 2,000 ID / 2,000 OOD per world; directional gains + pinned values."""
    start = time.perf_counter()
    results = {
        name: run_scenario(
            name, n_batches=5, id_per_batch=400, ood_per_batch=400, seed=42
        )
        for name in ("far", "near", "mixed")
    }
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"regression took {elapsed:.1f}s"

    far, near, mixed = results["far"], results["near"], results["mixed"]
    # (a) far world: adaptive AUROC beats the frozen baseline by >= 0.02
    assert far.adapted.auroc - far.baseline.auroc >= 0.02
    # (b) near world: adaptive FPR95 beats the frozen baseline by >= 0.05
    assert near.baseline.fpr95 - near.adapted.fpr95 >= 0.05
    # (c) weight direction after epoch 2
    assert all(lam > 0.6 for lam in far.lambda_history[2:])
    assert all(lam < 0.4 for lam in near.lambda_history[2:])
    assert all(0.3 < lam < 0.7 for lam in mixed.lambda_history[2:])

    for name, result in results.items():
        pin = PINNED[name]
        assert result.baseline.auroc == pytest.approx(pin["base"][0], abs=1e-9)
        assert result.baseline.fpr95 == pytest.approx(pin["base"][1], abs=1e-9)
        assert result.adapted.auroc == pytest.approx(pin["adapted"][0], abs=1e-9)
        assert result.adapted.fpr95 == pytest.approx(pin["adapted"][1], abs=1e-9)
        assert result.lambda_history[-1] == pytest.approx(
            pin["lambda_final"], abs=1e-9
        )
    _passed(
        "synthetic regression: far dAUROC "
        f"{far.adapted.auroc - far.baseline.auroc:+.4f}, near dFPR95 "
        f"{near.adapted.fpr95 - near.baseline.fpr95:+.4f}, weights "
        f"{far.lambda_history[-1]:.2f}/{near.lambda_history[-1]:.2f}/"
        f"{mixed.lambda_history[-1]:.2f}, pinned within 1e-9, {elapsed:.1f}s"
    )


def test_run_determinism(tmp_path):
    """Identical manifest + seed + fixtures give byte-identical outputs."""
    from negtext.cli import main

    world_dir = tmp_path / "world"
    assert main(
        [
            "synth-world", "near", "-o", str(world_dir), "--seed", "42",
            "--batches", "2", "--id-per-batch", "120", "--ood-per-batch", "120",
        ]
    ) == 0
    fixtures = tmp_path / "fx"
    manifest = str(world_dir / "manifest.json")
    assert main(
        ["fixtures", "record", manifest, "--fixtures", str(fixtures),
         "--out", str(tmp_path / "seed")]
    ) == 0
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(
            ["fixtures", "replay", manifest, "--fixtures", str(fixtures),
             "--out", str(out)]
        ) == 0
        outputs.append(out)
    names = ["records.csv", "report.json", "histogram.csv", "checkpoint.nckp"]
    for name in names:
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
    _passed(f"determinism: replayed runs byte-identical across {names}")


def test_stream_causality():
    """Records of the first t batches do not depend on later batches."""
    def run_prefix(n_batches):
        world = SyntheticWorld(scenario_world_config("mixed", seed=42))
        batches = world.make_batches(4, 100, 100)[:n_batches]
        records, _ = run_stream(
            batches, world.label_space, world.corpus, world.oracle_client(),
            scenario_pipeline_config(), seed=42,
        )
        return records

    full = run_prefix(4)
    for t in (1, 2, 3):
        prefix = run_prefix(t)
        assert full[: len(prefix)] == prefix
    _passed("causality: prefixes of a 4-batch stream reproduce exactly")
