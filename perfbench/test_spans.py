"""Tests of the span arithmetic and the wrappers of the traced run.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_spans.py
"""
import pytest

from spans import Patches, Tracer, self_times, span_cost, summarize


def test_self_time_subtracts_sequential_children():
    spans = [
        ("parent", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("b", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == pytest.approx([7.0, 2.0, 1.0])


def test_overlapping_children_are_counted_once():
    spans = [
        ("parent", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),
        ("c", 6.0, 7.0, 0),  # touches b: merged into one covered stretch
    ]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_children_are_clipped_to_the_parent():
    spans = [("parent", 2.0, 5.0, -1), ("late", 4.0, 9.0, 0), ("early", 0.0, 3.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_grandchildren_only_reduce_their_own_parent():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("child", 2.0, 8.0, 0),
        ("grandchild", 3.0, 5.0, 1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 4.0, 2.0])


def test_summary_adds_calls_and_times_per_name():
    spans = [
        ("batch", 0.0, 4.0, -1),
        ("client", 1.0, 2.0, 0),
        ("batch", 4.0, 6.0, -1),
        ("client", 4.5, 5.0, 2),
    ]
    table = summarize(spans)
    assert table["batch"] == pytest.approx({"calls": 2, "total_s": 6.0, "self_s": 4.5})
    assert table["client"] == pytest.approx({"calls": 2, "total_s": 1.5, "self_s": 1.5})


def test_tracer_records_parents_in_call_order():
    tracer = Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    (n0, s0, e0, p0), (n1, s1, e1, p1) = tracer.spans()
    assert (n0, p0, n1, p1) == ("outer", -1, "inner", 0)
    assert s0 <= s1 <= e1 <= e0


def test_span_cost_is_a_small_positive_time():
    cost = span_cost(calls=2_000, repeats=3)
    assert 0.0 < cost < 1e-3


def test_traced_stream_equals_untraced_and_restore_undoes_every_patch():
    import negtext.pipeline
    from negtext.synthetic import (
        SyntheticWorld, scenario_pipeline_config, scenario_world_config,
    )

    from layers import install

    def stream():
        world = SyntheticWorld(scenario_world_config("mixed", seed=42))
        batches = world.make_batches(2, 100, 100)
        return negtext.pipeline.run_stream(
            batches, world.label_space, world.corpus, world.oracle_client(),
            scenario_pipeline_config(), seed=42,
        )[0]

    original = negtext.pipeline.grouped_scores_batch
    plain = stream()
    tracer = Tracer()
    patches = install(tracer)
    try:
        assert negtext.pipeline.grouped_scores_batch is not original
        traced = stream()
    finally:
        patches.restore()
    assert negtext.pipeline.grouped_scores_batch is original
    assert traced == plain
    names = {name for name, *_ in tracer.spans()}
    assert {"pipeline.init", "pipeline.process_batch", "scoring.nl_cache",
            "scoring.batch", "spaces.ens", "mining.append"} <= names


def test_patches_only_touch_program_modules():
    import types
    import sys

    import negtext.scoring

    original = negtext.scoring.grouped_scores_batch
    outside = types.ModuleType("not_the_program")
    outside.grouped_scores_batch = original
    sys.modules["not_the_program"] = outside
    patches = Patches()
    try:
        patches.function(Tracer(), "negtext.scoring", "grouped_scores_batch", "x")
        assert outside.grouped_scores_batch is original
        assert negtext.scoring.grouped_scores_batch is not original
    finally:
        patches.restore()
        del sys.modules["not_the_program"]
    assert negtext.scoring.grouped_scores_batch is original
