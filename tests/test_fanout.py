"""Describe requests of one ENS build run concurrently: the same requests,
the same sentences in the same order, at most `DESCRIBE_WORKERS` in flight."""
import sys
import threading
import time
from collections import Counter

import pytest

from negtext import pipeline, spaces
from negtext.errors import GenerationError
from negtext.mining import MinedNegatives
from negtext.pipeline import run_stream
from negtext.synthetic import (
    SyntheticWorld,
    scenario_pipeline_config,
    scenario_world_config,
)

from conftest import ScriptedClient, make_label_space


DESCRIBE_WAVE = spaces._describe_wave
GENERATE_ENS = pipeline.generate_ens


class WaveLog:
    """Forwards to `inner`; counts describe calls per wave under a lock,
    after sleeping `delay` seconds in each."""

    def __init__(self, inner, delay=0.0):
        self.inner = inner
        self.delay = delay
        self.lock = threading.Lock()
        self.waves: list[Counter] = []

    def describe_image(self, image_ref, exclude_label):
        if self.delay:
            time.sleep(self.delay)
        with self.lock:
            self.waves[-1][(image_ref, exclude_label)] += 1
        return self.inner.describe_image(image_ref, exclude_label)

    def similar_labels(self, class_name, count):
        return self.inner.similar_labels(class_name, count)

    def embed_texts(self, texts):
        return self.inner.embed_texts(texts)


def _mixed_stream(monkeypatch, workers, delay):
    """The mixed world's stream with `workers` describe threads; returns its
    records, each ENS build's sentences and each wave's describe calls."""
    monkeypatch.setattr(spaces, "DESCRIBE_WORKERS", workers)

    def marked(pool, client, *args):
        client.waves.append(Counter())
        return DESCRIBE_WAVE(pool, client, *args)

    monkeypatch.setattr(spaces, "_describe_wave", marked)
    built = []

    def kept(*args, **kwargs):
        space = GENERATE_ENS(*args, **kwargs)
        built.append(space.texts)
        return space

    monkeypatch.setattr(pipeline, "generate_ens", kept)
    world = SyntheticWorld(scenario_world_config("mixed", seed=42))
    client = WaveLog(world.oracle_client(), delay)
    records, state = run_stream(
        world.make_batches(3, 150, 150), world.label_space, world.corpus,
        client, scenario_pipeline_config(), seed=42,
    )
    assert not state.degraded
    return records, built, client.waves


@pytest.mark.parametrize("delay", [0.0, 0.001], ids=["in-process", "latency"])
def test_same_calls_and_sentences_as_one_worker(monkeypatch, delay):
    assert spaces.DESCRIBE_WORKERS > 1
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to shake out races
    try:
        many = _mixed_stream(monkeypatch, spaces.DESCRIBE_WORKERS, delay)
    finally:
        sys.setswitchinterval(interval)
    one = _mixed_stream(monkeypatch, 1, delay)
    records, built, waves = many
    assert len(built) >= 2 and sum(map(sum, (w.values() for w in waves))) > 0
    # each build's waves hold the same calls, so each pass does too
    assert waves == one[2]
    assert built == one[1]
    assert records == one[0]


class InFlight(ScriptedClient):
    """Counts describe calls in flight under a lock; every call waits at a
    barrier of `parties`, so `parties` calls must overlap or it times out."""

    def __init__(self, parties, fail=None, **kwargs):
        super().__init__(**kwargs)
        self.fail = fail
        self.barrier = threading.Barrier(parties)
        self.lock = threading.Lock()
        self.now = self.peak = self.started = 0

    def describe_image(self, image_ref, exclude_label):
        with self.lock:
            self.started += 1
            self.now += 1
            self.peak = max(self.peak, self.now)
        try:
            self.barrier.wait(timeout=10)
            if image_ref == self.fail:
                raise GenerationError("model down", image_id=image_ref)
            # long enough for the failure to stop the other workers first
            time.sleep(0.05 if self.fail else 0.0)
            return super().describe_image(image_ref, exclude_label)
        finally:
            with self.lock:
                self.now -= 1


def _sources(n):
    ids = [f"i{k}" for k in range(n)]
    mined = MinedNegatives(image_ids=tuple(ids), indices=tuple(range(n)), gamma_star=0.5)
    descriptions = {i: [f"thing number {i} here"] for i in ids}
    return ids, mined, descriptions, {i: "label_0" for i in ids}


def test_in_flight_calls_reach_the_worker_count():
    workers = spaces.DESCRIBE_WORKERS
    assert workers > 1
    # two requests per worker, so every call meets a full barrier
    ids, mined, descriptions, labels = _sources(2 * workers)
    client = InFlight(workers, dim=4, descriptions=descriptions)
    space = spaces.generate_ens(
        mined, labels, make_label_space(n=1, dim=4, seed=0), client,
        2 * workers, seed=0,
    )
    assert client.peak == workers
    assert client.started == 2 * workers
    assert space.texts == tuple(f"thing number {i} here" for i in ids)


def test_no_request_starts_after_a_failure():
    workers = spaces.DESCRIBE_WORKERS
    ids, mined, descriptions, labels = _sources(2 * workers)
    # the first request of the second chunk fails while the other first
    # requests are in flight; no second request may start
    client = InFlight(workers, fail=ids[2], dim=4, descriptions=descriptions)
    with pytest.raises(GenerationError, match="model down"):
        spaces.generate_ens(
            mined, labels, make_label_space(n=1, dim=4, seed=0), client,
            2 * workers, seed=0,
        )
    assert client.started == workers
    assert client.now == 0


class Raising:
    """Forwards to `inner`, except that every call of `method` raises
    `error`; records the thread of each raising call."""

    def __init__(self, inner, method, error):
        self.inner, self.method, self.error = inner, method, error
        self.threads: list[threading.Thread] = []

    def _answer(self, method, *args):
        if method == self.method:
            self.threads.append(threading.current_thread())
            raise self.error(f"{method} failed")
        return getattr(self.inner, method)(*args)

    def describe_image(self, image_ref, exclude_label):
        return self._answer("describe_image", image_ref, exclude_label)

    def similar_labels(self, class_name, count):
        return self._answer("similar_labels", class_name, count)

    def embed_texts(self, texts):
        return self._answer("embed_texts", texts)


@pytest.mark.parametrize(
    "method, error",
    [
        ("similar_labels", KeyError),
        ("embed_texts", ValueError),
        ("describe_image", RuntimeError),
    ],
)
def test_any_client_exception_degrades_the_batch(method, error):
    world = SyntheticWorld(scenario_world_config("mixed", seed=42))
    client = Raising(world.oracle_client(), method, error)
    batches = world.make_batches(2, 50, 50)
    records, state = run_stream(
        batches, world.label_space, world.corpus, client,
        scenario_pipeline_config(), seed=42,
    )
    assert client.threads and state.degraded
    if method == "describe_image":  # raised in a fan-out worker
        assert threading.main_thread() not in client.threads
    assert [r.image_id for r in records] == [
        image_id for batch in batches for image_id in batch.images.ids
    ]
    assert all(0.0 <= r.s_ada <= 1.0 for r in records)
