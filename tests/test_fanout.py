"""Describe requests of one ENS build run concurrently: the same requests,
the same sentences in the same order, at most `DESCRIBE_WORKERS` in flight.
A batch regenerates its two spaces in two lanes that overlap, with one
embedding request in flight, the lookalike space's first; each layer
degrades on its own, and a program fault in either lane ends the stream."""
import sys
import threading
import time
from collections import Counter

import pytest

from negtext import pipeline, spaces
from negtext.errors import GenerationError
from negtext.mining import MinedNegatives
from negtext.pipeline import (
    init_stream,
    load_checkpoint,
    process_batch,
    run_stream,
    save_checkpoint,
)
from negtext.synthetic import (
    SyntheticWorld,
    scenario_pipeline_config,
    scenario_world_config,
)

from conftest import ScriptedClient, make_label_space


DESCRIBE_WAVE = spaces._describe_wave
GENERATE_ENS = pipeline.generate_ens


def _mixed_world():
    return SyntheticWorld(scenario_world_config("mixed", seed=42))


class Forwarding:
    """Forwards every call to `inner`."""

    def __init__(self, inner):
        self.inner = inner

    def describe_image(self, image_ref, exclude_label):
        return self.inner.describe_image(image_ref, exclude_label)

    def similar_labels(self, class_name, count):
        return self.inner.similar_labels(class_name, count)

    def embed_texts(self, texts):
        return self.inner.embed_texts(texts)


class WaveLog(Forwarding):
    """Forwards to `inner`; counts describe calls per wave under a lock,
    after sleeping `delay` seconds in each."""

    def __init__(self, inner, delay=0.0):
        super().__init__(inner)
        self.delay = delay
        self.lock = threading.Lock()
        self.waves: list[Counter] = []

    def describe_image(self, image_ref, exclude_label):
        if self.delay:
            time.sleep(self.delay)
        with self.lock:
            self.waves[-1][(image_ref, exclude_label)] += 1
        return super().describe_image(image_ref, exclude_label)


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
    world = _mixed_world()
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
    `error` while `armed`; records the thread of each raising call."""

    def __init__(self, inner, method, error):
        self.inner, self.method, self.error = inner, method, error
        self.armed = True
        self.threads: list[threading.Thread] = []

    def _answer(self, method, *args):
        if method == self.method and self.armed:
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
    world = _mixed_world()
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


class Meeting(Forwarding):
    """The first describe call and the first `similar_labels` call wait for
    each other at a barrier: unless the two lanes overlap, the wait times
    out, the call fails and the batch degrades."""

    def __init__(self, inner):
        super().__init__(inner)
        self.barrier = threading.Barrier(2, timeout=10)
        self.lock = threading.Lock()
        self.arrived: set[str] = set()
        self.met = False

    def _meet(self, call):
        with self.lock:
            first = call not in self.arrived
            self.arrived.add(call)
        if first:
            self.barrier.wait()
            self.met = True

    def describe_image(self, image_ref, exclude_label):
        self._meet("describe")
        return super().describe_image(image_ref, exclude_label)

    def similar_labels(self, class_name, count):
        self._meet("similar")
        return super().similar_labels(class_name, count)


def test_the_two_lanes_overlap():
    world = _mixed_world()
    client = Meeting(world.oracle_client())
    _, state = run_stream(
        world.make_batches(2, 100, 100), world.label_space, world.corpus,
        client, scenario_pipeline_config(), seed=42,
    )
    assert client.met and not state.degraded


class EmbedLog(Forwarding):
    """Logs the layer of each embedding request and counts the requests in
    flight. Lookalike requests are slow, so a sentence embedding that did
    not wait for the lookalike space would come first."""

    def __init__(self, inner, template):
        super().__init__(inner)
        self.prefix = template.split("<label>")[0]
        self.lock = threading.Lock()
        self.now = self.peak = 0
        self.layers: list[str] = []

    def similar_labels(self, class_name, count):
        time.sleep(0.01)
        return super().similar_labels(class_name, count)

    def embed_texts(self, texts):
        with self.lock:
            self.now += 1
            self.peak = max(self.peak, self.now)
        try:
            time.sleep(0.02)  # long enough for a second request to overlap
            lookalike = all(t.startswith(self.prefix) for t in texts)
            self.layers.append("lookalike" if lookalike else "sentence")
            return super().embed_texts(texts)
        finally:
            with self.lock:
                self.now -= 1


def test_one_embedding_request_in_flight_the_lookalike_one_first():
    world = _mixed_world()
    client = EmbedLog(world.oracle_client(), world.label_space.prompt_template)
    state = init_stream(
        world.label_space, world.corpus, scenario_pipeline_config(), seed=42
    )
    per_batch = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to shake out races
    try:
        for batch in world.make_batches(3, 100, 100):
            seen = len(client.layers)
            process_batch(state, batch, client)
            per_batch.append(client.layers[seen:])
    finally:
        sys.setswitchinterval(interval)
    assert not state.degraded and client.peak == 1
    assert per_batch == [["lookalike", "sentence"]] * 3


@pytest.mark.parametrize(
    "method, kept, fresh",
    [
        ("describe_image", "ens_space", "vsnl_space"),
        ("similar_labels", "vsnl_space", "ens_space"),
    ],
)
def test_a_failing_layer_keeps_its_space_and_the_other_regenerates(
    method, kept, fresh
):
    world = _mixed_world()
    client = Raising(world.oracle_client(), method, RuntimeError)
    client.armed = False
    state = init_stream(
        world.label_space, world.corpus, scenario_pipeline_config(), seed=42
    )
    first, second = world.make_batches(2, 100, 100)
    process_batch(state, first, client)
    assert not state.degraded
    assert state.ens_space is not state.nl_space
    assert state.vsnl_space is not state.nl_space
    before = {name: getattr(state, name) for name in (kept, fresh)}
    client.armed = True
    process_batch(state, second, client)
    assert client.threads and state.degraded
    assert getattr(state, kept) is before[kept]
    assert getattr(state, fresh) is not before[fresh]
    assert state.lambda_history[1] == state.lambda_history[0]


def _lane_fault(monkeypatch, lane) -> list[bool]:
    """Makes `lane` raise a RuntimeError: the lookalike lane before its
    space is swapped in, the sentence lane once it may embed. Returns a
    list that gets, for each time the sentence lane waits to embed, whether
    the wait ended within a timeout."""
    released = []

    def generate_ens(*args, before_embed, **kwargs):
        def bounded():
            # a daemon thread waits, so a wait that never ends fails the
            # test instead of hanging it at exit
            waiter = threading.Thread(target=before_embed, daemon=True)
            waiter.start()
            waiter.join(timeout=20)
            released.append(not waiter.is_alive())
            if lane == "sentence":
                raise RuntimeError("sentence lane fault")

        return GENERATE_ENS(*args, before_embed=bounded, **kwargs)

    def generate_vsnl(*_args):
        raise RuntimeError("lookalike lane fault")

    monkeypatch.setattr(pipeline, "generate_ens", generate_ens)
    if lane == "lookalike":
        monkeypatch.setattr(pipeline, "generate_vsnl", generate_vsnl)
    return released


@pytest.mark.parametrize("lane", ["lookalike", "sentence"])
def test_a_program_fault_in_either_lane_ends_the_stream(monkeypatch, lane):
    world = _mixed_world()
    state = init_stream(
        world.label_space, world.corpus, scenario_pipeline_config(), seed=42
    )
    (batch,) = world.make_batches(1, 100, 100)
    released = _lane_fault(monkeypatch, lane)
    before = set(threading.enumerate())
    raised = []

    def run():
        try:
            process_batch(state, batch, world.oracle_client())
        except Exception as exc:
            raised.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive() and released == [True], "a lane waits forever"
    assert len(raised) == 1 and isinstance(raised[0], RuntimeError)
    assert str(raised[0]) == f"{lane} lane fault"
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("method", ["describe_image", "similar_labels"])
def test_resume_is_exact_across_a_batch_where_one_layer_degraded(tmp_path, method):
    world = _mixed_world()
    batches = world.make_batches(4, 100, 100)
    degraded_batch = 2

    def stream(state, start, save):
        client = Raising(world.oracle_client(), method, RuntimeError)
        records = []
        for k in range(start, len(batches)):
            client.armed = k == degraded_batch
            records.append(process_batch(state, batches[k], client))
            if save:
                save_checkpoint(state, tmp_path / f"after_{k}.nckp")
        return records

    state = init_stream(
        world.label_space, world.corpus, scenario_pipeline_config(), seed=42
    )
    records = stream(state, 0, save=True)
    assert state.degraded
    # resumed before and after the degraded batch
    for split in (degraded_batch, degraded_batch + 1):
        resumed = load_checkpoint(
            tmp_path / f"after_{split - 1}.nckp", world.label_space, world.corpus
        )
        assert stream(resumed, split, save=False) == records[split:], split
        assert resumed.lambda_history == state.lambda_history
        assert resumed.degraded
