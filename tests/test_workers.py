"""The chunk workers of `encoder.map_chunks`.

An encoder with `layers >= 2` runs the chunks of one call on `_WORKERS`
threads at once, each cut to the whole `_CHUNK_FLOATS` as in turn, and the
caller adds the chunks' results in chunk order; so the pool must give the same
bits as the same chunks run one after another, whatever the worker count, and
a 1-layer encoder never uses it.
"""
import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

from flowig import attribution, encoder, training
from flowig.errors import NumericError
from flowig.flow_data import BENIGN, DDOS
from flowig.training import TrainConfig, class_weights, train

from conftest import make_batch, make_example, randomize_params, small_config, stack, take


class InTurn:
    """Stands in for the pool: runs each chunk when it is submitted, in the
    calling thread, and counts the chunks."""

    def __init__(self):
        self.submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as e:
            future.set_exception(e)
        return future


def _batch(vocab, schema, n, seed):
    """n labeled rows whose values render to different token lengths."""
    rng = np.random.default_rng(seed)
    rows = [[float(rng.integers(1, 10 ** int(rng.integers(1, 5)))) for _ in range(schema.d)]
            for _ in range(n)]
    return make_batch(vocab, schema, rows, labels=[i % 3 for i in range(n)])


def _record_threads(monkeypatch) -> list:
    """Patch the encoder's forward to record the thread of each call."""
    threads, forward = [], encoder.forward_from_embeddings

    def recording(*args, **kwargs):
        threads.append(threading.current_thread())
        return forward(*args, **kwargs)

    monkeypatch.setattr(encoder, "forward_from_embeddings", recording)
    return threads


def _in_turn_and_on_pool(monkeypatch, workers, run):
    """`run()` with chunks run in turn, then on the pool, at the same `workers`;
    checks that the pool ran each chunk's forward off the calling thread."""
    monkeypatch.setattr(encoder, "_WORKERS", workers)
    pool = encoder._POOL
    in_turn = InTurn()
    monkeypatch.setattr(encoder, "_POOL", in_turn)
    want = run()
    assert in_turn.submitted > workers  # more chunks than run at once
    monkeypatch.setattr(encoder, "_POOL", pool)
    threads = _record_threads(monkeypatch)
    got = run()
    assert sum(t is not threading.current_thread() for t in threads) == in_turn.submitted
    return got, want


@pytest.mark.parametrize("variant", [encoder.ABSOLUTE, encoder.DISENTANGLED])
@pytest.mark.parametrize("workers", [2, 3])
class TestSameBitsAsInTurn:
    def test_batch_grads(self, monkeypatch, workers, variant):
        rng = np.random.default_rng(23)
        cfg = small_config(20, variant, layers=2, dropout_rate=0.2)
        p = randomize_params(encoder.init_params(cfg), rng)
        ids, mask = stack([rng.integers(1, 20, size=n) for n in (7, 10, 9, 12, 5, 11, 8)])
        labels = np.arange(7) % 3
        dropout = encoder.dropout_masks(np.random.default_rng(4), cfg, *ids.shape)
        # 2 rows per call, so the 7 rows take 4
        monkeypatch.setattr(encoder, "_CHUNK_FLOATS", 2 * ids.shape[1] * cfg.d_model)
        (loss, grads), (want_loss, want) = _in_turn_and_on_pool(
            monkeypatch, workers,
            lambda: training._batch_grads(p, cfg, ids, mask, labels, np.array([0.7, 1.1, 1.4]),
                                          dropout))
        assert loss == want_loss
        assert grads.keys() == want.keys()
        for k in want:
            assert np.array_equal(grads[k], want[k]), k

    def test_integrated_gradients(self, monkeypatch, vocab, schema, workers, variant):
        ex = make_example(vocab, schema, [float(100 + 37 * i) for i in range(schema.d)])
        cfg = small_config(vocab.size, variant, max_seq_len=64, layers=2, d_model=16, d_ff=24)
        p = randomize_params(encoder.init_params(cfg), np.random.default_rng(31))
        monkeypatch.setattr(encoder, "_CHUNK_FLOATS", 3 * len(ex.ids) * cfg.d_model)
        got, want = _in_turn_and_on_pool(
            monkeypatch, workers,
            lambda: attribution.integrated_gradients(p, cfg, ex, DDOS,
                                                     attribution.IGConfig(steps=16)))
        assert np.array_equal(got.token_attr, want.token_attr)
        assert got.output_delta == want.output_delta
        assert got.completeness_gap == want.completeness_gap

    def test_evaluate_examples(self, monkeypatch, vocab, schema, workers, variant):
        batch = _batch(vocab, schema, 12, seed=2)
        assert len(set(batch.lengths.tolist())) > 1
        cfg = small_config(vocab.size, variant, max_seq_len=64, layers=2, d_model=16, d_ff=24)
        p = randomize_params(encoder.init_params(cfg), np.random.default_rng(5))
        longest = int(batch.lengths.max())
        monkeypatch.setattr(encoder, "_CHUNK_FLOATS", 2 * longest * cfg.d_model)
        (logits, preds), (want, want_preds) = _in_turn_and_on_pool(
            monkeypatch, workers, lambda: training.evaluate_examples(p, cfg, batch))
        assert np.array_equal(logits, want)
        assert np.array_equal(preds, want_preds)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("budget", [32768, 1500, 100])
def test_every_call_fits_the_whole_budget(vocab, schema, monkeypatch, workers, budget):
    # train (with its validation passes), evaluate_examples and IG on a
    # 2-layer encoder; at 100 float64 no row fits, so each call takes one row.
    # Every call runs on the pool, IG's calls for F(x) and F(x') too, and
    # each is cut to the whole budget
    batch = _batch(vocab, schema, 24, seed=0)
    cfg = small_config(vocab.size, max_seq_len=64, layers=2, d_model=16, d_ff=24,
                       dropout_rate=0.1)
    calls = []
    forward = encoder.forward_from_embeddings

    def recording(params, config, embeddings, *args, **kwargs):
        calls.append((*embeddings.shape, threading.current_thread() is threading.main_thread()))
        return forward(params, config, embeddings, *args, **kwargs)

    monkeypatch.setattr(encoder, "forward_from_embeddings", recording)
    monkeypatch.setattr(encoder, "_CHUNK_FLOATS", budget)
    monkeypatch.setattr(encoder, "_WORKERS", workers)
    params, _ = train(encoder.init_params(cfg), cfg, batch, take(batch, slice(None, None, 3)),
                      class_weights((8, 8, 8)), TrainConfig(epochs=1, batch_size=8))
    training.evaluate_examples(params, cfg, batch)
    for e in map(batch.example, range(2)):
        attribution.integrated_gradients(params, cfg, e, e.label, attribution.IGConfig(steps=6))
    assert calls and not any(main for *_, main in calls)
    assert all(rows * L * D <= max(budget, L * D) for rows, L, D, _ in calls), calls
    if budget == 32768:  # the whole budget takes more than one row at once
        assert max(rows for rows, *_ in calls) > 1


def test_more_workers_than_cores(monkeypatch, vocab, schema):
    # threads switched as often as the interpreter allows; each chunk sleeps
    # a random while, so they finish out of order, and the results must
    # still come back complete and in chunk order, and IG's bits must not move
    workers = (os.cpu_count() or 1) + 2
    cfg = small_config(vocab.size, encoder.DISENTANGLED, max_seq_len=64, layers=2, d_model=16,
                       d_ff=24)
    p = randomize_params(encoder.init_params(cfg), np.random.default_rng(8))
    ex = make_example(vocab, schema, [float(100 + 37 * i) for i in range(schema.d)])
    delays = np.random.default_rng(9).random(200) * 1e-3

    def chunk(part):
        time.sleep(delays[part.start])
        return part.start

    def ig():
        return attribution.integrated_gradients(p, cfg, ex, BENIGN,
                                                attribution.IGConfig(steps=32)).token_attr

    monkeypatch.setattr(encoder, "_WORKERS", workers)
    monkeypatch.setattr(encoder, "_CHUNK_FLOATS", len(ex.ids) * cfg.d_model)
    monkeypatch.setattr(encoder, "_POOL", InTurn())
    want = ig()
    pool = ThreadPoolExecutor(max_workers=workers)
    monkeypatch.setattr(encoder, "_POOL", pool)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = list(encoder.map_chunks(chunk, encoder.row_chunks([len(ex.ids)] * 200,
                                                                cfg.d_model), cfg))
        attr = ig()
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown(wait=True)
    assert got == [(slice(i, i + 1), i) for i in range(200)]
    assert np.array_equal(attr, want)


@pytest.mark.parametrize("workers", [2, 3])
def test_a_failed_chunk_stops_the_rest(monkeypatch, workers):
    # one row per chunk; chunk 0 returns at once, so chunk 2 starts, and
    # chunk 1 fails while chunk 2 is still running
    cfg = small_config(20, layers=2)
    monkeypatch.setattr(encoder, "_CHUNK_FLOATS", cfg.d_model)
    monkeypatch.setattr(encoder, "_WORKERS", workers)
    lock = threading.Lock()
    started, running = [], [0]

    def chunk(part):
        with lock:
            started.append(part.start)
            running[0] += 1
        try:
            if part.start == 0:
                return 0
            time.sleep(0.02 if part.start == 1 else 0.05)
            if part.start == 1:
                raise NumericError("non-finite values produced in encoder layer 0")
            return part.start
        finally:
            with lock:
                running[0] -= 1

    got = []
    with pytest.raises(NumericError, match=r"^non-finite values produced in encoder layer 0$"):
        for part, result in encoder.map_chunks(chunk, encoder.row_chunks([1] * 20, cfg.d_model),
                                               cfg):
            got.append(result)
    assert got == [0]
    assert running[0] == 0  # no chunk of this call still runs
    assert max(started) <= workers  # the window moved past chunk 0 only
    time.sleep(0.1)
    assert max(started) <= workers  # and nothing was left queued


@pytest.mark.parametrize("workers", [1, 2])
def test_any_value_is_a_part(monkeypatch, workers):
    # IG's stream opens with None, its F(x), F(x') job; no part ends the stream
    cfg = small_config(20, layers=2)
    monkeypatch.setattr(encoder, "_WORKERS", workers)
    parts = [None, 0, None, 1, None]
    assert list(encoder.map_chunks(lambda part: part, iter(parts), cfg)) == [(p, p) for p in parts]


def test_one_layer_encoder_runs_in_turn(vocab, schema, monkeypatch):
    # its ops are too small to overlap, so it never submits to the pool
    batch = _batch(vocab, schema, 24, seed=1)
    cfg = small_config(vocab.size, max_seq_len=64, layers=1, d_model=16, d_ff=24,
                       dropout_rate=0.1)
    pool = InTurn()
    monkeypatch.setattr(encoder, "_POOL", pool)
    monkeypatch.setattr(encoder, "_WORKERS", 2)
    monkeypatch.setattr(encoder, "_CHUNK_FLOATS", 4 * 64 * cfg.d_model)
    threads = _record_threads(monkeypatch)
    params, _ = train(encoder.init_params(cfg), cfg, batch, take(batch, slice(None, None, 3)),
                      class_weights((8, 8, 8)), TrainConfig(epochs=1, batch_size=8))
    training.evaluate_examples(params, cfg, batch)
    first = batch.example(0)
    attribution.integrated_gradients(params, cfg, first, first.label,
                                     attribution.IGConfig(steps=64))
    assert pool.submitted == 0
    assert threads and set(threads) == {threading.current_thread()}
    lengths = sorted(batch.lengths.tolist())
    want = list(encoder.row_chunks(lengths, cfg.d_model))
    parts = [part for part, _ in encoder.map_chunks(lambda part: None, iter(want), cfg)]
    assert parts == want


@pytest.mark.parametrize("workers", [2, 3])
def test_peak_memory_stays_at_one_chunk_per_worker(vocab, schema, monkeypatch, workers):
    # each chunk in flight holds at most what one whole-budget chunk holds in
    # turn, and no more than `workers` chunks are in flight
    cfg = small_config(vocab.size, max_seq_len=64, layers=2, d_model=16, d_ff=24)
    params = randomize_params(encoder.init_params(cfg), np.random.default_rng(5))
    values = [float(100 + 37 * i) for i in range(schema.d)]
    one = make_example(vocab, schema, values, label=BENIGN)
    assert 512 * len(one.ids) * cfg.d_model > 8 * encoder._CHUNK_FLOATS

    def peak(n, w):
        monkeypatch.setattr(encoder, "_WORKERS", w)
        batch = make_batch(vocab, schema, [values] * n, labels=[BENIGN] * n)
        tracemalloc.start()
        try:
            training.evaluate_examples(params, cfg, batch)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(64, 1)  # warm-up
    assert peak(512, workers) <= 1.25 * workers * peak(64, 1)


def test_bits_do_not_depend_on_the_worker_count(vocab, schema, monkeypatch):
    # a small 2-layer run, trained with dropout and then explained: every
    # call is cut to the whole budget whatever `_WORKERS` is, so the chunk
    # sums round alike and the parameters and attributions keep their bytes
    batch = _batch(vocab, schema, 40, seed=3)
    cfg = small_config(vocab.size, encoder.DISENTANGLED, max_seq_len=64, layers=2, d_model=16,
                       d_ff=24, dropout_rate=0.1)
    monkeypatch.setattr(encoder, "_CHUNK_FLOATS", 3 * 64 * cfg.d_model)  # 3 or more rows a call

    def run(workers):
        monkeypatch.setattr(encoder, "_WORKERS", workers)
        params, _ = train(encoder.init_params(cfg), cfg, batch, take(batch, slice(None, None, 4)),
                          class_weights((14, 13, 13)), TrainConfig(epochs=2, batch_size=16))
        attrs = [attribution.integrated_gradients(params, cfg, e, e.label,
                                                  attribution.IGConfig(steps=16)).token_attr
                 for e in map(batch.example, range(3))]
        return [params[k].tobytes() for k in sorted(params)] + [a.tobytes() for a in attrs]

    want = run(1)
    for workers in (2, 3):
        assert run(workers) == want, workers


def test_ig_memory_does_not_grow_with_steps(vocab, schema, monkeypatch):
    # each path job returns its rows' gradient sum, so no (steps, n, D)
    # array is built; 4 rows a call, so both runs take more calls than workers
    cfg = small_config(vocab.size, max_seq_len=64, layers=2, d_model=16, d_ff=24)
    p = randomize_params(encoder.init_params(cfg), np.random.default_rng(6))
    ex = make_example(vocab, schema, [float(100 + 37 * i) for i in range(schema.d)])
    monkeypatch.setattr(encoder, "_WORKERS", 2)
    monkeypatch.setattr(encoder, "_CHUNK_FLOATS", 4 * len(ex.ids) * cfg.d_model)

    def peak(steps):
        tracemalloc.start()
        try:
            attribution.integrated_gradients(p, cfg, ex, DDOS,
                                             attribution.IGConfig(steps=steps))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(32)  # warm-up
    assert peak(256) <= 1.25 * peak(32)


@pytest.mark.parametrize("workers", [1, 2])
def test_non_finite_gradient_names_its_step(vocab, schema, monkeypatch, workers):
    # NaN in one row of steps 9 and 13, which fall in different path jobs of
    # 3 rows; the error names the first, whichever job finished first
    steps = 16
    cfg = small_config(vocab.size, max_seq_len=64, layers=2, d_model=16, d_ff=24)
    p = randomize_params(encoder.init_params(cfg), np.random.default_rng(7))
    ex = make_example(vocab, schema, [float(100 + 37 * i) for i in range(schema.d)])
    monkeypatch.setattr(encoder, "_WORKERS", workers)
    monkeypatch.setattr(encoder, "_CHUNK_FLOATS", 3 * len(ex.ids) * cfg.d_model)
    emb = encoder.embed(p, cfg, ex)
    base = attribution.baseline_embeddings(p, cfg)[:len(ex.ids)]
    bad = [base + (step + 0.5) / steps * (emb - base) for step in (13, 9)]
    forward, backward = encoder.forward_from_embeddings, encoder.backward

    def keeping_points(params, config, embeddings, *args, **kwargs):
        logits, trace = forward(params, config, embeddings, *args, **kwargs)
        trace.points = embeddings
        return logits, trace

    def injecting(params, trace, dlogits, *args, **kwargs):
        grads, demb = backward(params, trace, dlogits, *args, **kwargs)
        for row, point in enumerate(trace.points):
            if any(np.array_equal(point, b) for b in bad):
                demb[row, 2, 1] = np.nan
        return grads, demb

    monkeypatch.setattr(encoder, "forward_from_embeddings", keeping_points)
    monkeypatch.setattr(encoder, "backward", injecting)
    with pytest.raises(NumericError, match=r"^non-finite gradient at integration step 9$"):
        attribution.integrated_gradients(p, cfg, ex, DDOS,
                                         attribution.IGConfig(steps=steps))
