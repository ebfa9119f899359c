import dataclasses
import math
import os
import sys
import threading

import mpmath as mp
import numpy as np
import pytest

import oracles
from dqpskber import McConfig, McResult, SnrPoint, exact_ber, montecarlo, simulate


def _config(**kwargs) -> McConfig:
    defaults = dict(snr=SnrPoint.from_db(3.0), num_symbols=10**5, seed=42)
    defaults.update(kwargs)
    return McConfig(**defaults)


class TestConfigValidation:
    def test_rejects_small_runs(self):
        with pytest.raises(ValueError):
            _config(num_symbols=999)

    def test_rejects_bad_confidence(self):
        # nextafter(1, 0) is below 1, but its quantile level 0.5 + 0.5 c rounds to 1
        for c in (0.0, 1.0, -0.5, 1.5, math.nan, "0.9", None, 0.9j, math.nextafter(1.0, 0.0)):
            with pytest.raises(ValueError, match="confidence must be a real number in"):
                _config(confidence=c)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            _config(seed=-1)

    def test_integer_fields(self):
        for kwargs in (dict(num_symbols=1e7), dict(num_symbols="100000"), dict(seed=1.5)):
            with pytest.raises(ValueError, match="must be an integer"):
                _config(**kwargs)
        numpy_ints = _config(num_symbols=np.int64(10**4), seed=np.int64(3))
        assert numpy_ints == _config(num_symbols=10**4, seed=3)
        assert type(numpy_ints.num_symbols) is int and type(numpy_ints.seed) is int
        assert simulate(numpy_ints) == simulate(_config(num_symbols=10**4, seed=3))

    def test_rejects_vanishing_snr(self):
        # the floor is the library's, not only the CLI's: below it the noise
        # overflows the detector's products and decisions compare NaNs
        for g in (1e-310, 1e-13):
            with pytest.raises(ValueError, match="not vanishingly small"):
                McConfig(SnrPoint.from_linear(g), 1000, 0)
        # at the floor it runs, with no RuntimeWarning (an error under pytest's filterwarnings)
        result = simulate(McConfig(SnrPoint.from_linear(1e-12), 1000, 0))
        assert 0.0 <= result.ber_estimate <= 1.0

    def test_snr_domain_error_comes_from_snrpoint(self):
        with pytest.raises(ValueError):
            SnrPoint.from_linear(-2.0)


class TestDeterminism:
    def test_identical_configs_identical_results(self):
        r1 = simulate(_config())
        r2 = simulate(_config())
        assert r1 == r2

    def test_seed_changes_result(self):
        r1 = simulate(_config(seed=1))
        r2 = simulate(_config(seed=2))
        assert r1.bit_errors != r2.bit_errors

    def test_chunk_boundary_consistency(self):
        # Pins the documented draw order across versions: one run inside a
        # chunk, runs one symbol past a chunk, exactly four chunks, and a
        # ragged last chunk (the chunk is 2**16 symbols).
        pinned = [
            ((3.0, 10**5, 42), McResult(0.072865, 14573, 200000, 0.001497038793314295)),
            (
                (0.0, 3 * 2**16 + 12345, 7),
                McResult(0.1640584246218049, 68561, 417906, 0.0014755876354721304),
            ),
            (
                (3.0, 2**16 + 1, 9),
                McResult(0.07128034545371317, 9343, 131074, 0.001830568645119496),
            ),
            (
                (10.0, 4 * 2**16, 5),
                McResult(0.00031280517578125, 164, 524288, 6.290731521557546e-05),
            ),
        ]
        for (db, n, seed), expected in pinned:
            r = simulate(_config(snr=SnrPoint.from_db(db), num_symbols=n, seed=seed))
            assert r == expected, (db, n, seed)
            assert type(r.bit_errors) is int and type(r.ber_estimate) is float

    def test_matches_reference_chunks(self, monkeypatch):
        # The reference kernel allocates fresh arrays per chunk and draws a
        # chunk's quadrature normals in one fill; the shipped one reuses a
        # workspace per worker, where a ragged last chunk that follows full
        # ones must not read their stale symbols, and draws them one tile at
        # a time, where a ragged last tile (40_000 = 2**15 + 7232 symbols)
        # must carry the right symbol over.
        for db in (-10.0, 0.0, 6.0, 60.0):
            snr = SnrPoint.from_db(db)
            sigma = math.sqrt(1.0 / (4.0 * snr.gamma_lin))
            for n in (1000, 40_000, 2**16, 2**16 + 1, 2**16 + 40_000, 5 * 2**16 + 7):
                sizes = [min(2**16, n - start) for start in range(0, n, 2**16)]
                expected = sum(oracles.ref_chunk_errors(4, i, k, sigma) for i, k in enumerate(sizes))
                for workers in (1, 2, 3):
                    monkeypatch.setattr(montecarlo, "_workers", lambda: workers)
                    got = simulate(_config(snr=snr, num_symbols=n, seed=4)).bit_errors
                    assert got == expected, (db, n, workers)

    def test_chunks_draw_independent_streams(self):
        # Two chunks sharing one stream (e.g. a missing spawn_key) would
        # repeat the first chunk's errors exactly.
        one = simulate(_config(snr=SnrPoint.from_db(0.0), num_symbols=2**16, seed=1))
        two = simulate(_config(snr=SnrPoint.from_db(0.0), num_symbols=2 * 2**16, seed=1))
        assert two.bit_errors != 2 * one.bit_errors


class TestWorkers:
    def test_worker_count_does_not_change_result(self, monkeypatch):
        config = _config(snr=SnrPoint.from_db(0.0), num_symbols=5 * 2**16 + 7, seed=3)
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_workers", lambda: workers)
            results.append(simulate(config))
        assert results[0] == results[1] == results[2]

    def test_without_affinity_falls_back_to_cpu_count(self, monkeypatch):
        expected = simulate(_config())
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert montecarlo._workers() == (os.cpu_count() or 1)
        assert simulate(_config()) == expected

    def test_one_thread_of_work_starts_no_thread(self, monkeypatch):
        # one chunk, then several chunks on one CPU: both run in the calling thread
        several = _config(num_symbols=3 * 2**16 + 5)
        expected = simulate(several)

        def no_thread(*args, **kwargs):
            raise AssertionError("thread started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert simulate(_config(num_symbols=2**16)).bits_sent == 2**17
        monkeypatch.setattr(montecarlo, "_workers", lambda: 1)
        assert simulate(several) == expected

    def test_caller_is_worker_zero(self, monkeypatch):
        # two workers on three chunks: the calling thread runs chunks 0 and 2,
        # and the pool starts one thread for chunk 1
        config = _config(num_symbols=3 * 2**16 + 5)
        monkeypatch.setattr(montecarlo, "_workers", lambda: 1)
        expected = simulate(config)
        started = []
        start = threading.Thread.start

        def counted_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        monkeypatch.setattr(montecarlo, "_workers", lambda: 2)
        assert simulate(config) == expected
        assert len(started) == 1, started

    def test_simulate_memory_is_tile_sized(self, monkeypatch):
        # A worker keeps one in-phase row of _CHUNK + 1 floats and a
        # (3, _TILE + 1) block, 1.25 MiB; the run peaks at 1.77 MiB with the
        # chunk's bits. A (4, _CHUNK + 1) chunk workspace peaked at 2.77 MiB.
        import tracemalloc

        monkeypatch.setattr(montecarlo, "_workers", lambda: 1)
        config = _config(num_symbols=4 * 2**16)
        simulate(config)  # imports what simulate imports lazily
        tracemalloc.start()
        try:
            simulate(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * 2**20, peak

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt counts page faults on Linux")
    def test_chunks_reuse_memory(self, monkeypatch):
        # Minor page faults of a 16-chunk single-worker run. Allocating fresh
        # float arrays per chunk took 10,240 (640 per chunk, glibc returning
        # them to the OS after each chunk); one workspace per worker takes 0.
        # The first two runs fault the 1.3 MB workspace in (about 2,370 then
        # 416) while glibc raises its mmap threshold, so two warm-up runs
        # come first.
        import resource

        monkeypatch.setattr(montecarlo, "_workers", lambda: 1)
        config = _config(num_symbols=16 * 2**16)
        simulate(config)
        simulate(config)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        simulate(config)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 2000, faults


class TestResultInvariants:
    def test_counts(self):
        r = simulate(_config())
        assert isinstance(r, McResult)
        assert r.bits_sent == 2 * 10**5
        assert r.ber_estimate == r.bit_errors / r.bits_sent
        assert r.ci_half_width >= 0.0

    def test_result_is_frozen(self):
        r = simulate(_config())
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.ber_estimate = 0.0


def test_noise_free_detection():
    r = simulate(McConfig(snr=SnrPoint.from_linear(1e6), num_symbols=10**4, seed=0))
    assert r.bit_errors == 0
    assert r.ber_estimate == 0.0


def test_statistical_containment_at_zero_db():
    snr = SnrPoint.from_db(0.0)
    exact = exact_ber(snr)
    r = simulate(McConfig(snr=snr, num_symbols=10**6, seed=11))
    assert abs(r.ber_estimate - exact) <= r.ci_half_width


def test_containment_rate_across_seeds():
    # 99% intervals: expect nearly all of 12 independent runs to contain
    snr = SnrPoint.from_db(3.0)
    exact = exact_ber(snr)
    hits = 0
    for seed in range(12):
        r = simulate(McConfig(snr=snr, num_symbols=10**6, seed=seed))
        hits += int(abs(r.ber_estimate - exact) <= r.ci_half_width)
    assert hits >= 10


def test_noise_scaling_monotonicity():
    # doubling the linear snr strictly decreases the mean estimate
    lo = SnrPoint.from_linear(1.5)
    hi = SnrPoint.from_linear(3.0)
    lo_mean = np.mean(
        [simulate(McConfig(snr=lo, num_symbols=10**6, seed=s)).ber_estimate for s in range(10)]
    )
    hi_mean = np.mean(
        [simulate(McConfig(snr=hi, num_symbols=10**6, seed=s)).ber_estimate for s in range(10)]
    )
    assert hi_mean < lo_mean


def test_half_width_uses_the_normal_quantile():
    # z = Phi^-1(0.5 + c/2) to a few ulp: the 30-digit half-width agrees to 1e-15
    for c in (0.9, 0.95, 0.99, 0.999):
        r = simulate(_config(confidence=c))
        p = mp.mpf(r.bit_errors) / r.bits_sent
        z = oracles.ref_normal_quantile(0.5 + 0.5 * c)
        assert oracles.rel_err(r.ci_half_width, z * mp.sqrt(p * (1 - p) / r.bits_sent)) <= 1e-15, c


def test_wider_confidence_widens_interval():
    r95 = simulate(_config(confidence=0.95))
    r99 = simulate(_config(confidence=0.99))
    assert r99.ci_half_width > r95.ci_half_width
    assert r99.ber_estimate == r95.ber_estimate
