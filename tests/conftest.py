import gc
import os
import threading

import numpy as np
import pytest

from speechcurate.audio import AudioBuffer


def sine(freq_hz, duration_s, sr, amplitude=1.0):
    t = np.arange(int(round(duration_s * sr))) / sr
    return amplitude * np.sin(2 * np.pi * freq_hz * t)


def lowpassed_noise(cutoff_hz, duration_s, sr, seed=0):
    """White noise brick-walled by zeroing FFT bins above the cutoff."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(int(round(duration_s * sr)))
    spectrum = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(len(x), 1.0 / sr)
    spectrum[freqs > cutoff_hz] = 0.0
    return np.fft.irfft(spectrum, len(x))


@pytest.fixture
def mono_buffer():
    def build(samples, sr=44100):
        return AudioBuffer(samples=np.asarray(samples, dtype=np.float64), sample_rate_hz=sr)

    return build


_FD_DIR = "/proc/self/fd"


@pytest.fixture(autouse=True)
def no_leaked_descriptors():
    """Fail a test that ends with more open file descriptors than it began with.

    A raw descriptor (os.open, os.dup) raises no ResourceWarning when it is
    leaked, so the warning filter in pyproject.toml cannot see it. Objects
    that close theirs when collected are given one gc pass before the recount.
    Runs only where /proc/self/fd lists the process's descriptors.
    """
    if not os.path.isdir(_FD_DIR):
        yield
        return
    before = len(os.listdir(_FD_DIR))
    yield
    after = len(os.listdir(_FD_DIR))
    if after > before:
        gc.collect()
        after = len(os.listdir(_FD_DIR))
    assert after <= before, f"{after - before} file descriptor(s) left open"


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that ends with more live threads than it began with.

    run_pipeline starts one pool of worker threads for a run that enables a
    chapter stage, at any worker count, and must join it before it returns,
    also when the run fails.
    """
    before = threading.active_count()
    yield
    after = threading.active_count()
    assert after <= before, f"{after - before} thread(s) left running"
