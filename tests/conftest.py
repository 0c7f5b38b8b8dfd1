import gc
import os
import subprocess
import sys
import threading
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
import yaml

import speechcurate
from speechcurate.audio import AudioBuffer
from speechcurate.config import PipelineConfig


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


def write_config(config: PipelineConfig, path: Path) -> None:
    """Write config as the YAML document PipelineConfig.from_yaml reads back."""
    Path(path).write_text(yaml.safe_dump(asdict(config), sort_keys=False), encoding="utf-8")


# The child of run_bounded: cap its own address space, then run the CLI.
_BOUNDED_CHILD = ("import resource, runpy, sys; "
                  "resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]),) * 2); "
                  "sys.argv = ['speechcurate', *sys.argv[2:]]; "
                  "runpy.run_module('speechcurate.cli', run_name='__main__')")
# About twice what a two-worker `run` of a small corpus maps at its peak
# with one BLAS thread; each further BLAS thread maps about 40 MiB more, so
# the child gets one, whatever the host's core count.
BOUNDED_AS_BYTES = 768 << 20
_ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_bounded(cwd: Path, case, timeout_s: float = 30) -> subprocess.CompletedProcess:
    """Run a case of `python -m speechcurate.cli` in a child process in cwd
    whose address space is capped at BOUNDED_AS_BYTES (RLIMIT_AS) and which
    is killed after timeout_s: a case that reads or works without end fails
    its test instead of exhausting the machine. case is the CLI's arguments,
    or a PipelineConfig, which is written to cwd/config.yaml and run. The
    child runs the tree under test; its output is text."""
    if isinstance(case, PipelineConfig):
        write_config(case, Path(cwd) / "config.yaml")
        case = ["run", "--config", "config.yaml"]
    src = Path(speechcurate.__file__).parents[1]
    try:
        return subprocess.run([sys.executable, "-c", _BOUNDED_CHILD, str(BOUNDED_AS_BYTES), *case],
                              cwd=cwd, env={**os.environ, **_ONE_BLAS_THREAD,
                                            "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{case} did not end within {timeout_s} s")
