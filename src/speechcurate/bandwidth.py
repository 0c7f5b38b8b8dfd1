"""Spectral bandwidth estimation.

The effective bandwidth of a recording is the highest frequency whose mean
spectral power is within a threshold (default -50 dB) of the spectral peak.
Upsampled low-bandwidth recordings are detected because their content above
the original Nyquist falls far below that threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import audio as audiolib
from .audio import AudioBuffer

DEFAULT_THRESHOLD_DB = -50.0
DEFAULT_ANALYSIS_S = 30.0
# mean_power_spectrum's frames, the same for every caller (bench/tracer.py
# reads these names). 2048-point frames at 44.1 kHz: ~21.5 Hz bins, fine
# enough for the 11/13 kHz subset gates. Blackman window keeps spectral
# leakage past a band edge under 3 bins at the -50 dB criterion.
DEFAULT_WINDOW_S = 2048 / 44100
DEFAULT_HOP_S = 1024 / 44100
# Frames per FFT batch in mean_power_spectrum: bounds its working set to
# about 128 windows, whatever the length of the analysed audio.
SPECTRUM_BLOCK_FRAMES = 128


class BandwidthError(Exception):
    pass


@dataclass(frozen=True)
class PowerSpectrum:
    psd: np.ndarray
    bin_hz: float
    nyquist_hz: float


@dataclass(frozen=True)
class BandwidthEstimate:
    f_max_hz: float
    degenerate: bool = False


def mean_power_spectrum(buf: AudioBuffer) -> PowerSpectrum:
    """Magnitude-squared FFT per frame, averaged over frames. DC bin included.

    Frames are DEFAULT_WINDOW_S long and DEFAULT_HOP_S apart. They are
    transformed SPECTRUM_BLOCK_FRAMES at a time and summed in frame order,
    which gives the same bits as one transform of all frames.
    """
    if buf.channels != 1:
        raise BandwidthError("mean_power_spectrum expects a mono buffer")
    sr = buf.sample_rate_hz
    n_fft = max(2, round(DEFAULT_WINDOW_S * sr))
    hop = max(1, round(DEFAULT_HOP_S * sr))
    x = buf.samples
    if len(x) < n_fft:
        raise BandwidthError(
            f"buffer of {len(x)} samples is shorter than one {n_fft}-sample window"
        )
    n_frames = (len(x) - n_fft) // hop + 1
    frames = np.lib.stride_tricks.sliding_window_view(x, n_fft)[::hop][:n_frames]
    window = np.blackman(n_fft)
    # Row 0 carries the running total; reducing it together with the block's
    # rows adds frame after frame, as mean(axis=0) over all frames would.
    acc = np.zeros((1 + SPECTRUM_BLOCK_FRAMES, n_fft // 2 + 1))
    for start in range(0, n_frames, SPECTRUM_BLOCK_FRAMES):
        block = frames[start:start + SPECTRUM_BLOCK_FRAMES]
        rows = acc[: 1 + len(block)]
        rows[1:] = np.abs(np.fft.rfft(block * window, axis=1)) ** 2
        acc[0] = np.add.reduce(rows, axis=0)
    psd = acc[0] / n_frames
    return PowerSpectrum(psd=psd, bin_hz=sr / n_fft, nyquist_hz=sr / 2.0)


def estimate_bandwidth(
    spec: PowerSpectrum, threshold_db: float = DEFAULT_THRESHOLD_DB
) -> BandwidthEstimate:
    """Highest bin whose power is within threshold_db of the spectral peak."""
    peak = float(spec.psd.max()) if len(spec.psd) else 0.0
    if peak <= 0.0:
        return BandwidthEstimate(f_max_hz=0.0, degenerate=True)
    admitted = np.nonzero(spec.psd >= peak * 10.0 ** (threshold_db / 10.0))[0]
    f_max = float(admitted[-1] * spec.bin_hz)
    return BandwidthEstimate(f_max_hz=min(f_max, spec.nyquist_hz))


def chapter_bandwidth(
    buf: AudioBuffer,
    target_hz: int,
    analyze_s: float = DEFAULT_ANALYSIS_S,
    threshold_db: float = DEFAULT_THRESHOLD_DB,
) -> BandwidthEstimate:
    """Estimate a decoded chapter's bandwidth, pre-trim, post-mixdown, at target_hz.

    Uses the first analyze_s seconds (the whole chapter when shorter). The
    result is inherited by every utterance of the chapter. A head shorter
    than one analysis window gives a degenerate estimate.
    """
    head = buf.samples[: audiolib.to_frames(analyze_s, buf.sample_rate_hz, buf.num_frames)]
    # Slice before mixing down: the mean is per frame, so only the analysed
    # head needs mixing. Called through the audio module so that wrappers
    # installed there (the benchmark's tracer) see these calls.
    head_buf = audiolib.mixdown(AudioBuffer(head, buf.sample_rate_hz))
    head_buf = audiolib.resample(head_buf, target_hz)
    try:
        spec = mean_power_spectrum(head_buf)
    except BandwidthError:
        return BandwidthEstimate(f_max_hz=0.0, degenerate=True)
    return estimate_bandwidth(spec, threshold_db=threshold_db)
