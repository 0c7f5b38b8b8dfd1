"""PCM audio loading, channel mixdown, sample-rate conversion, silence trimming."""

from __future__ import annotations

import io
import shlex
import subprocess
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy import signal
from scipy.io import wavfile


class AudioError(Exception):
    pass


@dataclass(frozen=True)
class AudioBuffer:
    """Float PCM audio. samples is (n,) for mono or (n, channels) otherwise."""

    samples: np.ndarray
    sample_rate_hz: int

    @property
    def channels(self) -> int:
        return 1 if self.samples.ndim == 1 else self.samples.shape[1]

    @property
    def num_frames(self) -> int:
        return self.samples.shape[0]

    @property
    def duration_s(self) -> float:
        return self.num_frames / self.sample_rate_hz


@dataclass(frozen=True)
class TrimResult:
    trimmed: AudioBuffer
    leading_removed_s: float
    trailing_removed_s: float
    empty_after_trim: bool = False


def load_pcm(
    path: str | Path, decoder_cmd: str | None = None, head_s: float | None = None
) -> AudioBuffer:
    """Load a PCM WAV file with amplitudes normalized to [-1, 1].

    A path that is not `.wav` is decoded by `decoder_cmd` when one is given:
    an argv template whose `{input}` is replaced by the path and whose stdout
    is a WAV stream, e.g. `"ffmpeg -loglevel error -i {input} -f wav -"`.
    With `head_s`, only the first round(head_s * rate) frames are converted
    and returned; the values equal those of the full load sliced afterwards.
    """
    source = str(path)
    if decoder_cmd is not None and Path(path).suffix.lower() != ".wav":
        cmd = [part.format(input=source) for part in shlex.split(decoder_cmd)]
        proc = subprocess.run(cmd, capture_output=True, check=True)
        source = io.BytesIO(proc.stdout)
    try:
        rate, data = wavfile.read(source)
    except ValueError as exc:
        raise AudioError(f"{path}: {exc}") from exc
    if head_s is not None:
        data = data[: int(round(head_s * rate))]
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    elif data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    else:
        raise AudioError(f"{path}: unsupported sample encoding {data.dtype}")
    return AudioBuffer(samples=samples, sample_rate_hz=int(rate))


def save_pcm(buf: AudioBuffer, path: str | Path, bit_depth: int = 16) -> None:
    """Write an AudioBuffer as PCM WAV (16-bit int or 32-bit float)."""
    if bit_depth == 16:
        scaled = np.clip(np.round(buf.samples * 32768.0), -32768, 32767)
        data = scaled.astype(np.int16)
    elif bit_depth == 32:
        data = buf.samples.astype(np.float32)
    else:
        raise AudioError(f"unsupported bit depth {bit_depth}")
    wavfile.write(str(path), buf.sample_rate_hz, data)


def mixdown(buf: AudioBuffer) -> AudioBuffer:
    """Average all channels into one. Mono input is returned unchanged."""
    if buf.channels == 1:
        return buf
    return AudioBuffer(samples=buf.samples.mean(axis=1), sample_rate_hz=buf.sample_rate_hz)


@lru_cache(maxsize=32)
def _design_filter(source_hz: int, target_hz: int) -> tuple[int, int, tuple]:
    frac = Fraction(target_hz, source_hz)
    up, down = frac.numerator, frac.denominator
    fs_up = source_hz * up
    # Passband flat to 90% of the lower Nyquist; stopband from that Nyquist.
    f_stop = 0.5 * min(source_hz, target_hz)
    f_pass = 0.9 * f_stop
    width = (f_stop - f_pass) / (fs_up / 2)
    numtaps, beta = signal.kaiserord(70.0, width)
    numtaps |= 1
    cutoff = (f_pass + f_stop) / fs_up
    taps = signal.firwin(numtaps, cutoff, window=("kaiser", beta))
    return up, down, tuple(taps)


def resample(buf: AudioBuffer, target_hz: int) -> AudioBuffer:
    """Polyphase Kaiser-windowed-sinc rate conversion to target_hz.

    Identity when target_hz equals the source rate. Stopband attenuation
    exceeds 60 dB and the passband is flat within 0.1 dB up to 0.45 * target_hz.
    """
    if buf.channels != 1:
        raise AudioError("resample expects a mono buffer; call mixdown first")
    if target_hz <= 0:
        raise AudioError(f"target rate must be > 0, got {target_hz}")
    if target_hz == buf.sample_rate_hz:
        return buf
    up, down, taps = _design_filter(buf.sample_rate_hz, target_hz)
    out = signal.resample_poly(buf.samples, up, down, window=np.asarray(taps))
    return AudioBuffer(samples=out, sample_rate_hz=int(target_hz))


def _frame_rms(x: np.ndarray, frame: int, hop: int) -> np.ndarray:
    if len(x) < frame:
        pad = np.zeros(frame)
        pad[: len(x)] = x
        x = pad
    n_frames = (len(x) - frame) // hop + 1
    frames = np.lib.stride_tricks.sliding_window_view(x, frame)[::hop][:n_frames]
    return np.sqrt((frames**2).mean(axis=1))


def trim_silence(
    buf: AudioBuffer,
    threshold_db: float = 50.0,
    max_edge_silence_s: float = 0.5,
    frame_s: float = 0.025,
    hop_s: float = 0.0125,
) -> TrimResult:
    """Cut leading/trailing silence, keeping at most max_edge_silence_s per edge.

    A frame is silent when its RMS is more than threshold_db below the peak
    frame RMS of the buffer itself; the boundary is then refined to the first
    and last samples above the threshold, which makes trimming idempotent.
    Interior audio is never touched.
    """
    if buf.channels != 1:
        raise AudioError("trim_silence expects a mono buffer")
    sr = buf.sample_rate_hz
    x = buf.samples
    frame = max(1, int(round(frame_s * sr)))
    hop = max(1, int(round(hop_s * sr)))
    rms = _frame_rms(x, frame, hop)
    peak = rms.max() if len(rms) else 0.0
    if peak <= 0.0:
        return TrimResult(
            trimmed=AudioBuffer(samples=x[:0], sample_rate_hz=sr),
            leading_removed_s=buf.duration_s,
            trailing_removed_s=0.0,
            empty_after_trim=True,
        )
    thresh = peak * 10.0 ** (-threshold_db / 20.0)
    idx = np.nonzero(rms >= thresh)[0]
    if len(idx) == 0:
        return TrimResult(
            trimmed=AudioBuffer(samples=x[:0], sample_rate_hz=sr),
            leading_removed_s=buf.duration_s,
            trailing_removed_s=0.0,
            empty_after_trim=True,
        )
    keep = int(round(max_edge_silence_s * sr))
    # Refine the frame-level boundaries to sample precision. An active frame
    # always contains a sample >= thresh (RMS <= max |sample|), and the
    # per-sample scan does not depend on the frame grid, so trimming an
    # already-trimmed buffer removes nothing.
    lo = idx[0] * hop
    above = np.nonzero(np.abs(x[lo:lo + frame]) >= thresh)[0]
    first_sample = lo + above[0]
    hi = idx[-1] * hop
    above = np.nonzero(np.abs(x[hi:hi + frame]) >= thresh)[0]
    last_sample = min(len(x), hi + above[-1] + 1)
    start = max(0, first_sample - keep)
    end = min(len(x), last_sample + keep)
    return TrimResult(
        trimmed=AudioBuffer(samples=x[start:end], sample_rate_hz=sr),
        leading_removed_s=start / sr,
        trailing_removed_s=(len(x) - end) / sr,
    )
