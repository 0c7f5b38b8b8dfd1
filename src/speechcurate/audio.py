"""PCM audio loading, channel mixdown, sample-rate conversion, silence trimming.

Needs nothing beyond numpy: WAV streams are parsed and written here, and the
resampler is a banded polyphase matrix product.
"""

from __future__ import annotations

import math
import os
import shlex
import struct
import subprocess
import tempfile
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from .manifest import open_input


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


_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# Bytes 2-15 of a WAVE_FORMAT_EXTENSIBLE SubFormat GUID; bytes 0-1 hold the
# format tag (RFC 2361).
_SUBFORMAT_GUID_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"

# (format tag, bytes per sample) -> (stored dtype, zero level, full scale).
# 24-bit samples are widened to left-justified int32, as scipy.io.wavfile
# returns them, so they share the int32 scale.
_ENCODINGS = {
    (_WAVE_FORMAT_PCM, 1): ("u1", 128.0, 128.0),
    (_WAVE_FORMAT_PCM, 2): ("<i2", 0.0, 32768.0),
    (_WAVE_FORMAT_PCM, 3): ("<i4", 0.0, 2147483648.0),
    (_WAVE_FORMAT_PCM, 4): ("<i4", 0.0, 2147483648.0),
    (_WAVE_FORMAT_IEEE_FLOAT, 4): ("<f4", 0.0, 1.0),
    (_WAVE_FORMAT_IEEE_FLOAT, 8): ("<f8", 0.0, 1.0),
}


def _parse_fmt(body: bytes) -> tuple[int, int, int, tuple[str, float, float]]:
    """(rate, channels, bytes per sample, encoding) from a fmt chunk body."""
    if len(body) < 16:
        raise AudioError("fmt chunk shorter than 16 bytes")
    tag, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", body)
    if tag == _WAVE_FORMAT_EXTENSIBLE:
        if len(body) < 40 or body[26:40] != _SUBFORMAT_GUID_TAIL:
            raise AudioError("WAVE_FORMAT_EXTENSIBLE without a known SubFormat")
        (tag,) = struct.unpack_from("<H", body, 24)
    if channels < 1 or rate < 1 or block_align % channels:
        raise AudioError(
            f"invalid fmt chunk: {channels} channels, {rate} Hz, "
            f"{block_align}-byte frames")
    width = block_align // channels
    encoding = _ENCODINGS.get((tag, width))
    if encoding is None:
        raise AudioError(
            f"unsupported sample encoding: format {tag:#06x}, {bits} bits "
            f"in {width} bytes")
    return rate, channels, width, encoding


def _as_float(data: np.ndarray, zero: float = 0.0, scale: float = 1.0) -> np.ndarray:
    """(data - zero) / scale as a new float64 array.

    Every integer encoding's scale is a power of two, so multiplying by
    1 / scale gives the same bits as dividing by it.
    """
    if scale == 1.0:
        return data.astype(np.float64)
    if not zero:
        return np.multiply(data, 1.0 / scale, dtype=np.float64)
    samples = np.subtract(data, zero, dtype=np.float64)
    samples *= 1.0 / scale
    return samples


def _mix(data: np.ndarray, zero: float = 0.0, scale: float = 1.0) -> np.ndarray:
    """The mean over the channels of (frames, channels) data, as float64.

    Bit-equal to `_as_float(data, zero, scale).mean(axis=1)`. Up to 7 channels
    numpy's mean adds the channels in order to a +0.0 start and divides once,
    so no multichannel float array is built. Integer samples are added as
    float64, where their sum is exact, and shifted and scaled once: every
    partial sum of the scaled channels is exact too, so the result has the
    same bits. Float samples (and a single channel) are converted and added
    one column at a time. From 8 channels numpy sums in pairwise blocks, so
    the full array is averaged.
    """
    channels = data.shape[1]
    if channels >= 8:
        return _as_float(data, zero, scale).mean(axis=1)
    if channels >= 2 and data.dtype.kind in "iu":
        total = np.add(data[:, 0], data[:, 1], dtype=np.float64)
        for c in range(2, channels):
            total += data[:, c]
        if zero:
            total -= zero * channels
        total *= 1.0 / scale
    else:
        total = _as_float(data[:, 0], zero, scale)
        total += 0.0  # the +0.0 start: a frame of -0.0 samples mixes to +0.0
        for c in range(1, channels):
            total += _as_float(data[:, c], zero, scale)
    total /= channels
    return total


@dataclass(frozen=True)
class PcmFile:
    """An opened PCM WAV stream: its header and where its frames start.

    `fd` reads the WAV file, or an anonymous temp file holding decoder output,
    and is closed when the PcmFile is collected. Reads use `os.pread`, which
    moves no shared file position, so threads can read one PcmFile at once.
    """

    path: Path
    fd: int
    sample_rate_hz: int
    channels: int
    width: int  # bytes per sample
    encoding: tuple[str, float, float]  # stored dtype, zero level, full scale
    data_offset: int  # byte position of the first frame
    num_frames: int


def _read_header(fid) -> tuple:
    """(rate, channels, bytes per sample, encoding, data offset, frames) of a
    little-endian RIFF/WAVE stream.

    Chunks before `data` other than `fmt ` are skipped, with their pad byte.
    A declared data size larger than what is left (a WAV written to a pipe)
    counts the whole frames up to the end.
    """
    riff = fid.read(12)
    if len(riff) < 12 or riff[:4] != b"RIFF" or riff[8:] != b"WAVE":
        raise AudioError(f"not a RIFF/WAVE stream (starts with {riff[:4]!r})")
    fmt = None
    while True:
        header = fid.read(8)
        if len(header) < 8:
            raise AudioError("no data chunk")
        chunk_id, (size,) = header[:4], struct.unpack("<I", header[4:])
        if chunk_id == b"data":
            break
        start = fid.tell()
        if chunk_id == b"fmt ":
            fmt = _parse_fmt(fid.read(min(size, 40)))
        fid.seek(start + size + (size & 1))
    if fmt is None:
        raise AudioError("data chunk before fmt chunk")
    rate, channels, width, encoding = fmt
    here = fid.tell()
    frames = min(size, fid.seek(0, os.SEEK_END) - here) // (channels * width)
    return rate, channels, width, encoding, here, frames


def command(template: str, **values: str) -> list[str]:
    """The argv a `decoder_cmd` or `encoder_cmd` template runs: its shlex
    words, each formatted with values (`input`, and `output` for an encoder)."""
    return [word.format(**values) for word in shlex.split(template)]


def open_pcm(path: str | Path, decoder_cmd: str | None = None) -> PcmFile:
    """Parse the header of a PCM WAV file, or of `decoder_cmd`'s output for it.

    No frames are read from a WAV file. A path that is not `.wav` is decoded
    by `decoder_cmd` when one is given (see load_pcm), once, into an
    anonymous temporary file (under TMPDIR) that every later read uses.
    Either way path must be a regular file (manifest.open_input), else an
    OSError is raised before anything is read or any decoder starts: a
    directory, device or FIFO is refused whatever the decoder would do.
    """
    fid = open_input(path, "rb")
    decode = decoder_cmd is not None and Path(path).suffix.lower() != ".wav"
    if decode:
        fid.close()
        fid = tempfile.TemporaryFile()
    with fid:
        if decode:
            subprocess.run(command(decoder_cmd, input=str(path)), stdout=fid,
                           stderr=subprocess.PIPE, check=True)
            fid.seek(0)  # the decoder wrote through this file's position
        try:
            header = _read_header(fid)
        except AudioError as exc:
            raise AudioError(f"{path}: {exc}") from None
        pcm = PcmFile(Path(path), os.dup(fid.fileno()), *header)
    weakref.finalize(pcm, os.close, pcm.fd)
    return pcm


def _read_bytes(pcm: PcmFile, start: int, stop: int) -> bytes:
    """The bytes of frames [start, stop) of pcm, clipped to its frames.

    Fewer come back when the file shrank since it was opened.
    """
    block = pcm.channels * pcm.width
    start = max(0, start)
    offset = pcm.data_offset + start * block
    size = max(0, min(stop, pcm.num_frames) - start) * block
    raw = b""
    while len(raw) < size:  # one pread returns at most ~2 GiB on Linux
        chunk = os.pread(pcm.fd, size - len(raw), offset + len(raw))
        if not chunk:
            break
        raw += chunk
    return raw


def _read_frames(pcm: PcmFile, start: int, stop: int, mono: bool) -> np.ndarray:
    """Frames [start, stop) of pcm, clipped to its frames, as float64.

    Only those frames' bytes are read. With `mono`, channels are mixed one
    column at a time.
    """
    block = pcm.channels * pcm.width
    raw = _read_bytes(pcm, start, stop)
    frames = len(raw) // block
    raw = raw[:frames * block]
    dtype, zero, scale = pcm.encoding
    if pcm.width == 3:
        wide = np.zeros((frames * pcm.channels, 4), np.uint8)
        wide[:, 1:] = np.frombuffer(raw, np.uint8).reshape(-1, 3)
        data = wide.view(dtype)[:, 0]
    else:
        data = np.frombuffer(raw, dtype)
    if pcm.channels > 1:
        data = data.reshape(frames, pcm.channels)
        if mono:
            return _mix(data, zero, scale)
    return _as_float(data, zero, scale)


def load_pcm(
    path: str | Path | PcmFile,
    decoder_cmd: str | None = None,
    head_s: float | None = None,
    mono: bool = False,
    offset_s: float = 0.0,
) -> AudioBuffer:
    """Load a PCM WAV file with amplitudes normalized to [-1, 1].

    Reads 8-bit unsigned, 16/24/32-bit signed integer and 32/64-bit float
    samples, in plain or WAVE_FORMAT_EXTENSIBLE files; anything else raises
    AudioError. A path that is not `.wav` is decoded by `decoder_cmd` when
    one is given: an argv template whose `{input}` is replaced by the path and
    whose stdout is a WAV stream, e.g.
    `"ffmpeg -loglevel error -i {input} -f wav -"`. `path` may also be a
    PcmFile from open_pcm, which is read without decoding or parsing again.
    Frames round(offset_s * rate) up to round((offset_s + head_s) * rate)
    are read, clipped to the stream (to its end without `head_s`); the
    values equal those of the full load sliced afterwards. With `mono`, the
    channels are mixed while decoding, bit-equal to `mixdown(load_pcm(...))`
    but without building the multichannel float64 array.
    """
    pcm = path if isinstance(path, PcmFile) else open_pcm(path, decoder_cmd)
    rate, n = pcm.sample_rate_hz, pcm.num_frames
    start = to_frames(offset_s, rate, n)
    stop = n if head_s is None else to_frames(offset_s + head_s, rate, n)
    return AudioBuffer(samples=_read_frames(pcm, start, stop, mono), sample_rate_hz=rate)


def to_frames(seconds: float, rate: int, limit: int) -> int:
    """round(seconds * rate) clipped to [0, limit].

    Clipped before the conversion to int, so seconds too large for the
    product to be finite give the limit, not an OverflowError.
    """
    return round(min(max(0.0, seconds * rate), limit))


def save_pcm(buf: AudioBuffer, path: str | Path) -> None:
    """Write an AudioBuffer as 16-bit PCM WAV.

    The bytes equal those scipy.io.wavfile.write gives for the samples as int16.
    """
    scaled = buf.samples * 32768.0
    np.round(scaled, out=scaled)
    np.clip(scaled, -32768, 32767, out=scaled)
    data = np.ascontiguousarray(scaled.astype("<i2"))
    _write_wav(path, data.data, 1 if data.ndim == 1 else data.shape[1], buf.sample_rate_hz)


def _write_wav(path: str | Path, data, channels: int, rate: int) -> None:
    """Write `data`, a bytes-like of frames of `channels` 16-bit samples
    each, as a PCM WAV file."""
    size = memoryview(data).nbytes
    fmt = struct.pack("<HHIIHH", _WAVE_FORMAT_PCM, channels, rate, rate * channels * 2,
                      channels * 2, 16)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", size)
    riff = b"RIFF" + struct.pack("<I", 4 + len(chunks) + size) + b"WAVE"
    with open(path, "wb") as fh:
        fh.write(riff + chunks)
        fh.write(data)


def write_kept(pcm: PcmFile, first: int, buf: AudioBuffer, path: str | Path) -> None:
    """Write buf as save_pcm(buf, path) does, where buf is pcm's frames from
    frame `first` on, mixed down, resampled and sliced.

    When pcm holds 16-bit mono samples at buf's rate, mixdown and resample
    returned their input, so each sample of buf is k / 32768 for the source's
    own 16-bit k, and save_pcm would write k back: then the source's bytes
    of frames [first, first + buf.num_frames) are copied instead, and the
    file's bytes are the same. `first` is read only then. A copy that cannot
    read all of those bytes (the file shrank, or a read failed, after pcm
    was opened) raises AudioError before `path` is opened.
    """
    if (pcm.encoding != _ENCODINGS[(_WAVE_FORMAT_PCM, 2)] or pcm.channels != 1
            or buf.sample_rate_hz != pcm.sample_rate_hz):
        save_pcm(buf, path)
        return
    try:
        raw = _read_bytes(pcm, first, first + buf.num_frames)
    except OSError as exc:
        raise AudioError(f"{pcm.path}: {exc}") from exc
    if len(raw) != 2 * buf.num_frames:
        raise AudioError(f"{pcm.path}: {len(raw) // 2} of {buf.num_frames} frames "
                         f"left from frame {first}")
    _write_wav(path, raw, 1, pcm.sample_rate_hz)


def mixdown(buf: AudioBuffer) -> AudioBuffer:
    """Average all channels into one, bit-equal to `samples.mean(axis=1)` in float64.

    Mono (1-D) input is returned unchanged.
    """
    if buf.samples.ndim == 1:
        return buf
    return AudioBuffer(samples=_mix(buf.samples), sample_rate_hz=buf.sample_rate_hz)


# Each row of the polyphase product yields at least this many outputs: rate
# pairs with few phases (44.1 -> 22.05 kHz has one) group several periods per
# row, so every matmul stays wide enough for BLAS to pay off.
_MIN_ROW_OUTPUTS = 64
# A row's outputs (at least 64) are split into outputs // _BAND_OUTPUTS
# bands of near-equal width (21 to 28 columns), each multiplied over only the
# input rows its taps reach. Measured with numpy's OpenBLAS (SkylakeX
# kernels, one thread) on 10 s of noise, median of 31: 48 -> 44.1 kHz took
# 4.8 ms against 7.8 ms for one product over the whole span, and each of
# eight rate pairs tried was faster. The width also decides OpenBLAS's
# summation order: at 21 the floats equal those of the whole-span product
# (one thread) at 48 -> 44.1, 44.1 -> 48, 44.1 -> 22.05 and 22.05 -> 44.1 kHz
# and are the same at 1 and 2 BLAS threads, while bands of 16 or 20 columns
# differ in the last bit.
_BAND_OUTPUTS = 21
# Bytes of input windows gathered per block of rows, never less than one
# row: 129 rows of the 253-sample window at 48 -> 44.1 kHz, one row of the
# 44187-sample window at 44101 -> 44100 Hz. Twice this budget gathers 550
# rows at 22.05 -> 44.1 kHz, which measured slower than 275.
_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class _Polyphase:
    """A polyphase filter as bands of one row's outputs.

    Row j of the product reads the padded input window
    padded[j*step : j*step + span] and yields `outputs` output samples.
    Each band is (rows, cols, taps): output columns `cols` of a row are
    window[rows] @ taps, where taps is a read-only contiguous array holding
    only the window rows those outputs reach.
    """

    step: int  # input samples per row
    lead: int  # zeros padded before the input
    span: int  # input samples one row reads
    outputs: int  # output samples per row
    bands: tuple[tuple[slice, slice, np.ndarray], ...]


# A run resamples to one target rate from a few source rates. A design
# stores ~1.25x the taps one row's outputs use, ~1.25 * numtaps float64 once
# up >= 64, and numtaps is ~87 * max(source, target) / gcd(source, target):
# 0.14 MB at 48 -> 44.1 kHz, at most ~41 MB for rates up to 48 kHz
# (44101 -> 44100 Hz: 38 MB), so four entries stay under ~170 MB.
@lru_cache(maxsize=4)
def _design_filter(source_hz: int, target_hz: int) -> _Polyphase:
    frac = Fraction(target_hz, source_hz)
    up, down = frac.numerator, frac.denominator
    fs_up = source_hz * up
    # Passband flat to 90% of the lower Nyquist; stopband from that Nyquist.
    f_stop = 0.5 * min(source_hz, target_hz)
    f_pass = 0.9 * f_stop
    width = (f_stop - f_pass) / (fs_up / 2)
    # Kaiser's formulas for a 70 dB stopband (Oppenheim & Schafer).
    numtaps = math.ceil((70.0 - 7.95) / 2.285 / (math.pi * width) + 1) | 1
    beta = 0.1102 * (70.0 - 8.7)
    cutoff = (f_pass + f_stop) / fs_up
    half = numtaps // 2
    h = cutoff * np.sinc(cutoff * (np.arange(numtaps, dtype=np.float64) - half))
    h *= np.kaiser(numtaps, beta)
    h /= h.sum()  # unit DC gain
    h *= up
    # Output k is sum_p x[p] * h[k*down + half - p*up]. A row holds outputs
    # r = 0..outputs-1 of one group and reads input step*row + s - lead, so
    # its taps depend only on (s, r), and are nonzero only for
    # lead + (r*down - half - 1) // up < s <= lead + (r*down + half) // up.
    group = -(-_MIN_ROW_OUTPUTS // up)
    outputs, step = up * group, down * group
    lead = half // up
    span = ((outputs - 1) * down + half) // up + lead + 1
    bands = []
    n = outputs // _BAND_OUTPUTS
    for c0, c1 in ((outputs * i // n, outputs * (i + 1) // n) for i in range(n)):
        r0 = lead + (c0 * down - half - 1) // up + 1
        r1 = lead + ((c1 - 1) * down + half) // up + 1
        idx = np.arange(c0, c1) * down + half - (np.arange(r0, r1)[:, None] - lead) * up
        taps = np.where((idx >= 0) & (idx < numtaps), h[np.clip(idx, 0, numtaps - 1)], 0.0)
        taps.flags.writeable = False
        bands.append((slice(r0, r1), slice(c0, c1), taps))
    return _Polyphase(step=step, lead=lead, span=span, outputs=outputs, bands=tuple(bands))


def resample(buf: AudioBuffer, target_hz: int) -> AudioBuffer:
    """Polyphase Kaiser-windowed-sinc rate conversion to target_hz.

    Identity when target_hz equals the source rate. The stopband is at least
    69 dB down; the passband is flat within 0.1 dB up to 0.45 * the lower rate.
    The output has ceil(n * target_hz / source_hz) samples and equals
    scipy.signal.resample_poly with the same filter to within ~1e-15.

    Output row j (one group of polyphase outputs) is the input window
    padded[j*step : j*step + span] times the filter's taps. Windows are
    gathered into contiguous blocks of about _BLOCK_BYTES, and each band of
    a row's outputs is one matrix product over only the window samples its
    taps reach, so the work and the taps stored grow with the filter's
    length, not with up * down.
    """
    if buf.channels != 1:
        raise AudioError("resample expects a mono buffer; call mixdown first")
    if target_hz <= 0:
        raise AudioError(f"target rate must be > 0, got {target_hz}")
    if target_hz == buf.sample_rate_hz:
        return buf
    poly = _design_filter(buf.sample_rate_hz, int(target_hz))
    span, outputs = poly.span, poly.outputs
    x = buf.samples
    n_out = -(-len(x) * outputs // poly.step)
    rows = -(-n_out // outputs)
    padded = np.zeros(max(poly.lead + len(x), rows * poly.step + span))
    padded[poly.lead:poly.lead + len(x)] = x
    windows = np.lib.stride_tricks.sliding_window_view(padded, span)[::poly.step]
    out = np.empty((rows, outputs))
    block = max(1, _BLOCK_BYTES // (span * padded.itemsize))
    for lo in range(0, rows, block):
        hi = min(rows, lo + block)
        gathered = np.ascontiguousarray(windows[lo:hi])
        for taps_rows, cols, taps in poly.bands:
            np.matmul(gathered[:, taps_rows], taps, out=out[lo:hi, cols])
    return AudioBuffer(samples=out.reshape(-1)[:n_out], sample_rate_hz=int(target_hz))


def _frame_rms(x: np.ndarray, frame: int, hop: int) -> np.ndarray:
    """RMS of each `frame`-sample window, `hop` apart, over x zero-padded to
    the fewest windows (at least one) whose last one reaches x's last sample."""
    n = 1 + -(-max(0, len(x) - frame) // hop)
    squares = np.zeros((n - 1) * hop + frame)
    np.square(x, out=squares[:len(x)])
    windows = np.lib.stride_tricks.sliding_window_view(squares, frame)[::hop]
    return np.sqrt(windows.mean(axis=1))


# trim_silence's analysis frames: 25 ms windows, 12.5 ms apart.
TRIM_FRAME_S = 0.025
TRIM_HOP_S = 0.0125


def trim_silence(
    buf: AudioBuffer,
    threshold_db: float = 50.0,
    max_edge_silence_s: float = 0.5,
) -> TrimResult:
    """Cut leading/trailing silence, keeping at most max_edge_silence_s per edge.

    A frame (TRIM_FRAME_S long, every TRIM_HOP_S, the last zero-padded so
    that every sample is analysed) is silent when its RMS is
    more than threshold_db below the peak frame RMS of the buffer itself; the
    boundary is then refined to the first and last samples above the
    threshold, which makes trimming idempotent. Interior audio is never touched.
    """
    if buf.channels != 1:
        raise AudioError("trim_silence expects a mono buffer")
    sr = buf.sample_rate_hz
    x = buf.samples
    frame = max(1, round(TRIM_FRAME_S * sr))
    hop = max(1, round(TRIM_HOP_S * sr))
    rms = _frame_rms(x, frame, hop)
    peak = rms.max() if len(rms) else 0.0
    thresh = peak * 10.0 ** (-threshold_db / 20.0)
    idx = np.nonzero(rms >= thresh)[0]
    # A NaN peak fails every comparison, so it lands here too.
    if not peak > 0.0 or len(idx) == 0:
        return TrimResult(
            trimmed=AudioBuffer(samples=x[:0], sample_rate_hz=sr),
            leading_removed_s=buf.duration_s,
            trailing_removed_s=0.0,
        )
    keep = to_frames(max_edge_silence_s, sr, len(x))
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
