import errno
import gc
import os
import stat
import struct
import subprocess
import sys
import tempfile
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import signal
from scipy.io import wavfile

from speechcurate import audio as audiolib
from speechcurate.audio import (
    AudioBuffer,
    AudioError,
    load_pcm,
    mixdown,
    open_pcm,
    resample,
    save_pcm,
    trim_silence,
)

from conftest import sine


class TestLoadSave:
    def test_silence_sample_count(self, tmp_path):
        buf = AudioBuffer(np.zeros(44100), 44100)
        path = tmp_path / "silence.wav"
        save_pcm(buf, path)
        loaded = load_pcm(path)
        assert loaded.sample_rate_hz == 44100
        assert loaded.num_frames == 44100
        assert np.all(loaded.samples == 0.0)

    def test_full_scale_square_quantization(self, tmp_path):
        buf = AudioBuffer(np.ones(1000), 44100)
        path = tmp_path / "square.wav"
        save_pcm(buf, path)
        loaded = load_pcm(path)
        assert np.allclose(loaded.samples, 32767 / 32768)

    def test_round_trip_within_one_lsb(self, tmp_path):
        rng = np.random.default_rng(1)
        buf = AudioBuffer(rng.uniform(-0.99, 0.99, 5000), 16000)
        path = tmp_path / "rt.wav"
        save_pcm(buf, path)
        loaded = load_pcm(path)
        assert np.max(np.abs(loaded.samples - buf.samples)) <= 1 / 32768

    def test_float32_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        buf = AudioBuffer(rng.uniform(-1, 1, 5000), 22050)
        path = tmp_path / "f32.wav"
        save_pcm(buf, path, bit_depth=32)
        loaded = load_pcm(path)
        assert np.max(np.abs(loaded.samples - buf.samples)) <= 1e-6

    def test_unsupported_bit_depth_writes_nothing(self, tmp_path):
        path = tmp_path / "x.wav"
        with pytest.raises(AudioError, match="unsupported bit depth 24"):
            save_pcm(AudioBuffer(np.zeros(100), 16000), path, bit_depth=24)
        assert not path.exists()

    def test_truncated_file_errors(self, tmp_path):
        path = tmp_path / "broken.wav"
        path.write_bytes(b"RIFF\x00\x00\x00\x00WAVE")
        with pytest.raises((AudioError, Exception)):
            load_pcm(path)


def _write_wav24(path, rate, frames):
    """A 24-bit PCM WAV (scipy reads it but cannot write it)."""
    ints = np.asarray(frames, dtype=np.int32)
    channels = 1 if ints.ndim == 1 else ints.shape[1]
    raw = ints.astype("<i4").tobytes()
    data = b"".join(raw[i:i + 3] for i in range(0, len(raw), 4))
    fmt = struct.pack("<HHIIHH", 1, channels, rate, rate * channels * 3, channels * 3, 24)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


class TestHeadRead:
    RATE = 16000

    @pytest.fixture(params=["int16", "int32", "int24", "uint8", "float32"])
    def wav(self, request, tmp_path):
        rng = np.random.default_rng(5)
        noise = rng.uniform(-0.9, 0.9, (self.RATE, 2))  # 1 s of stereo
        path = tmp_path / f"{request.param}.wav"
        if request.param == "int16":
            wavfile.write(str(path), self.RATE, (noise * 32767).astype(np.int16))
        elif request.param == "int32":
            wavfile.write(str(path), self.RATE, (noise * 2**31).astype(np.int32))
        elif request.param == "int24":
            _write_wav24(path, self.RATE, (noise * 2**23).astype(np.int32))
        elif request.param == "uint8":
            wavfile.write(str(path), self.RATE, (noise * 127 + 128).astype(np.uint8))
        else:
            wavfile.write(str(path), self.RATE, noise.astype(np.float32))
        return path

    @pytest.mark.parametrize("head_s", [0.0, 0.01234, 0.5, 1.0, 3.0])
    def test_head_equals_sliced_full_load(self, wav, head_s):
        full = load_pcm(wav)
        head = load_pcm(wav, head_s=head_s)
        assert head.sample_rate_hz == full.sample_rate_hz
        assert head.samples.dtype == np.float64
        np.testing.assert_array_equal(
            head.samples, full.samples[: int(round(head_s * self.RATE))])

    def test_decoder_output_sliced(self, wav, tmp_path):
        raw = tmp_path / "chapter.raw"  # not .wav: goes through decoder_cmd
        raw.write_bytes(wav.read_bytes())
        head = load_pcm(raw, "cat {input}", head_s=0.25)
        np.testing.assert_array_equal(
            head.samples, load_pcm(wav).samples[: int(round(0.25 * self.RATE))])


def _same_bits(a, b):
    assert a.dtype == b.dtype == np.float64
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestMixdown:
    def test_mono_identity(self):
        buf = AudioBuffer(np.arange(10.0), 8000)
        assert mixdown(buf) is buf

    def test_opposite_channels_cancel(self):
        x = sine(440, 0.1, 8000)
        buf = AudioBuffer(np.stack([x, -x], axis=1), 8000)
        out = mixdown(buf)
        assert out.channels == 1
        assert np.allclose(out.samples, 0.0)

    def test_constant_average(self):
        buf = AudioBuffer(np.stack([np.full(100, 0.2), np.full(100, 0.6)], axis=1), 8000)
        assert np.allclose(mixdown(buf).samples, 0.4)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("channels", range(1, 10))
    def test_equals_mean(self, channels, order):
        rng = np.random.default_rng(channels)
        x = rng.standard_normal((4099, channels)) * 10.0 ** rng.integers(-9, 9, (4099, channels))
        x[:4] = -0.0  # frames of negative zeros, which the mean makes +0.0
        x[4:8, 0] = -0.0
        x[8:12] = [1e300, -1e300, 1e-300, 5.0, 3.0, -2.5, 7.0, 0.1, -4.0][:channels]
        x = np.asarray(x, order=order)
        out = mixdown(AudioBuffer(x, 8000))
        assert out.sample_rate_hz == 8000
        _same_bits(out.samples, x.mean(axis=1))


# name -> (format tag, bytes per sample, extreme stored values: min, max, silence).
# 24-bit samples are stored left-justified in int32.
_KERNEL_CASES = {
    "uint8": (1, 1, [0, 255, 128]),
    "int16": (1, 2, [-32768, 32767, 0]),
    "int24": (1, 3, [-(2**31), (2**23 - 1) << 8, 0]),
    "int32": (1, 4, [-(2**31), 2**31 - 1, 0]),
    "float32": (3, 4, [-1.0, 1.0, -0.0]),
    "float64": (3, 8, [-1.0, 1.0, -0.0]),
}


def _stored(encoding, channels, frames=1031):
    """Random stored samples with rows of every extreme, as the WAV reader holds them."""
    tag, width, extremes = _KERNEL_CASES[encoding]
    dtype, zero, scale = audiolib._ENCODINGS[(tag, width)]
    rng = np.random.default_rng(channels * 17 + width + tag)
    if tag == 3:
        x = rng.uniform(-1, 1, (frames, channels))
    elif width == 3:
        x = rng.integers(-(2**23), 2**23, (frames, channels)) << 8
    else:
        info = np.iinfo(np.dtype(dtype))
        x = rng.integers(info.min, info.max, (frames, channels), endpoint=True)
    x = x.astype(dtype)
    lo, hi, silence = extremes
    x[0], x[1], x[2] = lo, hi, silence  # all-min, all-max and all-silent frames
    x[3, ::2], x[3, 1::2] = lo, hi
    x[4, ::2], x[4, 1::2] = hi, lo
    x[5, ::2] = silence
    if tag == 3:
        x[6] = 0.0
        x[7, 1::2] = -0.0
    return x, zero, scale


class TestKernelOracle:
    """The decode kernels give the bits of the plain numpy expressions they replace."""

    @pytest.mark.parametrize("channels", range(1, 9))
    @pytest.mark.parametrize("encoding", list(_KERNEL_CASES))
    def test_as_float_and_mix(self, encoding, channels):
        data, zero, scale = _stored(encoding, channels)
        expected = (data.astype(np.float64) - zero) / scale
        _same_bits(audiolib._as_float(data, zero, scale), expected)
        _same_bits(audiolib._as_float(data[:, 0], zero, scale), expected[:, 0])
        _same_bits(audiolib._mix(data, zero, scale), expected.mean(axis=1))

    @pytest.mark.parametrize("frame,hop", [(7, 3), (100, 50), (400, 200), (551, 276),
                                           (1102, 551), (1200, 600), (5, 9), (1, 1)])
    def test_frame_rms(self, frame, hop):
        # (100, 50) is trim_silence's grid at 4 kHz, (1102, 551) at 44.1 kHz.
        rng = np.random.default_rng(frame + hop)
        for n in (0, 1, frame - 1, frame, frame + 1, frame + hop, 3 * frame + 2 * hop + 1):
            x = rng.uniform(-1, 1, n)
            padded = np.concatenate([x, np.zeros(max(0, frame - n))])
            frames = np.lib.stride_tricks.sliding_window_view(padded, frame)[::hop]
            _same_bits(audiolib._frame_rms(x, frame, hop), np.sqrt((frames**2).mean(axis=1)))


# name -> (format tag, bytes per sample)
_ENCODINGS = {"uint8": (1, 1), "int16": (1, 2), "int24": (1, 3), "int32": (1, 4),
              "float32": (3, 4), "float64": (3, 8), "extensible": (0xFFFE, 2)}


def _wav_stream(encoding, channels, frames=800, rate=16000):
    """A WAV stream of random samples; float ones include frames of -0.0."""
    tag, width = _ENCODINGS[encoding]
    rng = np.random.default_rng(channels * 31 + width)
    if tag == 3:
        x = rng.uniform(-1, 1, (frames, channels)).astype(f"<f{width}")
        x[:3] = -0.0
        x[3:6, 0] = -0.0
        data = x.tobytes()
    else:
        data = rng.bytes(frames * channels * width)
    return _wav_of(encoding, channels, rate, data)


def _wav_of(encoding, channels, rate, data):
    """A WAV stream of `data`, the frames' bytes in the named encoding."""
    tag, width = _ENCODINGS[encoding]
    block = channels * width
    fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, 8 * width)
    if tag == 0xFFFE:
        guid = struct.pack("<H", 1) + audiolib._SUBFORMAT_GUID_TAIL
        fmt += struct.pack("<HHI", 22, 8 * width, 0) + guid
    return _riff(_chunk(b"fmt ", fmt), _chunk(b"data", data))


class TestMonoLoad:
    @pytest.mark.parametrize("route", ["full", "head", "decoder"])
    @pytest.mark.parametrize("channels", [1, 2, 3, 8])
    @pytest.mark.parametrize("encoding", list(_ENCODINGS))
    def test_equals_mixdown_of_load(self, tmp_path, encoding, channels, route):
        stream = _wav_stream(encoding, channels)
        path = tmp_path / "chapter.wav"
        path.write_bytes(stream)
        kwargs = {"head_s": 0.0123} if route == "head" else {}
        if route == "decoder":
            path = tmp_path / "chapter.raw"  # not .wav: goes through decoder_cmd
            path.write_bytes(stream)
            kwargs = {"decoder_cmd": "cat {input}"}
        full = load_pcm(path, **kwargs)
        assert full.channels == channels
        mono = load_pcm(path, mono=True, **kwargs)
        assert mono.sample_rate_hz == full.sample_rate_hz
        assert mono.num_frames == (197 if route == "head" else 800)
        _same_bits(mono.samples, mixdown(full).samples)


class TestRangeRead:
    RATE = 16000  # _wav_stream's rate; its streams hold 800 frames
    # (offset_s, head_s): from frame 0; off the frame grid; a stop past the
    # end; a start exactly at the frame count; stop == start; stop < start.
    SPANS = [(0.0, 0.01), (0.01234, 0.00777), (0.045, 1.0), (0.05, 0.01),
             (0.02, 0.00001), (0.03, -0.005)]

    @staticmethod
    def _frames(offset_s, head_s, rate):
        """The audio stage's frame range of a record."""
        return int(round(offset_s * rate)), int(round((offset_s + head_s) * rate))

    @pytest.mark.parametrize("route", ["wav", "decoder"])
    @pytest.mark.parametrize("mono", [False, True])
    @pytest.mark.parametrize("channels", [1, 2, 3, 8])
    @pytest.mark.parametrize("encoding", list(_ENCODINGS))
    def test_equals_slice_of_full_load(self, tmp_path, monkeypatch, encoding, channels,
                                       mono, route):
        # Not .wav: the decoder route goes through decoder_cmd.
        path = tmp_path / ("chapter.wav" if route == "wav" else "chapter.raw")
        path.write_bytes(_wav_stream(encoding, channels))
        decoder_cmd = "cat {input}" if route == "decoder" else None
        full = load_pcm(path, decoder_cmd, mono=mono).samples
        pcm = open_pcm(path, decoder_cmd)
        assert pcm.num_frames == 800
        # Both routes read a regular file through os.pread on the one descriptor.
        assert stat.S_ISREG(os.fstat(pcm.fd).st_mode)
        read_from = _recording_pread(monkeypatch)
        for offset_s, head_s in self.SPANS:
            start, stop = self._frames(offset_s, head_s, self.RATE)
            piece = load_pcm(pcm, head_s=head_s, mono=mono, offset_s=offset_s)
            assert piece.sample_rate_hz == self.RATE
            _same_bits(piece.samples, full[start:stop])
        assert set(read_from) == {pcm.fd}

    @pytest.mark.parametrize("mono", [False, True])
    @pytest.mark.parametrize("route", ["wav", "decoder"])
    def test_short_preads_give_full_load(self, tmp_path, monkeypatch, route, mono):
        path = tmp_path / ("chapter.wav" if route == "wav" else "chapter.raw")
        path.write_bytes(_wav_stream("int24", 3))  # 7200 bytes of frames
        decoder_cmd = "cat {input}" if route == "decoder" else None
        full = load_pcm(path, decoder_cmd, mono=mono).samples
        read_from = _recording_pread(monkeypatch, cap=1000)
        _same_bits(load_pcm(path, decoder_cmd, mono=mono).samples, full)
        assert len(read_from) == 8

    def test_declared_size_past_file_end(self, tmp_path):
        stream = _wav_stream("int16", 2)  # 4-byte frames
        path = tmp_path / "cut.wav"
        path.write_bytes(stream[:-1002])  # 549 whole frames and half of one
        full = load_pcm(path).samples
        assert len(full) == 549
        pcm = open_pcm(path)
        assert pcm.num_frames == 549
        for offset_s, head_s in [(0.03, 1.0), (549 / self.RATE, 0.01), (0.04, 0.01)]:
            start, stop = self._frames(offset_s, head_s, self.RATE)
            piece = load_pcm(pcm, head_s=head_s, offset_s=offset_s)
            _same_bits(piece.samples, full[start:stop])

    def test_threads_read_one_file_at_once(self, tmp_path):
        stream = _wav_stream("int24", 3)
        (tmp_path / "chapter.wav").write_bytes(stream)
        (tmp_path / "chapter.raw").write_bytes(stream)  # through decoder_cmd
        spans = [(i / 1000, 0.003 * (i % 5)) for i in range(50)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for name in ("chapter.wav", "chapter.raw"):
                pcm = open_pcm(tmp_path / name, "cat {input}")

                def read(span):
                    return load_pcm(pcm, head_s=span[1], mono=True, offset_s=span[0]).samples

                with ThreadPoolExecutor(max_workers=4) as pool:
                    pieces = list(pool.map(read, spans))
                for span, piece in zip(spans, pieces):
                    _same_bits(piece, read(span))
        finally:
            sys.setswitchinterval(interval)


def _recording_pread(monkeypatch, cap=None):
    """Replace os.pread with one that returns at most `cap` bytes per call;
    returns the list of descriptors it is called on."""
    pread, fds = os.pread, []

    def recording(fd, size, offset):
        fds.append(fd)
        return pread(fd, size if cap is None else min(size, cap), offset)

    monkeypatch.setattr(audiolib.os, "pread", recording)
    return fds


class TestDescriptor:
    @pytest.mark.parametrize("route", ["wav", "decoder"])
    def test_collected_pcm_file_closes_descriptor(self, tmp_path, route):
        path = tmp_path / ("chapter.wav" if route == "wav" else "chapter.raw")
        path.write_bytes(_wav_stream("int16", 2))
        pcm = open_pcm(path, "cat {input}" if route == "decoder" else None)
        fd, ref = pcm.fd, weakref.ref(pcm)
        os.fstat(fd)
        del pcm
        gc.collect()
        assert ref() is None
        with pytest.raises(OSError) as err:
            os.fstat(fd)
        assert err.value.errno == errno.EBADF

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("decoder_cmd,error", [
        ("false {input}", subprocess.CalledProcessError),  # fails
        ("echo {input}", AudioError),  # writes no WAV
        ("true {input}", AudioError),  # writes nothing
        ("speechcurate-no-such-decoder {input}", FileNotFoundError),
    ])
    def test_failed_decode_leaves_no_descriptor(self, tmp_path, monkeypatch,
                                                decoder_cmd, error):
        path = tmp_path / "chapter.raw"
        path.write_bytes(_wav_stream("int16", 1))
        spool = tmp_path / "spool"
        spool.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spool))
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(error):
            open_pcm(path, decoder_cmd)
        assert len(os.listdir("/proc/self/fd")) == before
        assert list(spool.iterdir()) == []


class TestResample:
    def test_tone_survives_48_to_44(self):
        buf = AudioBuffer(sine(1000, 2.0, 48000), 48000)
        out = resample(buf, 44100)
        assert out.sample_rate_hz == 44100
        # duration preserved within one output sample
        assert abs(out.duration_s - buf.duration_s) <= 1 / 44100
        core = out.samples[2000:-2000]
        spectrum = np.abs(np.fft.rfft(core))
        peak_hz = np.argmax(spectrum) * 44100 / len(core)
        assert abs(peak_hz - 1000) < 5
        amplitude = np.sqrt(2) * np.std(core)
        assert abs(amplitude - 1.0) <= 0.01

    def test_identity_rate_bit_identical(self):
        buf = AudioBuffer(sine(1000, 0.5, 44100), 44100)
        assert resample(buf, 44100) is buf

    @pytest.mark.parametrize("source_hz,target_hz", [
        (48000, 44100), (44100, 22050), (48000, 22050), (48000, 16000)])
    def test_stopband_attenuated_69db(self, source_hz, target_hz):
        # 60 tones from the stop frequency (the lower Nyquist) up to the
        # source Nyquist; the worst measured is -69.9 dB, at 48 -> 44.1 kHz.
        f_stop = 0.5 * min(source_hz, target_hz)
        for freq in np.linspace(f_stop, 0.5 * source_hz, 60, endpoint=False):
            buf = AudioBuffer(sine(freq, 1.0, source_hz), source_hz)
            rms_out = np.std(resample(buf, target_hz).samples[2000:-2000])
            assert 20 * np.log10(rms_out / np.std(buf.samples)) <= -69, freq

    def test_round_trip_preserves_tone(self):
        buf = AudioBuffer(sine(1000, 2.0, 48000), 48000)
        back = resample(resample(buf, 44100), 48000)
        n = min(back.num_frames, buf.num_frames)
        err = np.std(back.samples[4000:n - 4000] - buf.samples[4000:n - 4000])
        assert err / np.std(buf.samples) <= 0.02

    def test_stereo_rejected(self):
        buf = AudioBuffer(np.zeros((100, 2)), 48000)
        with pytest.raises(AudioError):
            resample(buf, 44100)

    @pytest.mark.parametrize("target_hz", [0, -16000])
    def test_rate_not_above_zero_rejected(self, target_hz):
        with pytest.raises(AudioError, match=f"target rate must be > 0, got {target_hz}"):
            resample(AudioBuffer(np.zeros(100), 48000), target_hz)


def silence_tone_silence(lead_s, tone_s, tail_s, sr=16000):
    return np.concatenate([
        np.zeros(int(lead_s * sr)),
        sine(440, tone_s, sr, amplitude=0.5),
        np.zeros(int(tail_s * sr)),
    ])


class TestTrimSilence:
    HOP = 0.0125

    def test_stereo_rejected(self):
        with pytest.raises(AudioError, match="trim_silence expects a mono buffer"):
            trim_silence(AudioBuffer(np.zeros((100, 2)), 16000))

    def test_trims_long_edges(self):
        sr = 16000
        buf = AudioBuffer(silence_tone_silence(2.0, 1.0, 2.0, sr), sr)
        result = trim_silence(buf)
        assert result.trimmed.duration_s == pytest.approx(2.0, abs=2 * self.HOP)
        assert result.leading_removed_s == pytest.approx(1.5, abs=2 * self.HOP)
        assert result.trailing_removed_s == pytest.approx(1.5, abs=2 * self.HOP)

    def test_no_edge_silence_is_identity(self):
        sr = 16000
        buf = AudioBuffer(sine(440, 1.0, sr, amplitude=0.5), sr)
        result = trim_silence(buf)
        assert result.leading_removed_s == 0.0
        assert result.trailing_removed_s == 0.0
        assert result.trimmed.num_frames == buf.num_frames

    def test_all_zero_flags_empty(self):
        # Zeros have no peak. A threshold above the peak (negative dB) or a
        # NaN sample, which makes the peak NaN, leaves no frame active.
        tone = sine(440, 1.0, 16000, amplitude=0.5)
        with_nan = tone.copy()
        with_nan[100] = np.nan
        for samples, threshold_db in [(np.zeros(16000), 50.0), (tone, -6.0),
                                      (with_nan, 50.0)]:
            buf = AudioBuffer(samples, 16000)
            result = trim_silence(buf, threshold_db=threshold_db)
            assert result.trimmed.num_frames == 0
            assert result.leading_removed_s == buf.duration_s
            assert result.trailing_removed_s == 0.0

    def test_durations_conserved(self):
        sr = 16000
        buf = AudioBuffer(silence_tone_silence(1.3, 0.8, 0.9, sr), sr)
        result = trim_silence(buf)
        total = (result.trimmed.duration_s + result.leading_removed_s
                 + result.trailing_removed_s)
        assert total == pytest.approx(buf.duration_s, abs=self.HOP)

    def test_idempotent_within_one_hop(self):
        sr = 16000
        buf = AudioBuffer(silence_tone_silence(1.0, 1.0, 1.0, sr), sr)
        once = trim_silence(buf).trimmed
        twice = trim_silence(once)
        removed = twice.leading_removed_s + twice.trailing_removed_s
        assert removed <= self.HOP + 1e-9

    def test_never_removes_active_audio(self):
        sr = 16000
        buf = AudioBuffer(silence_tone_silence(0.7, 1.1, 0.4, sr), sr)
        result = trim_silence(buf)
        # the tone spans [0.7, 1.8]; kept span must cover it
        start = result.leading_removed_s
        end = buf.duration_s - result.trailing_removed_s
        assert start <= 0.7 + 1e-9
        assert end >= 1.8 - 1e-9


def _scipy_taps(source_hz, target_hz):
    """The filter design the resampler implements, built with scipy.signal."""
    frac = Fraction(target_hz, source_hz)
    up, down = frac.numerator, frac.denominator
    f_stop = 0.5 * min(source_hz, target_hz)
    f_pass = 0.9 * f_stop
    numtaps, beta = signal.kaiserord(70.0, (f_stop - f_pass) / (source_hz * up / 2))
    numtaps |= 1
    taps = signal.firwin(numtaps, (f_pass + f_stop) / (source_hz * up),
                         window=("kaiser", beta))
    return up, down, taps


RATE_PAIRS = [(48000, 44100), (44100, 22050), (48000, 22050),
              (22050, 44100), (16000, 44100), (44100, 48000),
              (47952, 44100)]


def _int16(x):
    return np.clip(np.round(x * 32768.0), -32768, 32767).astype(np.int16)


class TestResampleOracle:
    @pytest.mark.parametrize("source_hz,target_hz", RATE_PAIRS)
    def test_matches_resample_poly(self, source_hz, target_hz):
        up, down, taps = _scipy_taps(source_hz, target_hz)
        rng = np.random.default_rng(source_hz + target_hz)
        lengths = [0, 1, 2, up, down, len(taps) - 1, len(taps), len(taps) + 1, 10**5 + 1]
        for n in lengths:
            x = rng.uniform(-1.0, 1.0, n)
            got = resample(AudioBuffer(x, source_hz), target_hz)
            want = signal.resample_poly(x, up, down, window=taps)
            assert got.sample_rate_hz == target_hz
            assert got.samples.shape == want.shape, n
            np.testing.assert_allclose(got.samples, want, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(_int16(got.samples), _int16(want))

    def test_filter_cache_read_only(self):
        resample(AudioBuffer(np.zeros(10), 48000), 44100)
        poly = audiolib._design_filter(48000, 44100)
        assert poly.bands
        for _, _, taps in poly.bands:
            assert taps.flags.c_contiguous
            with pytest.raises(ValueError):
                taps[0, 0] = 1.0


# Counts every float the design stores, whatever its layout, in a child
# process whose address space is capped at 1 GiB above what the imports
# took: a design whose size grows with up * down fails there in seconds,
# as a MemoryError or on the size, instead of exhausting the machine.
_DESIGN_SIZE_CHILD = """
import dataclasses, os, resource, sys
import numpy as np
from speechcurate.audio import _design_filter

def stored(value):
    if isinstance(value, np.ndarray):
        return value.size
    if isinstance(value, (tuple, list)):
        return sum(stored(v) for v in value)
    if dataclasses.is_dataclass(value):
        return sum(stored(getattr(value, f.name)) for f in dataclasses.fields(value))
    return 0

with open("/proc/self/statm") as fh:
    used = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
resource.setrlimit(resource.RLIMIT_AS, (used + 2**30, used + 2**30))
print(stored(_design_filter(int(sys.argv[1]), int(sys.argv[2]))))
"""


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="needs Linux /proc")
@pytest.mark.parametrize("source_hz", [47952, 44056, 44101])
def test_design_size_linear_in_numtaps(source_hz):
    # Whole-row tap matrices would hold 15x numtaps at 47952 Hz, and
    # 44187 x 44100 floats (15.6 GB) at 44101 Hz.
    target_hz = 44100
    f_stop = 0.5 * min(source_hz, target_hz)
    up = Fraction(target_hz, source_hz).numerator
    numtaps, _ = signal.kaiserord(70.0, 0.1 * f_stop / (source_hz * up / 2))
    numtaps |= 1
    src = Path(audiolib.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", _DESIGN_SIZE_CHILD, str(source_hz), str(target_hz)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr[-2000:]
    assert int(out.stdout) <= 1.5 * numtaps


class TestWavWriter:
    @pytest.mark.parametrize("bit_depth", [16, 32])
    @pytest.mark.parametrize("shape", [(0,), (1000,), (1000, 2), (0, 2)])
    def test_bytes_equal_wavfile_write(self, tmp_path, bit_depth, shape):
        x = np.random.default_rng(3).uniform(-1.1, 1.1, shape)
        save_pcm(AudioBuffer(x, 22050), tmp_path / "ours.wav", bit_depth=bit_depth)
        data = _int16(x) if bit_depth == 16 else x.astype(np.float32)
        wavfile.write(str(tmp_path / "scipy.wav"), 22050, data)
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()

    def test_non_contiguous_stereo(self, tmp_path):
        x = np.random.default_rng(4).uniform(-1, 1, (2, 500)).T  # Fortran order
        save_pcm(AudioBuffer(x, 8000), tmp_path / "f.wav")
        np.testing.assert_array_equal(wavfile.read(str(tmp_path / "f.wav"))[1], _int16(x))


def _enveloped_stream(encoding, channels, rate, frames, seed):
    """A WAV stream of noise between quiet edges: the middle half is loud and
    holds a frame of each full-scale value, the quarters either side are
    80 dB down."""
    tag, width = _ENCODINGS[encoding]
    dtype, zero, scale = audiolib._ENCODINGS[(1 if tag == 0xFFFE else tag, width)]
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1e-4, 1e-4, (frames, channels))
    loud = slice(frames // 4, 3 * frames // 4)
    x[loud] = rng.uniform(-1, 1, x[loud].shape)
    x[frames // 2], x[frames // 2 + 1] = -1.0, 1.0
    if tag == 3:
        data = x.astype(dtype).tobytes()
    elif width == 3:  # the low three bytes of each little-endian int32
        ints = np.clip(np.round(x * 2**23), -(2**23), 2**23 - 1).astype("<i4")
        data = ints.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    else:
        info = np.iinfo(np.dtype(dtype))
        data = np.clip(np.round(x * scale + zero), info.min, info.max).astype(dtype).tobytes()
    return _wav_of(encoding, channels, rate, data)


class TestKeptWriter:
    """write_kept writes the bytes save_pcm writes for the kept frames. It
    copies source bytes only from a 16-bit mono source at the buffer's rate."""

    RATE = 16000
    FRAMES = 16000

    @staticmethod
    def _kept(pcm, offset_s, duration_s, edge_s, target_hz):
        """(first frame, trimmed buffer) of a record, as the audio stage takes them."""
        piece = resample(load_pcm(pcm, head_s=duration_s, mono=True, offset_s=offset_s),
                         target_hz)
        trim = trim_silence(piece, max_edge_silence_s=edge_s)
        first = round(offset_s * pcm.sample_rate_hz) + round(trim.leading_removed_s * target_hz)
        return first, trim.trimmed

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("encoding,channels,target_hz,copied", [
        ("int16", 1, 16000, True),
        ("extensible", 1, 16000, True),
        ("uint8", 1, 16000, False),
        ("int24", 1, 16000, False),
        ("int32", 1, 16000, False),
        ("float32", 1, 16000, False),
        ("float64", 1, 16000, False),
        ("int16", 2, 16000, False),
        ("extensible", 2, 16000, False),
        ("int16", 1, 22050, False),
        ("int16", 1, 8000, False),
    ])
    def test_bytes_equal_save_pcm(self, tmp_path, monkeypatch, encoding, channels,
                                  target_hz, copied, seed):
        path = tmp_path / "chapter.wav"
        path.write_bytes(_enveloped_stream(encoding, channels, self.RATE, self.FRAMES, seed))
        pcm = open_pcm(path)
        save_pcm_, saved = audiolib.save_pcm, []

        def recording(buf, out, *args):
            saved.append(out)
            save_pcm_(buf, out, *args)

        monkeypatch.setattr(audiolib, "save_pcm", recording)
        rng = np.random.default_rng(seed)
        spans = 8
        for _ in range(spans):
            # Offsets in the quiet lead, the loud middle and the quiet tail;
            # durations up to past the end; edges of none, some and more
            # than the record.
            offset_s = rng.uniform(0.0, 0.95)
            duration_s = rng.uniform(0.001, 1.2)
            edge_s = (0.0, rng.uniform(0.0, 0.3), 10.0)[rng.integers(3)]
            first, trimmed = self._kept(pcm, offset_s, duration_s, edge_s, target_hz)
            save_pcm_(trimmed, tmp_path / "saved.wav")
            audiolib.write_kept(pcm, first, trimmed, tmp_path / "kept.wav")
            assert ((tmp_path / "kept.wav").read_bytes()
                    == (tmp_path / "saved.wav").read_bytes()), (offset_s, duration_s, edge_s)
        assert len(saved) == (0 if copied else spans)

    def test_copy_from_decoder_output(self, tmp_path):
        path = tmp_path / "chapter.raw"  # not .wav: goes through decoder_cmd
        path.write_bytes(_enveloped_stream("int16", 1, self.RATE, self.FRAMES, 0))
        pcm = open_pcm(path, "cat {input}")
        first, trimmed = self._kept(pcm, 0.1, 0.5, 0.05, self.RATE)
        assert first > round(0.1 * self.RATE)  # some lead was trimmed
        save_pcm(trimmed, tmp_path / "saved.wav")
        audiolib.write_kept(pcm, first, trimmed, tmp_path / "kept.wav")
        assert (tmp_path / "kept.wav").read_bytes() == (tmp_path / "saved.wav").read_bytes()

    def test_shrunk_source_raises_before_writing(self, tmp_path):
        path = tmp_path / "chapter.wav"
        path.write_bytes(_enveloped_stream("int16", 1, self.RATE, self.FRAMES, 0))
        pcm = open_pcm(path)
        first, trimmed = self._kept(pcm, 0.0, 1.0, 0.1, self.RATE)
        # The file loses the last kept frame's second byte after it was read.
        os.truncate(path, pcm.data_offset + 2 * (first + trimmed.num_frames) - 1)
        with pytest.raises(AudioError, match="frames left"):
            audiolib.write_kept(pcm, first, trimmed, tmp_path / "kept.wav")
        assert not (tmp_path / "kept.wav").exists()

    def test_failed_read_raises_audio_error(self, tmp_path, monkeypatch):
        path = tmp_path / "chapter.wav"
        path.write_bytes(_enveloped_stream("int16", 1, self.RATE, self.FRAMES, 0))
        pcm = open_pcm(path)
        first, trimmed = self._kept(pcm, 0.0, 1.0, 0.1, self.RATE)

        def failing(fd, size, offset):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(audiolib.os, "pread", failing)
        with pytest.raises(AudioError) as info:
            audiolib.write_kept(pcm, first, trimmed, tmp_path / "kept.wav")
        assert isinstance(info.value.__cause__, OSError)
        assert not (tmp_path / "kept.wav").exists()


class TestToFrames:
    @pytest.mark.parametrize("seconds,expected", [
        (0.0, 0), (0.5, 8000), (1.0, 16000), (0.99996, 15999), (1.00003, 16000),
        (2.0, 16000), (1e308, 16000), (float("inf"), 16000), (-1.0, 0),
        (-1e308, 0), (1.5 / 16000, 2), (2.5 / 16000, 2),
    ])
    def test_rounds_and_clips(self, seconds, expected):
        # Round half to even, as round() does; then clipped to [0, 16000].
        assert audiolib.to_frames(seconds, 16000, 16000) == expected

    def test_under_the_limit_rounds_as_before(self):
        rng = np.random.default_rng(7)
        for seconds in rng.uniform(0, 100, 1000):
            assert audiolib.to_frames(seconds, 44100, 10**9) == int(round(seconds * 44100))


def _chunk(chunk_id, body):
    return chunk_id + struct.pack("<I", len(body)) + body + b"\x00" * (len(body) & 1)


def _riff(*chunks, riff_size=None):
    body = b"WAVE" + b"".join(chunks)
    size = len(body) if riff_size is None else riff_size
    return b"RIFF" + struct.pack("<I", size) + body


class TestWavReader:
    RATE = 16000

    def _pcm16(self, channels=2, frames=800):
        rng = np.random.default_rng(6)
        return rng.integers(-32768, 32768, (frames, channels), dtype=np.int16)

    def _fmt16(self, channels):
        return struct.pack("<HHIIHH", 1, channels, self.RATE, self.RATE * 2 * channels,
                           2 * channels, 16)

    @pytest.mark.parametrize("fmt,message", [
        (struct.pack("<HHIIH", 1, 1, 16000, 32000, 2), "fmt chunk shorter than 16 bytes"),
        # WAVE_FORMAT_EXTENSIBLE without the 24 bytes that carry its SubFormat.
        (struct.pack("<HHIIHH", 0xFFFE, 1, 16000, 32000, 2, 16),
         "WAVE_FORMAT_EXTENSIBLE without a known SubFormat"),
        # A SubFormat GUID that is not the KSDATAFORMAT_SUBTYPE_* pattern.
        (struct.pack("<HHIIHHHHI", 0xFFFE, 1, 16000, 32000, 2, 16, 22, 16, 0x4)
         + struct.pack("<H", 1) + b"\x01" * 14, "WAVE_FORMAT_EXTENSIBLE without a known SubFormat"),
    ], ids=["short", "extensible-short", "extensible-unknown-guid"])
    def test_bad_fmt_chunk_named(self, tmp_path, fmt, message):
        path = tmp_path / "bad.wav"
        path.write_bytes(_riff(_chunk(b"fmt ", fmt), _chunk(b"data", b"\x00" * 8)))
        with pytest.raises(AudioError, match=message):
            load_pcm(path)

    def test_extensible(self, tmp_path):
        ints = self._pcm16()
        guid = struct.pack("<H", 1) + b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
        fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 2, self.RATE, self.RATE * 4, 4, 16,
                          22, 16, 0x3) + guid
        path = tmp_path / "ext.wav"
        path.write_bytes(_riff(_chunk(b"fmt ", fmt), _chunk(b"data", ints.tobytes())))
        buf = load_pcm(path)
        np.testing.assert_array_equal(buf.samples, ints / 32768.0)
        np.testing.assert_array_equal(buf.samples, wavfile.read(str(path))[1] / 32768.0)

    def test_odd_sized_chunk_before_data(self, tmp_path):
        ints = self._pcm16(channels=1)
        path = tmp_path / "list.wav"
        path.write_bytes(_riff(_chunk(b"fmt ", self._fmt16(1)),
                               _chunk(b"LIST", b"INFOx"),  # 5 bytes plus a pad byte
                               _chunk(b"data", ints.tobytes())))
        np.testing.assert_array_equal(load_pcm(path).samples, ints[:, 0] / 32768.0)

    def test_pipe_sizes_through_decoder(self, tmp_path):
        # A WAV written to a pipe declares 0xFFFFFFFF for the RIFF and data sizes.
        ints = self._pcm16()
        stream = _riff(_chunk(b"fmt ", self._fmt16(2)),
                       b"data" + struct.pack("<I", 0xFFFFFFFF) + ints.tobytes()
                       + b"\x01",  # a trailing partial frame is dropped
                       riff_size=0xFFFFFFFF)
        path = tmp_path / "chapter.raw"  # not .wav: goes through decoder_cmd
        path.write_bytes(stream)
        np.testing.assert_array_equal(load_pcm(path, "cat {input}").samples, ints / 32768.0)
        head = load_pcm(path, "cat {input}", head_s=0.01)
        np.testing.assert_array_equal(head.samples, ints[:160] / 32768.0)

    def test_truncated_after_head_loads_head(self, tmp_path):
        ints = self._pcm16(frames=self.RATE)
        full = _riff(_chunk(b"fmt ", self._fmt16(2)), _chunk(b"data", ints.tobytes()))
        head_frames = 4000
        path = tmp_path / "cut.wav"
        # The data chunk still declares 1 s; the file ends one sample into
        # the frame after the head.
        path.write_bytes(full[:len(full) - ints.nbytes + head_frames * 4 + 2])
        head = load_pcm(path, head_s=head_frames / self.RATE)
        np.testing.assert_array_equal(head.samples, ints[:head_frames] / 32768.0)

    @pytest.mark.parametrize("stream", [
        b"RIFX" + struct.pack(">I", 36) + b"WAVE" + b"fmt " + struct.pack(
            ">IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16) + b"data" + struct.pack(">I", 0),
        b"RF64" + b"\xff" * 4 + b"WAVEds64" + b"\x00" * 40,
        np.random.default_rng(9).bytes(200),
        _riff(_chunk(b"fmt ", struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16))),
        _riff(_chunk(b"data", b"\x00" * 8)),
        _riff(_chunk(b"fmt ", struct.pack("<HHIIHH", 2, 1, 16000, 32000, 2, 16)),
              _chunk(b"data", b"\x00" * 8)),  # ADPCM
        _riff(_chunk(b"fmt ", struct.pack("<HHIIHH", 1, 0, 16000, 0, 0, 16)),
              _chunk(b"data", b"")),
    ], ids=["rifx", "rf64", "random", "no-data", "no-fmt", "adpcm", "no-channels"])
    def test_unreadable_raises_audio_error(self, tmp_path, stream):
        path = tmp_path / "bad.wav"
        path.write_bytes(stream)
        with pytest.raises(AudioError):
            load_pcm(path)


def test_import_loads_no_scipy():
    src = Path(audiolib.__file__).resolve().parents[1]
    code = ("import sys, speechcurate, speechcurate.cli, speechcurate.pipeline; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
