import os
import struct
import subprocess
import sys
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
    def test_equals_slice_of_full_load(self, tmp_path, encoding, channels, mono, route):
        # Not .wav: the decoder route goes through decoder_cmd.
        path = tmp_path / ("chapter.wav" if route == "wav" else "chapter.raw")
        path.write_bytes(_wav_stream(encoding, channels))
        decoder_cmd = "cat {input}" if route == "decoder" else None
        full = load_pcm(path, decoder_cmd, mono=mono).samples
        pcm = open_pcm(path, decoder_cmd)
        assert pcm.num_frames == 800
        assert (pcm.stream is None) == (route == "wav")
        for offset_s, head_s in self.SPANS:
            start, stop = self._frames(offset_s, head_s, self.RATE)
            piece = load_pcm(pcm, head_s=head_s, mono=mono, offset_s=offset_s)
            assert piece.sample_rate_hz == self.RATE
            _same_bits(piece.samples, full[start:stop])

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
        path = tmp_path / "chapter.wav"
        path.write_bytes(_wav_stream("int24", 3))
        pcm = open_pcm(path)
        spans = [(i / 1000, 0.003 * (i % 5)) for i in range(50)]

        def read(span):
            return load_pcm(pcm, head_s=span[1], mono=True, offset_s=span[0]).samples

        with ThreadPoolExecutor(max_workers=4) as pool:
            pieces = list(pool.map(read, spans))
        for span, piece in zip(spans, pieces):
            _same_bits(piece, read(span))


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

    def test_above_nyquist_attenuated_60db(self):
        buf = AudioBuffer(sine(23000, 2.0, 48000), 48000)
        out = resample(buf, 44100)
        rms_in = np.std(buf.samples)
        rms_out = np.std(out.samples[2000:-2000])
        assert 20 * np.log10(rms_out / rms_in + 1e-12) <= -60

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


def silence_tone_silence(lead_s, tone_s, tail_s, sr=16000):
    return np.concatenate([
        np.zeros(int(lead_s * sr)),
        sine(440, tone_s, sr, amplitude=0.5),
        np.zeros(int(tail_s * sr)),
    ])


class TestTrimSilence:
    HOP = 0.0125

    def test_trims_long_edges(self):
        sr = 16000
        buf = AudioBuffer(silence_tone_silence(2.0, 1.0, 2.0, sr), sr)
        result = trim_silence(buf)
        assert not result.empty_after_trim
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
        buf = AudioBuffer(np.zeros(16000), 16000)
        result = trim_silence(buf)
        assert result.empty_after_trim
        assert result.trimmed.num_frames == 0

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
              (22050, 44100), (16000, 44100), (44100, 48000)]


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
        with pytest.raises(ValueError):
            poly.taps[0, 0] = 1.0


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
