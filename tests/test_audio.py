import struct

import numpy as np
import pytest
from scipy.io import wavfile

from speechcurate.audio import (
    AudioBuffer,
    AudioError,
    load_pcm,
    mixdown,
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
