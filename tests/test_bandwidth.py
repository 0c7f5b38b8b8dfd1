import numpy as np
import pytest

from speechcurate.audio import AudioBuffer, resample
from speechcurate.bandwidth import (
    SPECTRUM_BLOCK_FRAMES,
    BandwidthError,
    PowerSpectrum,
    chapter_bandwidth,
    estimate_bandwidth,
    mean_power_spectrum,
)
from speechcurate.curation import CurationError, build_subset
from speechcurate.manifest import SubsetSpec, UtteranceRecord

from conftest import lowpassed_noise, sine

SPEC_22K = SubsetSpec(min_bandwidth_hz=11000)
SPEC_44K = SubsetSpec(min_bandwidth_hz=13000)


def make_record(bandwidth_hz):
    return UtteranceRecord(
        utterance_id="u1", book_id="b", chapter_id="c", speaker_id="s",
        audio_path="a.wav", offset_s=0.0, duration_s=1.0, raw_text="x",
        bandwidth_hz=bandwidth_hz,
    )


class TestMeanPowerSpectrum:
    def test_tone_peak_bin(self):
        buf = AudioBuffer(sine(1000, 2.0, 44100), 44100)
        spec = mean_power_spectrum(buf)
        peak_hz = np.argmax(spec.psd) * spec.bin_hz
        assert abs(peak_hz - 1000) <= spec.bin_hz

    def test_white_noise_flat_within_10db(self):
        rng = np.random.default_rng(3)
        buf = AudioBuffer(rng.standard_normal(44100 * 3), 44100)
        spec = mean_power_spectrum(buf)
        n_frames = (buf.num_frames - 2048) // 1024 + 1
        assert n_frames >= 25
        body = spec.psd[1:]  # exclude DC
        assert 10 * np.log10(body.max() / body.min()) <= 10

    def test_all_zero_input(self):
        buf = AudioBuffer(np.zeros(8192), 44100)
        spec = mean_power_spectrum(buf)
        assert np.all(spec.psd == 0.0)

    def test_stereo_errors(self):
        buf = AudioBuffer(np.zeros((8192, 2)), 44100)
        with pytest.raises(BandwidthError, match="expects a mono buffer"):
            mean_power_spectrum(buf)

    def test_too_short_errors(self):
        buf = AudioBuffer(np.zeros(100), 44100)
        with pytest.raises(BandwidthError, match="shorter"):
            mean_power_spectrum(buf)

    @pytest.mark.parametrize("n_frames", [
        1, SPECTRUM_BLOCK_FRAMES - 1, SPECTRUM_BLOCK_FRAMES, SPECTRUM_BLOCK_FRAMES + 1,
        2 * SPECTRUM_BLOCK_FRAMES + 1])
    def test_blocks_bit_equal_to_one_shot(self, n_frames):
        n_fft, hop = 2048, 1024  # the defaults at 44.1 kHz
        x = np.random.default_rng(n_frames).standard_normal(n_fft + (n_frames - 1) * hop)
        frames = np.lib.stride_tricks.sliding_window_view(x, n_fft)[::hop]
        assert len(frames) == n_frames
        one_shot = (np.abs(np.fft.rfft(frames * np.blackman(n_fft), axis=1)) ** 2).mean(0)
        np.testing.assert_array_equal(mean_power_spectrum(AudioBuffer(x, 44100)).psd,
                                      one_shot)


class TestEstimateBandwidth:
    def test_synthetic_psd_direct(self):
        # 10*log10(1e-6) = -60 dB < -50, so bins 2..3 are excluded
        spec = PowerSpectrum(
            psd=np.array([1.0, 1.0, 1e-6, 1e-6]), bin_hz=5512.5, nyquist_hz=22050.0
        )
        est = estimate_bandwidth(spec)
        assert est.f_max_hz == pytest.approx(5512.5)
        assert not est.degenerate

    def test_lowpassed_noise(self):
        x = lowpassed_noise(8000, 10.0, 48000, seed=11)
        buf = resample(AudioBuffer(x, 48000), 44100)
        spec = mean_power_spectrum(buf)
        est = estimate_bandwidth(spec)
        assert abs(est.f_max_hz - 8000) <= 3 * spec.bin_hz

    def test_full_band_noise(self):
        rng = np.random.default_rng(5)
        buf = AudioBuffer(rng.standard_normal(44100 * 5), 44100)
        est = estimate_bandwidth(mean_power_spectrum(buf))
        assert est.f_max_hz >= 0.98 * 22050

    def test_zero_spectrum_degenerate(self):
        spec = PowerSpectrum(psd=np.zeros(10), bin_hz=10.0, nyquist_hz=50.0)
        est = estimate_bandwidth(spec)
        assert est.degenerate
        assert est.f_max_hz == 0.0

    def test_scale_invariance(self):
        x = lowpassed_noise(6000, 5.0, 44100, seed=9)
        est1 = estimate_bandwidth(mean_power_spectrum(AudioBuffer(x, 44100)))
        est2 = estimate_bandwidth(mean_power_spectrum(AudioBuffer(x * 7.5, 44100)))
        assert est1.f_max_hz == est2.f_max_hz

    def test_threshold_inclusive_at_boundary(self):
        psd = np.array([1.0, 10.0 ** (-5.0), 1e-12])  # exactly -50 dB at bin 1
        spec = PowerSpectrum(psd=psd, bin_hz=100.0, nyquist_hz=150.0)
        assert estimate_bandwidth(spec).f_max_hz == pytest.approx(100.0)


class TestChapterBandwidth:
    def test_analyzes_first_30s_only(self):
        sr = 22050
        # 30 s of 10 kHz noise then 30 s of full-band noise: the tail, whose
        # estimate is higher, changes nothing
        head = lowpassed_noise(10000, 30.0, sr, seed=2)
        tail = lowpassed_noise(sr / 2, 30.0, sr, seed=5)
        est = chapter_bandwidth(AudioBuffer(np.concatenate([head, tail]), sr), sr)
        assert est == chapter_bandwidth(AudioBuffer(head, sr), sr)
        assert 9000 < est.f_max_hz < chapter_bandwidth(AudioBuffer(tail, sr), sr).f_max_hz

    def test_short_file_uses_all(self):
        sr = 22050
        buf = AudioBuffer(lowpassed_noise(8000, 10.0, sr, seed=3), sr)
        assert chapter_bandwidth(buf, sr) == estimate_bandwidth(mean_power_spectrum(buf))

    def test_shorter_than_one_window_degenerate(self):
        est = chapter_bandwidth(AudioBuffer(sine(1000, 1000 / 44100, 44100), 44100), 44100)
        assert est.degenerate

    def test_utterances_inherit_estimate(self):
        sr = 44100
        est = chapter_bandwidth(AudioBuffer(lowpassed_noise(8000, 12.0, sr, seed=4), sr), sr)
        bw = int(round(est.f_max_hz))
        recs = [make_record(None).with_fields(utterance_id=f"u{i}", bandwidth_hz=bw)
                for i in range(3)]
        assert all(abs(r.bandwidth_hz - 8000) < 100 for r in recs)


class TestBandwidthGate:
    """The subset bandwidth gate, which `build_subset` applies."""

    def test_12k_passes_22k_subset(self):
        assert build_subset([make_record(12000)], SPEC_22K)

    def test_12k_fails_44k_subset(self):
        assert not build_subset([make_record(12000)], SPEC_44K)

    def test_boundary_inclusive(self):
        assert build_subset([make_record(11000)], SPEC_22K)
        assert build_subset([make_record(13000)], SPEC_44K)

    def test_missing_bandwidth_errors(self):
        with pytest.raises(CurationError, match="bandwidth"):
            build_subset([make_record(None)], SPEC_22K)

    def test_gate_monotonicity(self):
        records = [make_record(bw).with_fields(utterance_id=f"u{bw}")
                   for bw in range(4000, 22001, 500)]
        loose = build_subset(records, SPEC_22K)
        tight = build_subset(records, SPEC_44K)
        assert set(r.bandwidth_hz for r in tight) <= set(r.bandwidth_hz for r in loose)


def test_upsampled_audio_keeps_original_nyquist():
    # 8 kHz-bandwidth content carried at 44.1 kHz must not estimate above
    # its true Nyquist by more than 3 bins.
    x = lowpassed_noise(8000, 5.0, 16000, seed=6)
    buf = resample(AudioBuffer(x, 16000), 44100)
    spec = mean_power_spectrum(buf)
    est = estimate_bandwidth(spec)
    assert est.f_max_hz <= 8000 + 3 * spec.bin_hz
