import json
import re
import weakref
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from scipy.io import wavfile

from speechcurate import audio as audiolib
from speechcurate import pipeline as pipeline_mod
from speechcurate.audio import AudioBuffer, load_pcm, save_pcm
from speechcurate.bandwidth import chapter_bandwidth
from speechcurate.cli import main
from speechcurate.config import PipelineConfig, validate_config
from speechcurate.manifest import (
    ChapterRecord,
    UtteranceRecord,
    read_chapters,
    read_manifest,
    write_chapters,
    write_manifest,
)
from speechcurate.pipeline import (
    EXIT_PARTIAL,
    ConfigError,
    StageError,
    run_pipeline,
)

from corpus_harness import build_corpus, make_config


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    return build_corpus(root)


@pytest.fixture(scope="module")
def pipeline_out(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    config = make_config(corpus, out)
    result = run_pipeline(config)
    return out, result


class TestRunPipeline:
    def test_six_stage_reports(self, pipeline_out):
        _, result = pipeline_out
        assert [r.stage for r in result.reports] == [
            "text", "audio", "bandwidth", "segment", "validate", "speakers"]

    def test_exit_partial_when_rejects_present(self, pipeline_out):
        _, result = pipeline_out
        assert result.exit_code == EXIT_PARTIAL

    def test_final_manifest_metadata_complete(self, pipeline_out):
        out, result = pipeline_out
        records = read_manifest(result.final_manifest)
        assert records, "final manifest must not be empty"
        for rec in records:
            assert rec.text
            assert rec.text_source in ("book_match", "predicted_pc")
            assert rec.bandwidth_hz is not None
            assert rec.wer_pct is not None
            assert rec.cer_pct is not None
            assert rec.num_speakers is not None
            assert rec.duration_s <= 20.0

    def test_record_counts_consistent_across_stages(self, pipeline_out):
        _, result = pipeline_out
        for report in result.reports:
            splits = report.extras.get("split_parents", 0)
            assert report.records_in - report.records_dropped + splits == (
                report.records_out)

    def test_predicted_pc_fallback(self, pipeline_out):
        _, result = pipeline_out
        records = {r.utterance_id: r for r in read_manifest(result.final_manifest)}
        assert records["ch0_0001"].text_source == "predicted_pc"
        book_matched = [r for r in records.values() if r.text_source == "book_match"]
        assert len(book_matched) > len(records) // 2

    def test_bandwidth_tracks_chapter_cutoff(self, pipeline_out):
        _, result = pipeline_out
        records = read_manifest(result.final_manifest)
        by_chapter = {}
        for rec in records:
            by_chapter.setdefault(rec.chapter_id, set()).add(rec.bandwidth_hz)
        for chapter_id, cutoff in [("ch0", 8000), ("ch1", 12000),
                                   ("ch2", 14000), ("ch3", 20000)]:
            (bw,) = by_chapter[chapter_id]  # all utterances inherit one estimate
            assert abs(bw - cutoff) < 150, chapter_id

    def test_splits_present_with_exact_duration_partition(self, pipeline_out):
        out, result = pipeline_out
        records = {r.utterance_id: r for r in read_manifest(result.final_manifest)}
        parents = {r.utterance_id: r
                   for r in read_manifest(out / "manifest.01_audio.jsonl")}
        split_children = [uid for uid in records if uid.endswith("_a")]
        assert split_children
        for uid in split_children:
            sibling = uid[:-2] + "_b"
            assert sibling in records
            a, b = records[uid], records[sibling]
            parent = parents[uid[:-2]]
            # serialized durations carry 4 fractional digits each
            assert a.duration_s + b.duration_s == pytest.approx(
                parent.duration_s, abs=2e-4)
            assert b.offset_s == pytest.approx(a.offset_s + a.duration_s, abs=2e-4)

    def test_cer_reject_quarantined(self, pipeline_out):
        out, result = pipeline_out
        rejects = read_manifest(out / "rejects.validate.jsonl")
        assert any(r.cer_pct is not None and r.cer_pct >= 100 for r in rejects)
        final_ids = {r.utterance_id for r in read_manifest(result.final_manifest)}
        assert all(r.utterance_id not in final_ids for r in rejects)

    def test_speaker_counts_applied(self, pipeline_out):
        _, result = pipeline_out
        records = {r.utterance_id: r for r in read_manifest(result.final_manifest)}
        assert records["ch2_0001"].num_speakers == 2

    def test_inputs_not_mutated(self, corpus, pipeline_out):
        before = (corpus / "utterances.jsonl").read_bytes()
        assert read_manifest(corpus / "utterances.jsonl")
        assert (corpus / "utterances.jsonl").read_bytes() == before

    def test_stage_reports_written(self, pipeline_out):
        out, _ = pipeline_out
        for stage in ("text", "audio", "bandwidth", "segment", "validate", "speakers"):
            payload = json.loads((out / f"report.{stage}.json").read_text())
            assert payload["stage"] == stage


class TestDeterminism:
    def test_identical_bytes_across_runs_and_worker_counts(self, corpus, tmp_path):
        outs = []
        for name, workers in [("w1", 1), ("w1b", 1), ("w8", 8)]:
            out = tmp_path / name
            run_pipeline(make_config(corpus, out, workers=workers))
            outs.append(out)
        reference = sorted(p.name for p in outs[0].glob("manifest.*.jsonl"))
        assert reference
        for other in outs[1:]:
            assert sorted(p.name for p in other.glob("manifest.*.jsonl")) == reference
            for name in reference:
                assert (outs[0] / name).read_bytes() == (other / name).read_bytes(), name

    def test_text_stage_identical_across_worker_counts(self, tmp_path):
        root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=6)
        # Extra inputs for the reject paths: a chapter without book text and
        # an utterance whose chapter is not in the chapters manifest.
        chapters = read_chapters(root / "chapters.jsonl")
        chapters.append(ChapterRecord(chapter_id="ch9", book_id="book0",
                                      speaker_id="spk9", audio_path="raw/ch9.wav",
                                      sample_rate_hz=48000))
        write_chapters(chapters, root / "chapters.jsonl")
        records = read_manifest(root / "utterances.jsonl")
        template = records[0]
        records += [template.with_fields(utterance_id=f"ch9_{i:04d}", chapter_id="ch9")
                    for i in range(2)]
        records.append(template.with_fields(utterance_id="chx_0000", chapter_id="chx"))
        write_manifest(records, root / "utterances.jsonl")

        outs = []
        for workers in (1, 4):
            config = make_config(root, tmp_path / f"w{workers}", workers=workers)
            config.stages = ["text"]
            result = run_pipeline(config)
            outs.append(tmp_path / f"w{workers}")
        (report,) = result.reports
        assert report.drop_reasons == {"missing_book_text": 3}
        kept = read_manifest(outs[0] / "manifest.00_text.jsonl")
        matched = {r.chapter_id for r in kept if r.text_source == "book_match"}
        assert matched == {"ch0", "ch1", "ch2", "ch3"}
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def _ids(path):
    return [r.utterance_id for r in read_manifest(path)] if path.exists() else []


def _decoded_copies(root, chapter_ids):
    """Point the chapters at `.raw` copies of their WAVs, which only decoder_cmd reads."""
    chapters = read_chapters(root / "chapters.jsonl")
    for i, chapter in enumerate(chapters):
        if chapter.chapter_id in chapter_ids:
            raw = str(Path(chapter.audio_path).with_suffix(".raw"))
            (root / raw).write_bytes((root / chapter.audio_path).read_bytes())
            chapters[i] = ChapterRecord(**{**chapter.to_json_dict(), "audio_path": raw})
    write_chapters(chapters, root / "chapters.jsonl")


class TestChapterStreaming:
    def test_interleaved_chapters_reject_in_input_order(self, tmp_path):
        root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=3)
        chapters = read_chapters(root / "chapters.jsonl")
        # Two chapters without book text: the text stage rejects their records.
        chapters += [ChapterRecord(chapter_id=c, book_id="book0", speaker_id="spk9",
                                   audio_path="raw/ch0.wav", sample_rate_hz=48000)
                     for c in ("ch8", "ch9")]
        write_chapters(chapters, root / "chapters.jsonl")
        by_chapter: dict[str, list] = {}
        for rec in read_manifest(root / "utterances.jsonl"):
            by_chapter.setdefault(rec.chapter_id, []).append(rec)
        template = by_chapter["ch0"][0]
        # One utterance past the end of each audio chapter: an audio-stage reject.
        for chapter_id, recs in by_chapter.items():
            recs.insert(int(chapter_id[-1]) % 2 * len(recs),
                        recs[0].with_fields(offset_s=1000.0, duration_s=1.0))
        for chapter_id in ("ch8", "ch9"):
            by_chapter[chapter_id] = [template.with_fields(chapter_id=chapter_id)
                                      for _ in range(3)]
        # Deal the chapters round-robin and number the records in that order,
        # so sorting by utterance_id (the audio stage's input order) keeps
        # them interleaved; the text stage reads them in reverse.
        groups = list(by_chapter.values())
        dealt = [g[i] for i in range(max(map(len, groups))) for g in groups if i < len(g)]
        records = [rec.with_fields(utterance_id=f"u{k:03d}") for k, rec in enumerate(dealt)]
        write_manifest(records[::-1], root / "utterances.jsonl")

        expected = {
            "text": [r.utterance_id for r in records[::-1]
                     if r.chapter_id in ("ch8", "ch9")],
            "audio": [r.utterance_id for r in records if r.offset_s == 1000.0],
        }
        chapter_of = {r.utterance_id: r.chapter_id for r in records}
        for ids in expected.values():
            # Grouping by chapter would reorder these lists.
            assert ids != sorted(ids, key=lambda u: chapter_of[u])

        outs = []
        for workers in (1, 3):
            config = make_config(root, tmp_path / f"w{workers}", workers=workers)
            config.stages = ["text", "audio"]
            result = run_pipeline(config)
            assert result.exit_code == EXIT_PARTIAL
            outs.append(tmp_path / f"w{workers}")
            for stage, ids in expected.items():
                assert _ids(outs[-1] / f"rejects.{stage}.jsonl") == ids, stage
        text_report, audio_report = result.reports
        assert text_report.drop_reasons == {"missing_book_text": 6}
        assert audio_report.drop_reasons == {"offset_past_end": 4}
        names = sorted(str(p.relative_to(outs[0])) for p in outs[0].rglob("*") if p.is_file())
        assert names == sorted(
            str(p.relative_to(outs[1])) for p in outs[1].rglob("*") if p.is_file())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_one_decoded_chapter_alive(self, tmp_path, monkeypatch):
        # ch0 and ch2 go through decoder_cmd, so their opened audio holds the
        # decoded stream; ch1 and ch3 are read in place.
        root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=3)
        _decoded_copies(root, ("ch0", "ch2"))
        records = read_manifest(root / "utterances.jsonl")
        spans = {(r.offset_s, r.duration_s) for r in records}
        opened: list[weakref.ref] = []
        loaded: list[int] = []
        open_pcm_, load_pcm_ = audiolib.open_pcm, audiolib.load_pcm

        def alive():
            return sum(ref() is not None for ref in opened)

        def tracking_open(path, decoder_cmd=None):
            assert alive() == 0, "previous chapter still open at the next open"
            pcm = open_pcm_(path, decoder_cmd)
            opened.append(weakref.ref(pcm))
            return pcm

        def checking_load(pcm, decoder_cmd=None, head_s=None, mono=False, offset_s=0.0):
            assert alive() <= 1, f"{alive()} chapters open"
            assert (offset_s, head_s) in spans, "a read that is not one record's"
            buf = load_pcm_(pcm, decoder_cmd, head_s, mono, offset_s)
            sr = buf.sample_rate_hz
            assert buf.num_frames <= int(round((offset_s + head_s) * sr)) - int(round(offset_s * sr))
            loaded.append(buf.num_frames)
            return buf

        monkeypatch.setattr(audiolib, "open_pcm", tracking_open)
        monkeypatch.setattr(audiolib, "load_pcm", checking_load)
        config = make_config(root, tmp_path / "out", workers=2)
        config.stages = ["audio"]
        config.decoder_cmd = "cat {input}"
        result = run_pipeline(config)
        assert len(opened) == 4 and alive() == 0
        assert len(loaded) == len(records) == result.reports[0].records_out

    def test_decoder_runs_once_per_chapter(self, tmp_path, monkeypatch):
        root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=3)
        config = make_config(root, tmp_path / "wav")
        config.stages = ["audio"]
        run_pipeline(config)
        chapter_ids = [c.chapter_id for c in read_chapters(root / "chapters.jsonl")]
        _decoded_copies(root, chapter_ids)
        decoded: list[str] = []
        run_ = audiolib.subprocess.run

        def counting_run(cmd, *args, **kwargs):
            decoded.append(Path(cmd[-1]).stem)
            return run_(cmd, *args, **kwargs)

        monkeypatch.setattr(audiolib.subprocess, "run", counting_run)
        reference = {str(p.relative_to(tmp_path / "wav")): p.read_bytes()
                     for p in (tmp_path / "wav").rglob("*") if p.is_file()}
        for workers in (1, 2):
            decoded.clear()
            out = tmp_path / f"raw{workers}"
            config = make_config(root, out, workers=workers)
            config.stages = ["audio"]
            config.decoder_cmd = "cat {input}"
            run_pipeline(config)
            assert sorted(decoded) == chapter_ids
            assert {str(p.relative_to(out)): p.read_bytes()
                    for p in out.rglob("*") if p.is_file()} == reference

    def test_record_edges_rejected_as_before(self, tmp_path):
        # At 4 kHz the 0.1 ms manifest resolution is under one sample.
        root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=2)
        noise = np.random.default_rng(3).uniform(-0.5, 0.5, 4000)  # 1 s
        save_pcm(AudioBuffer(noise, 4000), root / "raw" / "ch8.wav")
        chapters = read_chapters(root / "chapters.jsonl")
        chapters.append(ChapterRecord("ch8", "book0", "spk8", "raw/ch8.wav", 4000))
        write_chapters(chapters, root / "chapters.jsonl")
        records = read_manifest(root / "utterances.jsonl")
        template = records[0].with_fields(chapter_id="ch8", audio_path="raw/ch8.wav")
        records += [
            template.with_fields(utterance_id="ch8_0000", offset_s=0.0, duration_s=1.0),
            # Shorter than one sample: no frame is read.
            template.with_fields(utterance_id="ch8_0001", offset_s=0.5, duration_s=0.0001),
            # Starts exactly at the chapter's end.
            template.with_fields(utterance_id="ch8_0002", offset_s=1.0, duration_s=0.5),
        ]
        write_manifest(records, root / "utterances.jsonl")
        config = make_config(root, tmp_path / "out", workers=2)
        config.stages = ["audio"]
        result = run_pipeline(config)
        assert result.reports[0].drop_reasons == {"empty_after_trim": 1,
                                                  "offset_past_end": 1}
        assert _ids(tmp_path / "out" / "rejects.audio.jsonl") == ["ch8_0001", "ch8_0002"]
        assert "ch8_0000" in _ids(result.final_manifest)

    def test_stereo_chapters_decoded_to_mono(self, tmp_path, monkeypatch):
        root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=2)
        for wav in sorted((root / "raw").glob("*.wav")):
            mono = load_pcm(wav)
            stereo = np.stack([mono.samples, -0.5 * mono.samples], axis=1)
            save_pcm(AudioBuffer(stereo, mono.sample_rate_hz), wav)
        # Channel counts of every buffer the stages decode or hand on.
        seen: dict[str, list[int]] = {"load_pcm": [], "mixdown": [], "resample": []}

        def tracked(name):
            fn = getattr(audiolib, name)

            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                buf = result if name == "load_pcm" else args[0]
                seen[name].append(buf.samples.ndim)
                return result
            return wrapper

        for name in seen:
            monkeypatch.setattr(audiolib, name, tracked(name))
        config = make_config(root, tmp_path / "out", workers=2)
        config.stages = ["audio", "bandwidth"]
        result = run_pipeline(config)
        assert result.reports[0].records_out > 0
        # One read per record (4 chapters of 2) and one head per chapter.
        assert len(seen["load_pcm"]) == 8 + 4 and len(seen["resample"]) >= 8
        assert {name: set(dims) for name, dims in seen.items()} == {
            "load_pcm": {1}, "mixdown": {1}, "resample": {1}}

    @pytest.mark.parametrize("stage", ["audio", "bandwidth"])
    def test_unreadable_chapter_audio_rejected(self, tmp_path, stage):
        root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=2)
        (root / "raw" / "ch1.wav").write_bytes(np.random.default_rng(0).bytes(100))
        (root / "raw" / "ch2.wav").unlink()
        # Not .wav, so it goes through decoder_cmd, which fails.
        (root / "raw" / "ch3.wav").rename(root / "raw" / "ch3.flac")
        chapters = read_chapters(root / "chapters.jsonl")
        chapters[3] = ChapterRecord(**{**chapters[3].to_json_dict(),
                                       "audio_path": "raw/ch3.flac"})
        write_chapters(chapters, root / "chapters.jsonl")
        config = make_config(root, tmp_path / "out", workers=2)
        config.stages = [stage]
        config.decoder_cmd = "false {input}"
        result = run_pipeline(config)
        assert result.exit_code == EXIT_PARTIAL
        assert result.reports[0].drop_reasons == {
            "chapter_audio_unreadable:AudioError": 2,
            "chapter_audio_unreadable:FileNotFoundError": 2,
            "chapter_audio_unreadable:CalledProcessError": 2,
        }
        assert {r.chapter_id for r in read_manifest(result.final_manifest)} == {"ch0"}

    @pytest.mark.parametrize("stage", ["audio", "bandwidth"])
    def test_chapter_removed_after_open_rejected(self, tmp_path, monkeypatch, stage):
        root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=2)
        open_pcm_ = audiolib.open_pcm

        def open_then_remove(path, decoder_cmd=None):
            pcm = open_pcm_(path, decoder_cmd)
            if Path(path).stem == "ch1":
                Path(path).unlink()
            return pcm

        monkeypatch.setattr(audiolib, "open_pcm", open_then_remove)
        config = make_config(root, tmp_path / "out", workers=2)
        config.stages = [stage]
        result = run_pipeline(config)
        assert result.reports[0].drop_reasons == {
            "chapter_audio_unreadable:FileNotFoundError": 2}
        assert "ch1" not in {r.chapter_id for r in read_manifest(result.final_manifest)}


def _bandwidth_only_config(root, samples, sr):
    """One chapter WAV with one utterance spanning it; runs the bandwidth stage only."""
    (root / "raw").mkdir(parents=True)
    save_pcm(AudioBuffer(samples, sr), root / "raw" / "c0.wav", bit_depth=32)
    write_chapters([ChapterRecord("c0", "b0", "s0", "raw/c0.wav", sr)],
                   root / "chapters.jsonl")
    write_manifest([UtteranceRecord("c0_0000", "b0", "c0", "s0", "raw/c0.wav",
                                    0.0, len(samples) / sr, raw_text="x")],
                   root / "utterances.jsonl")
    config = make_config(root, root / "out")
    config.stages = ["bandwidth"]
    return config


class TestBandwidthStage:
    def test_stereo_48k_estimated_after_resampling(self, tmp_path):
        # Full-band noise at 48 kHz reaches ~24 kHz; the stamped estimate is
        # the one taken after mixdown and resampling to the 44.1 kHz target.
        samples = np.random.default_rng(7).standard_normal((48000 * 2, 2)) * 0.1
        config = _bandwidth_only_config(tmp_path, samples, 48000)
        result = run_pipeline(config)
        (rec,) = read_manifest(result.final_manifest)
        est = chapter_bandwidth(load_pcm(tmp_path / "raw" / "c0.wav"), 44100)
        assert rec.bandwidth_hz == round(est.f_max_hz)
        assert rec.bandwidth_hz <= 22050

    def test_chapter_shorter_than_one_window_rejected(self, tmp_path):
        samples = np.random.default_rng(8).standard_normal(1000) * 0.1
        result = run_pipeline(_bandwidth_only_config(tmp_path, samples, 44100))
        assert result.exit_code == EXIT_PARTIAL
        assert result.reports[0].drop_reasons == {"degenerate_spectrum": 1}
        assert read_manifest(result.final_manifest) == []


class TestDecode:
    @pytest.mark.parametrize("dtype,full_scale", [(np.int32, 2**31 - 1), (np.uint8, 255)])
    def test_decoder_output_normalized(self, tmp_path, dtype, full_scale):
        ramp = np.linspace(0, full_scale, 1000).astype(dtype)
        path = tmp_path / "chapter.raw"  # not .wav: goes through decoder_cmd
        wavfile.write(str(path), 16000, ramp)
        buf = load_pcm(path, "cat {input}")
        assert buf.sample_rate_hz == 16000
        assert buf.samples.dtype == np.float64
        assert np.all(np.abs(buf.samples) <= 1.0)
        np.testing.assert_array_equal(buf.samples, load_pcm(path).samples)


class TestConfig:
    def test_defaults_valid(self):
        assert validate_config(PipelineConfig()) == []

    def test_negative_pause_rejected(self):
        config = PipelineConfig(min_pause_s=-0.1)
        violations = validate_config(config)
        assert len(violations) == 1
        assert "min_pause_s" in violations[0]

    def test_zero_workers_rejected(self):
        violations = validate_config(PipelineConfig(workers=0))
        assert any("workers" in v for v in violations)

    def test_invalid_config_aborts_before_work(self, corpus, tmp_path):
        config = make_config(corpus, tmp_path / "never")
        config.min_pause_s = -1
        with pytest.raises(ConfigError):
            run_pipeline(config)
        assert not (tmp_path / "never").exists()

    def test_yaml_round_trip(self, tmp_path):
        config = PipelineConfig(seed=7, workers=3, max_cer_pct=42.0)
        path = tmp_path / "config.yaml"
        config.to_yaml(path)
        assert PipelineConfig.from_yaml(path) == config

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("bogus_key: 1\n")
        with pytest.raises(ValueError, match="bogus_key"):
            PipelineConfig.from_yaml(path)

    @pytest.mark.parametrize("override,message", [
        ({"workers": "2"}, "workers: must be an integer, got '2'"),
        ({"workers": 2.5}, "workers: must be an integer, got 2.5"),
        ({"workers": True}, "workers: must be an integer, got True"),
        ({"seed": "x"}, "seed: must be an integer, got 'x'"),
        ({"target_sample_rate_hz": 22050.5},
         "target_sample_rate_hz: must be an integer, got 22050.5"),
        ({"trim_threshold_db": True}, "trim_threshold_db: must be a number, got True"),
        ({"max_cer_pct": "50"}, "max_cer_pct: must be a number, got '50'"),
        ({"stages": "audio"}, "stages: must be a list of stage names, got 'audio'"),
        ({"stages": ["audio", 3]}, "stages: must be a list of stage names, got ['audio', 3]"),
        # NaN passes every `<` bound; a zero analysis window has no spectrum.
        ({"trim_threshold_db": float("nan")}, "trim_threshold_db: must be a number, got nan"),
        ({"max_cer_pct": float("nan")}, "max_cer_pct: must be a number, got nan"),
        ({"bandwidth_analysis_s": 0}, "bandwidth_analysis_s: must be > 0, got 0"),
        ({"out_dir": 5}, "out_dir: must be a string, got 5"),
        ({"audio_root": None}, "audio_root: must be a string, got None"),
        ({"alignments_path": 3}, "alignments_path: must be a string or null, got 3"),
        ({"decoder_cmd": 5}, "decoder_cmd: must be a string or null, got 5"),
    ])
    def test_wrong_type_is_config_error(self, corpus, tmp_path, override, message):
        config_path = tmp_path / "config.yaml"
        data = {**asdict(make_config(corpus, tmp_path / "out")), **override}
        config_path.write_text(yaml.safe_dump(data))
        result = CliRunner().invoke(main, ["run", "--config", str(config_path)])
        assert result.exit_code == 1, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"config error: {message}" in result.output
        assert not (tmp_path / "out").exists()

    def test_document_must_be_a_mapping(self, tmp_path):
        config_path = tmp_path / "config.yaml"
        config_path.write_text("- a\n- b\n")
        result = CliRunner().invoke(main, ["run", "--config", str(config_path)])
        assert result.exit_code == 1, result.output
        assert (f"config error: {config_path}: must be a mapping of config keys, got list"
                in result.output)

    def test_missing_alignments_fails_fast(self, corpus, tmp_path):
        config = make_config(corpus, tmp_path / "out")
        config.alignments_path = None
        config.stages = ["segment"]
        with pytest.raises(StageError, match="segment"):
            run_pipeline(config)


class TestCli:
    def test_run_and_stats(self, corpus, tmp_path):
        runner = CliRunner()
        out = tmp_path / "cli_out"
        config = make_config(corpus, out)
        config_path = tmp_path / "config.yaml"
        config.to_yaml(config_path)
        result = runner.invoke(main, ["run", "--config", str(config_path)])
        assert result.exit_code == EXIT_PARTIAL, result.output
        final = sorted(out.glob("manifest.05_speakers.jsonl"))
        assert final

        stats = runner.invoke(main, ["stats", "--manifest", str(final[0]), "--json"])
        assert stats.exit_code == 0
        payload = json.loads(stats.output)
        assert payload["utterance_count"] == len(read_manifest(final[0]))

    def test_run_config_error_exit_code(self, tmp_path):
        config_path = tmp_path / "bad.yaml"
        config_path.write_text("workers: 0\n")
        result = CliRunner().invoke(main, ["run", "--config", str(config_path)])
        assert result.exit_code == 1

    def test_subset_command(self, corpus, tmp_path, pipeline_out):
        _, presult = pipeline_out
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"min_bandwidth_hz": 13000}))
        out_path = tmp_path / "subset.jsonl"
        result = CliRunner().invoke(main, [
            "subset", "--manifest", str(presult.final_manifest),
            "--spec", str(spec_path), "--out", str(out_path)])
        assert result.exit_code == 0, result.output
        kept = read_manifest(out_path)
        assert kept
        assert all(r.bandwidth_hz >= 13000 for r in kept)

    @pytest.mark.parametrize("spec,message", [
        ({"min_bandwith_hz": 13000}, "min_bandwith_hz"),
        ({"min_bandwidth_hz": -1}, "must be >= 0"),
    ])
    def test_subset_spec_error_exit_code(self, tmp_path, spec, message):
        manifest_path = tmp_path / "in.jsonl"
        write_manifest([UtteranceRecord("u1", "b", "c", "s", "a.wav", 0.0, 1.0,
                                        bandwidth_hz=14000)], manifest_path)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        result = CliRunner().invoke(main, [
            "subset", "--manifest", str(manifest_path),
            "--spec", str(spec_path), "--out", str(tmp_path / "out.jsonl")])
        assert result.exit_code == 1
        assert "config error" in result.output and message in result.output
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("command", ["stats", "subset", "splits", "run"])
    def test_malformed_manifest_is_config_error(self, corpus, tmp_path, command):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"utterance_id": "u1"\n', encoding="utf-8")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{}")
        config_path = tmp_path / "config.yaml"
        config = make_config(corpus, tmp_path / "out")
        config.utterances_manifest = str(bad)
        config.to_yaml(config_path)
        args = {
            "stats": ["stats", "--manifest", str(bad)],
            "subset": ["subset", "--manifest", str(bad), "--spec", str(spec_path),
                       "--out", str(tmp_path / "subset.jsonl")],
            "splits": ["splits", "--manifest", str(bad), "--out", str(tmp_path / "p.json")],
            "run": ["run", "--config", str(config_path)],
        }[command]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"config error: {bad}:1: malformed JSON" in result.output

    def test_missing_utterances_manifest_is_config_error(self, corpus, tmp_path):
        config = make_config(corpus, tmp_path / "out")
        config.utterances_manifest = str(tmp_path / "absent.jsonl")
        with pytest.raises(ConfigError, match="absent.jsonl"):
            run_pipeline(config)

    def test_splits_command_shortfall_exit_code(self, tmp_path, pipeline_out, corpus):
        _, presult = pipeline_out
        out_path = tmp_path / "plans.json"
        result = CliRunner().invoke(main, [
            "splits", "--manifest", str(presult.final_manifest),
            "--seed", "1", "--out", str(out_path)])
        assert result.exit_code == 2  # only 4 speakers in the fixture
        assert "shortfall" in result.output


class TestInputErrors:
    @pytest.mark.parametrize("encoder,reason", [
        ("false {input} {output}", "encode_failed:CalledProcessError"),
        # Writes a partial output before failing.
        ("sh -c 'echo partial > {output}; exit 1'", "encode_failed:CalledProcessError"),
        ("no-such-encoder-binary {input} {output}", "encode_failed:FileNotFoundError"),
    ])
    def test_failing_encoder_rejects_record(self, tmp_path, encoder, reason):
        root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=2)
        config = make_config(root, tmp_path / "out")
        config.stages = ["audio"]
        config.encoder_cmd = encoder
        config_path = tmp_path / "config.yaml"
        config.to_yaml(config_path)
        result = CliRunner().invoke(main, ["run", "--config", str(config_path)])
        assert result.exit_code == EXIT_PARTIAL, result.output
        report = json.loads((tmp_path / "out" / "report.audio.json").read_text())
        assert report["drop_reasons"] == {reason: 8}
        assert read_manifest(tmp_path / "out" / "manifest.00_audio.jsonl") == []
        assert list((tmp_path / "out" / "audio").iterdir()) == []

    def test_malformed_chapters_manifest_is_config_error(self, corpus, tmp_path):
        bad = tmp_path / "chapters.jsonl"
        bad.write_text('{"chapter_id": "c0"\n', encoding="utf-8")
        config = make_config(corpus, tmp_path / "out")
        config.chapters_manifest = str(bad)
        config_path = tmp_path / "config.yaml"
        config.to_yaml(config_path)
        result = CliRunner().invoke(main, ["run", "--config", str(config_path)])
        assert result.exit_code == 1, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"config error: {bad}:1:" in result.output

    def test_missing_chapters_manifest_is_stage_failure(self, corpus, tmp_path):
        config = make_config(corpus, tmp_path / "out")
        config.chapters_manifest = str(tmp_path / "absent.jsonl")
        config_path = tmp_path / "config.yaml"
        config.to_yaml(config_path)
        result = CliRunner().invoke(main, ["run", "--config", str(config_path)])
        assert result.exit_code == 2, result.output
        assert "chapters manifest not found" in result.output

    @pytest.mark.parametrize("which", ["utterances", "chapters"])
    def test_non_utf8_manifest_in_run_is_config_error(self, corpus, tmp_path, which):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\xff\xfe{}\n")
        config = make_config(corpus, tmp_path / "out")
        setattr(config, f"{which}_manifest", str(bad))
        with pytest.raises(ConfigError, match="not UTF-8"):
            run_pipeline(config)

    def test_non_utf8_manifest_in_stats_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\xff\xfe{}\n")
        result = CliRunner().invoke(main, ["stats", "--manifest", str(bad)])
        assert result.exit_code == 1, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"config error: {bad}: not UTF-8" in result.output


def _side_file(key, name, content):
    """Write content to root/name (no file when None) and point config.key at it."""
    def plant(root, config):
        path = root / name
        if content is not None:
            path.write_bytes(content)
        setattr(config, key, str(path))
        return path
    return plant


def _chapter_ch1(change):
    """Rewrite ch1's line of the chapters manifest with change(obj)."""
    def plant(root, config):
        path = root / "chapters.jsonl"
        objs = [json.loads(line) for line in path.read_text().splitlines()]
        change(objs[1])
        path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
        return path
    return plant


def _book_text_ch1(content):
    def plant(root, config):
        (root / "text" / "ch1.txt").write_bytes(content)
        return root / "text" / "ch1.txt"
    return plant


_DUP_COUNTS = b'{"utterance_id": "ch0_0000", "num_speakers": 1}\n' * 2
_UNKNOWN_CHAPTER_KEY = _chapter_ch1(
    lambda obj: obj.update(book_txt_path=obj.pop("book_text_path")))
_DECLARED_16K = _chapter_ch1(lambda obj: obj.update(sample_rate_hz=16000))

# One row per malformed input: the stages run, how the fault is planted (the
# path it returns fills {path}), the exit code and either the message
# expected in the output or the stage report's drop reasons. Every row
# escaped as a traceback, or passed silently, before side inputs went
# through one reader.
FAULTS = [
    pytest.param(["segment"], _side_file("alignments_path", "al.jsonl", b'{"utterance_id": "u"\n'),
                 1, "config error: {path}:1: malformed JSON", id="alignments-malformed"),
    pytest.param(["segment"], _side_file("alignments_path", "al.jsonl",
                                         b'{"utterance_id": "u", "tokens": '
                                         b'[{"word": "a", "start": "x", "end": 1}]}\n'),
                 1, "config error: {path}:1: could not convert", id="alignments-bad-time"),
    pytest.param(["segment"], _side_file("alignments_path", "al.ctm",
                                         b"u 1 0.0 0.2 a\nu 1 zero 0.2 b\n"),
                 1, "config error: {path}:2: could not convert", id="ctm-bad-time"),
    pytest.param(["segment"], _side_file("alignments_path", "al.ctm", b"u 1 0.0 0.2 \xff\n"),
                 1, "config error: {path}: not UTF-8 text", id="ctm-not-utf8"),
    pytest.param(["validate"], _side_file("asr_hypotheses_path", "h.jsonl", b'{"utterance_id"\n'),
                 1, "config error: {path}:1: malformed JSON", id="hyps-malformed"),
    pytest.param(["validate"], _side_file("asr_hypotheses_path", "h.jsonl",
                                          b'{"utterance_id": "u", "hyp_text": "a"}\n'
                                          b'{"utterance_id": "v"}\n'),
                 1, "config error: {path}:2: missing key 'hyp_text'", id="hyps-missing-key"),
    pytest.param(["validate"], _side_file("asr_hypotheses_path", "h.jsonl",
                                          b'{"utterance_id": "ch0_0001", "hyp_text": 5}\n'),
                 1, "config error: {path}:1: hyp_text must be a string, got 5",
                 id="hyps-not-a-string"),
    pytest.param(["text"], _side_file("predicted_pc_path", "pc.jsonl",
                                      b'{"utterance_id": "ch0_0001", "text": null}\n'),
                 1, "config error: {path}:1: text must be a string, got None",
                 id="predicted-pc-not-a-string"),
    pytest.param(["text"], _side_file("predicted_pc_path", "pc.jsonl", b'{"utterance_id"\n'),
                 1, "config error: {path}:1: malformed JSON", id="predicted-pc-malformed"),
    pytest.param(["text"], _side_file("predicted_pc_path", "pc.jsonl", None),
                 2, "stage failure: stage 'text': predicted PC file not found: {path}",
                 id="predicted-pc-missing"),
    pytest.param(["speakers"], _side_file("speaker_counts_path", "c.jsonl", b"{\n"),
                 1, "config error: {path}:1: malformed JSON", id="counts-malformed"),
    pytest.param(["speakers"], _side_file("speaker_counts_path", "c.jsonl",
                                          b'{"utterance_id": "u", "num_speakers": "two"}\n'),
                 1, "config error: {path}:1: invalid literal", id="counts-not-a-number"),
    pytest.param(["speakers"], _side_file("speaker_counts_path", "c.jsonl",
                                          b'{"utterance_id": "ch0_0000", "num_speakers": -1}\n'),
                 1, "config error: {path}:1: invalid literal for num_speakers: -1",
                 id="counts-negative"),
    pytest.param(["speakers"], _side_file("speaker_counts_path", "c.jsonl",
                                          b'{"utterance_id": "ch0_0000", "num_speakers": 2.7}\n'),
                 1, "config error: {path}:1: invalid literal for num_speakers: 2.7",
                 id="counts-fractional"),
    pytest.param(["speakers"], _side_file("speaker_counts_path", "c.jsonl",
                                          b'{"utterance_id": "ch0_0000", "num_speakers": true}\n'),
                 1, "config error: {path}:1: invalid literal for num_speakers: True",
                 id="counts-bool"),
    pytest.param(["speakers"], _side_file("speaker_counts_path", "c.jsonl", _DUP_COUNTS),
                 1, "config error: {path}: duplicate speaker count for 'ch0_0000'",
                 id="counts-duplicate-id"),
    pytest.param(["text"], _side_file("rules_path", "rules.txt", None),
                 1, "config error: {path}: unreadable", id="rules-missing"),
    pytest.param(["text"], _side_file("rules_path", "rules.txt", b"\xff\xfe"),
                 1, "config error: {path}: unreadable", id="rules-not-utf8"),
    pytest.param(["text"], _side_file("abbreviations_path", "abbr.txt", None),
                 1, "config error: {path}: unreadable", id="abbreviations-missing"),
    pytest.param(["text"], _side_file("abbreviations_path", "abbr.txt", b"Dr.\n\xff\n"),
                 1, "config error: {path}: unreadable", id="abbreviations-not-utf8"),
    pytest.param(["text"], _UNKNOWN_CHAPTER_KEY,
                 1, "config error: {path}:2: unknown chapter keys: ['book_txt_path']",
                 id="chapter-unknown-key"),
    pytest.param(["text"], _book_text_ch1(b"\xff\xfe Some text."),
                 3, {"book_text_unreadable:UnicodeDecodeError": 2}, id="book-text-not-utf8"),
    pytest.param(["audio"], _DECLARED_16K, 3, {"sample_rate_mismatch": 2},
                 id="audio-rate-mismatch"),
    pytest.param(["bandwidth"], _DECLARED_16K, 3, {"sample_rate_mismatch": 2},
                 id="bandwidth-rate-mismatch"),
]


@pytest.mark.parametrize("stages,plant,exit_code,expected", FAULTS)
def test_malformed_input_is_named(tmp_path, stages, plant, exit_code, expected):
    root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=2)
    config = make_config(root, tmp_path / "out")
    config.stages = stages
    path = plant(root, config)
    config_path = tmp_path / "config.yaml"
    config.to_yaml(config_path)
    result = CliRunner().invoke(main, ["run", "--config", str(config_path)])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    assert result.exit_code == exit_code, result.output
    if isinstance(expected, dict):
        report = json.loads((tmp_path / "out" / f"report.{stages[0]}.json").read_text())
        assert report["drop_reasons"] == expected
    else:
        assert expected.format(path=path) in result.output


def test_stage_without_rejects_removes_stale_rejects(corpus, tmp_path):
    records = read_manifest(corpus / "utterances.jsonl")
    hyps = tmp_path / "hyps.jsonl"
    config = make_config(corpus, tmp_path / "out")
    config.stages = ["validate"]
    config.asr_hypotheses_path = str(hyps)
    stale = tmp_path / "out" / "rejects.validate.jsonl"
    for missing in (1, 0):  # the first run lacks one hypothesis, the rerun none
        hyps.write_text("".join(
            json.dumps({"utterance_id": r.utterance_id, "hyp_text": r.raw_text}) + "\n"
            for r in records[missing:]))
        result = run_pipeline(config)
        assert stale.exists() == bool(missing)
        assert result.reports[0].records_dropped == missing
    assert result.exit_code == 0


def test_full_run_leaves_no_partial_files(pipeline_out):
    out, _ = pipeline_out
    assert [p for p in out.rglob("*") if ".partial" in p.name] == []


class _Killed(BaseException):
    """An interruption no `except Exception` handler catches."""


@pytest.mark.parametrize("encoder", [None, "flac -s -f -o {output} {input}"],
                         ids=["wav", "encoder"])
def test_killed_audio_write_leaves_no_file(tmp_path, monkeypatch, encoder):
    root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=1)
    config = make_config(root, tmp_path / "out")
    config.stages = ["audio"]
    config.encoder_cmd = encoder

    def killed_save(buf, path, *args, **kwargs):
        path.write_bytes(b"RIFF")  # a partial header, then the process dies
        raise _Killed

    def killed_encode(cmd, *args, **kwargs):
        Path(cmd[cmd.index("-o") + 1]).write_bytes(b"fLaC")
        raise _Killed

    if encoder:
        monkeypatch.setattr(pipeline_mod.subprocess, "run", killed_encode)
    else:
        monkeypatch.setattr(audiolib, "save_pcm", killed_save)
    with pytest.raises(_Killed):
        run_pipeline(config)
    assert list((tmp_path / "out" / "audio").iterdir()) == []


def test_encoder_output_replaces_into_place(tmp_path):
    root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=1)
    config = make_config(root, tmp_path / "out")
    config.stages = ["audio"]
    config.encoder_cmd = "cp {input} {output}"
    result = run_pipeline(config)
    kept = read_manifest(result.final_manifest)
    assert len(kept) == 4
    names = sorted(p.name for p in (tmp_path / "out" / "audio").iterdir())
    assert names == sorted(f"{r.utterance_id}.flac" for r in kept)


def _bundles_openblas() -> bool:
    """numpy names OpenBLAS as its BLAS and ships it in a wheel's numpy.libs."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    return "openblas" in blas.lower() and libs.is_dir()


needs_openblas = pytest.mark.skipif(not _bundles_openblas(),
                                    reason="numpy does not bundle OpenBLAS")


class TestBlasThreads:
    @pytest.fixture
    def blas_threads(self):
        """The OpenBLAS thread-count getter, with the count set to 2 for the test."""
        get, set_ = pipeline_mod._openblas()
        before = get()
        set_(2)
        yield get
        set_(before)

    @needs_openblas
    def test_pool_workers_run_one_blas_thread(self, blas_threads):
        assert pipeline_mod._pmap(lambda _: blas_threads(), [0] * 4, 2) == [1] * 4
        assert blas_threads() == 2

    @needs_openblas
    def test_count_restored_when_a_worker_raises(self, blas_threads):
        def work(i):
            if i == 2:
                raise RuntimeError("worker failed")
            return blas_threads()

        with pytest.raises(RuntimeError, match="worker failed"):
            pipeline_mod._pmap(work, [0, 1, 2, 3], 2)
        assert blas_threads() == 2

    @needs_openblas
    @pytest.mark.parametrize("fail", [False, True])
    def test_run_pipeline_restores_count(self, corpus, tmp_path, monkeypatch,
                                         blas_threads, fail):
        resample_, seen = audiolib.resample, []

        def tracking_resample(buf, target_hz):
            seen.append(blas_threads())
            if fail:
                raise RuntimeError("resampler failed")
            return resample_(buf, target_hz)

        monkeypatch.setattr(audiolib, "resample", tracking_resample)
        config = make_config(corpus, tmp_path / "out", workers=2)
        config.stages = ["audio"]
        if fail:
            with pytest.raises(RuntimeError, match="resampler failed"):
                run_pipeline(config)
        else:
            run_pipeline(config)
        assert seen and set(seen) == {1}
        assert blas_threads() == 2

    def test_serial_path_never_sets_blas_threads(self, monkeypatch):
        calls = []
        monkeypatch.setattr(pipeline_mod, "_openblas", lambda: (lambda: 3, calls.append))
        assert pipeline_mod._pmap(str, [1, 2], 1) == ["1", "2"]
        assert pipeline_mod._pmap(str, [1], 4) == ["1"]
        assert calls == []
        assert pipeline_mod._pmap(str, [1, 2], 2) == ["1", "2"]
        assert calls == [1, 3]

    @pytest.mark.parametrize("found", [True, False], ids=["openblas", "none"])
    def test_same_bytes_at_any_worker_count(self, tmp_path, monkeypatch, found):
        if not found:
            monkeypatch.setattr(pipeline_mod, "_openblas", lambda: None)
        root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=3)
        outs = []
        for workers in (1, 2):
            outs.append(tmp_path / f"w{workers}")
            config = make_config(root, outs[-1], workers=workers)
            config.stages = ["audio", "bandwidth"]
            run_pipeline(config)
        names = sorted(str(p.relative_to(outs[0])) for p in outs[0].rglob("*") if p.is_file())
        assert any(name.endswith(".wav") for name in names)
        assert names == sorted(
            str(p.relative_to(outs[1])) for p in outs[1].rglob("*") if p.is_file())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_stage_summary_logged_on_cli_stderr_only(corpus, tmp_path, capfd):
    config = make_config(corpus, tmp_path / "lib")
    config.stages = ["text"]
    run_pipeline(config)
    assert capfd.readouterr().err == ""
    config.out_dir = str(tmp_path / "cli")
    config_path = tmp_path / "config.yaml"
    config.to_yaml(config_path)
    result = CliRunner().invoke(main, ["run", "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    assert re.fullmatch(r"\[text\] in=(\d+) out=\1 dropped=0\n", result.stderr)
