import ctypes
import errno
import gc
import itertools
import json
import os
import platform
import re
import signal
import struct
import subprocess
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from scipy.io import wavfile

from speechcurate import audio as audiolib
from speechcurate import cli as cli_mod
from speechcurate import bandwidth as bwlib
from speechcurate import pipeline as pipeline_mod
from speechcurate import textproc
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
    PipelineResult,
    StageError,
    StageReport,
    run_pipeline,
)

from conftest import lowpassed_noise
from corpus_harness import build_corpus, make_config
from test_curation import eval_fixture


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
        # Every record has a speaker count, so the count of those without is omitted.
        assert "extras" not in json.loads((out / "report.speakers.json").read_text())

    @pytest.mark.parametrize("kept_counts", [5, 0])
    def test_records_without_speaker_count_counted(self, corpus, tmp_path, kept_counts):
        counts = (corpus / "counts.jsonl").read_text().splitlines(keepends=True)
        path = tmp_path / "counts.jsonl"
        path.write_text("".join(counts[:kept_counts]))
        config = make_config(corpus, tmp_path / "out")
        config.stages = ["speakers"]
        config.speaker_counts_path = str(path)
        run_pipeline(config)
        # The counts are keyed by final (split) ids, so only some match here.
        counted = {json.loads(line)["utterance_id"] for line in counts[:kept_counts]}
        records = read_manifest(corpus / "utterances.jsonl")
        missing = sum(r.utterance_id not in counted for r in records)
        payload = json.loads((tmp_path / "out" / "report.speakers.json").read_text())
        assert payload["extras"] == {"no_speaker_count": missing}
        assert payload["records_out"] == len(records)


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
        assert report.drop_reasons == {"missing_book_text": 2, "missing_chapter": 1}
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


def _rewrite_as_16bit(root, chapter_id, rate):
    """Make chapter_id's audio 16-bit mono noise at `rate`, as long as before."""
    path = root / "raw" / f"{chapter_id}.wav"
    old_rate, samples = wavfile.read(path)
    noise = lowpassed_noise(rate / 2.5, len(samples) / old_rate, rate, seed=9) * 0.3
    save_pcm(AudioBuffer(noise, rate), path, bit_depth=16)
    chapters = [ChapterRecord(**{**c.to_json_dict(), "sample_rate_hz": rate})
                if c.chapter_id == chapter_id else c
                for c in read_chapters(root / "chapters.jsonl")]
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

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_one_decoded_chapter_alive(self, tmp_path, monkeypatch, workers):
        # ch0 and ch2 go through decoder_cmd, so their opened audio is a
        # temporary file of the decoded stream; ch1 and ch3 are read in place.
        # At most two chapters are open, whatever the worker count.
        held = 2
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
            # The chapter whose records still run, and the one opened next.
            assert alive() < held, f"{alive()} chapters still open at the next open"
            pcm = open_pcm_(path, decoder_cmd)
            opened.append(weakref.ref(pcm))
            return pcm

        def checking_load(pcm, decoder_cmd=None, head_s=None, mono=False, offset_s=0.0):
            assert alive() <= held, f"{alive()} chapters open"
            assert (offset_s, head_s) in spans, "a read that is not one record's"
            buf = load_pcm_(pcm, decoder_cmd, head_s, mono, offset_s)
            sr = buf.sample_rate_hz
            assert buf.num_frames <= int(round((offset_s + head_s) * sr)) - int(round(offset_s * sr))
            loaded.append(buf.num_frames)
            return buf

        monkeypatch.setattr(audiolib, "open_pcm", tracking_open)
        monkeypatch.setattr(audiolib, "load_pcm", checking_load)
        config = make_config(root, tmp_path / "out", workers=workers)
        config.stages = ["audio"]
        config.decoder_cmd = "cat {input}"
        result = run_pipeline(config)
        assert len(opened) == 4 and alive() == 0
        assert len(loaded) == len(records) == result.reports[0].records_out

    def test_next_chapter_runs_while_previous_is_held(self):
        # ch0's first record is held until a record of ch1 has started.
        ch1_started = threading.Event()
        records = [SimpleNamespace(chapter_id=c, uid=u, duration_s=1.0)
                   for c, u in [("ch0", "a"), ("ch0", "b"), ("ch1", "c"), ("ch1", "d")]]

        def work(rec, chapter):
            if rec.uid == "a":
                return ch1_started.wait(timeout=5)
            if chapter == ["ch1"]:
                ch1_started.set()
            return True

        with ThreadPoolExecutor(max_workers=2) as pool:
            out, _ = pipeline_mod._by_chapter(records, lambda c: [c], work, pool)
        assert out == [True] * 4

    def test_next_chapter_opens_while_one_worker_runs(self, tmp_path, monkeypatch):
        # The first record to run, one of ch0's, waits until ch1 has been
        # opened: with one worker too, the calling thread opens (decodes) the
        # next chapter while the worker runs the last one's records.
        root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=2)
        ch1_opened = threading.Event()
        waited: list[tuple] = []
        open_pcm_, load_pcm_ = audiolib.open_pcm, audiolib.load_pcm

        def noting_open(path, decoder_cmd=None):
            pcm = open_pcm_(path, decoder_cmd)
            if Path(path).stem == "ch1":
                ch1_opened.set()
            return pcm

        def waiting_load(pcm, *args, **kwargs):
            if not waited:
                waited.append((pcm.path.stem, ch1_opened.wait(timeout=5)))
            return load_pcm_(pcm, *args, **kwargs)

        monkeypatch.setattr(audiolib, "open_pcm", noting_open)
        monkeypatch.setattr(audiolib, "load_pcm", waiting_load)
        config = make_config(root, tmp_path / "out", workers=1)
        config.stages = ["audio"]
        assert run_pipeline(config).reports[0].records_out == 8
        assert waited == [("ch0", True)]

    def test_one_pool_per_run(self, corpus, tmp_path, monkeypatch):
        pools, queued = [], []

        class CountingPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

            def submit(self, fn, *args):
                queued.append(args[0])
                return super().submit(fn, *args)

        monkeypatch.setattr(pipeline_mod, "ThreadPoolExecutor", CountingPool)
        config = make_config(corpus, tmp_path / "out", workers=2)
        config.stages = ["text", "audio", "bandwidth"]
        result = run_pipeline(config)
        assert [r.stage for r in result.reports] == config.stages
        assert all(r.records_out for r in result.reports)
        assert len(pools) == 1
        queued.clear()
        records = [SimpleNamespace(chapter_id=f"ch{i % 4}", duration_s=i) for i in range(12)]
        with CountingPool(max_workers=2) as pool:
            out, _ = pipeline_mod._by_chapter(records, lambda c: [c], lambda r, c: c[0], pool)
        assert out == [f"ch{i % 4}" for i in range(12)]
        # Chapter by chapter, each chapter's longest records first.
        assert [rec.duration_s for rec in queued] == [8, 4, 0, 9, 5, 1, 10, 6, 2, 11, 7, 3]

    def test_worker_error_propagates_and_frees_inputs(self):
        inputs = []

        class Chapter:
            pass

        def load(chapter_id):
            chapter = Chapter()
            inputs.append(weakref.ref(chapter))
            return chapter

        def work(rec, chapter):
            if rec.uid == "ch1_1":
                raise RuntimeError("worker failed")
            return rec.uid

        records = [SimpleNamespace(chapter_id=f"ch{c}", uid=f"ch{c}_{i}", duration_s=1.0)
                   for c in range(4) for i in range(3)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            with pytest.raises(RuntimeError, match="worker failed"):
                pipeline_mod._by_chapter(records, load, work, pool)
        gc.collect()  # the traceback's frames and the failed future form cycles
        assert len(inputs) >= 2 and all(ref() is None for ref in inputs)

    def test_pure_python_stages_build_no_pool(self, corpus, tmp_path, monkeypatch):
        # Segment and validate hold the interpreter lock, so they run on the
        # calling thread at any worker count.
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool in a pure-Python stage")

        monkeypatch.setattr(pipeline_mod, "ThreadPoolExecutor", no_pool)
        config = make_config(corpus, tmp_path / "out", workers=4)
        config.stages = ["segment", "validate", "speakers"]
        result = run_pipeline(config)
        assert [r.stage for r in result.reports] == config.stages
        assert all(r.records_out for r in result.reports)

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

    @pytest.mark.parametrize("decoder", [False, True])
    @pytest.mark.parametrize("stage", ["audio", "bandwidth"])
    def test_chapter_removed_after_open_still_read(self, tmp_path, monkeypatch, stage,
                                                   decoder):
        # The opened descriptor keeps an unlinked chapter file readable.
        root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=2)
        if decoder:
            _decoded_copies(root, ("ch1",))
        outs = {name: tmp_path / name for name in ("kept", "removed")}
        open_pcm_ = audiolib.open_pcm

        def open_then_remove(path, decoder_cmd=None):
            pcm = open_pcm_(path, decoder_cmd)
            if Path(path).stem == "ch1":
                Path(path).unlink()
            return pcm

        for name, out in outs.items():
            if name == "removed":
                monkeypatch.setattr(audiolib, "open_pcm", open_then_remove)
            config = make_config(root, out, workers=2)
            config.stages = [stage]
            config.decoder_cmd = "cat {input}"
            result = run_pipeline(config)
            assert result.reports[0].drop_reasons == {}
        assert not (root / read_chapters(root / "chapters.jsonl")[1].audio_path).exists()
        assert [r.chapter_id for r in read_manifest(result.final_manifest)].count("ch1") == 2
        files = {str(p.relative_to(outs["kept"])) for p in outs["kept"].rglob("*")}
        assert files == {str(p.relative_to(outs["removed"])) for p in outs["removed"].rglob("*")}
        for name in files:
            if (outs["kept"] / name).is_file():
                assert (outs["kept"] / name).read_bytes() == (outs["removed"] / name).read_bytes()

    @pytest.mark.parametrize("stage", ["audio", "bandwidth"])
    def test_read_error_after_open_rejected(self, tmp_path, monkeypatch, stage):
        root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=2)
        open_pcm_, pread = audiolib.open_pcm, os.pread
        failing = []  # held open, so that no other chapter reuses the descriptor

        def open_marking(path, decoder_cmd=None):
            pcm = open_pcm_(path, decoder_cmd)
            if Path(path).stem == "ch1":
                failing.append(pcm)
            return pcm

        def faulty_pread(fd, size, offset):
            if any(pcm.fd == fd for pcm in failing):
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return pread(fd, size, offset)

        monkeypatch.setattr(audiolib, "open_pcm", open_marking)
        monkeypatch.setattr(audiolib.os, "pread", faulty_pread)
        config = make_config(root, tmp_path / "out", workers=2)
        config.stages = [stage]
        result = run_pipeline(config)
        assert result.reports[0].drop_reasons == {"chapter_audio_unreadable:OSError": 2}
        assert "ch1" not in {r.chapter_id for r in read_manifest(result.final_manifest)}


class TestOnePassPerChapter:
    """With audio and bandwidth both enabled, each chapter is opened and
    decoded once, and its bandwidth estimate runs beside its records."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_chapter_opened_once(self, tmp_path, monkeypatch, workers):
        root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=2)
        opened: list[str] = []
        open_pcm_ = audiolib.open_pcm

        def counting_open(path, decoder_cmd=None):
            opened.append(Path(path).stem)
            return open_pcm_(path, decoder_cmd)

        monkeypatch.setattr(audiolib, "open_pcm", counting_open)
        config = make_config(root, tmp_path / "out", workers=workers)
        config.stages = ["audio", "bandwidth"]
        result = run_pipeline(config)
        assert [r.records_out for r in result.reports] == [8, 8]
        assert sorted(opened) == [c.chapter_id for c in read_chapters(root / "chapters.jsonl")]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_decoder_runs_once_per_chapter(self, tmp_path, monkeypatch, workers):
        # ch3 is 16-bit mono at the target rate, so its records' frames are
        # copied from the decoder's output; the 48 kHz chapters' records, ch0's
        # mixed down from stereo, are resampled and written by save_pcm.
        root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=2)
        mono = load_pcm(root / "raw" / "ch0.wav")
        save_pcm(AudioBuffer(np.stack([mono.samples, -0.5 * mono.samples], axis=1), 48000),
                 root / "raw" / "ch0.wav")
        _rewrite_as_16bit(root, "ch3", 44100)
        config = make_config(root, tmp_path / "wav", workers=workers)
        config.stages = ["audio", "bandwidth"]
        run_pipeline(config)
        chapter_ids = [c.chapter_id for c in read_chapters(root / "chapters.jsonl")]
        _decoded_copies(root, chapter_ids)
        decoded: list[str] = []
        saved: list[str] = []
        run_, save_pcm_ = audiolib.subprocess.run, audiolib.save_pcm

        def counting_run(cmd, *args, **kwargs):
            decoded.append(Path(cmd[-1]).stem)
            return run_(cmd, *args, **kwargs)

        def noting_save(buf, path, *args, **kwargs):
            saved.append(Path(path).name)
            return save_pcm_(buf, path, *args, **kwargs)

        monkeypatch.setattr(audiolib.subprocess, "run", counting_run)
        monkeypatch.setattr(audiolib, "save_pcm", noting_save)
        config = make_config(root, tmp_path / "raw", workers=workers)
        config.stages = ["audio", "bandwidth"]
        config.decoder_cmd = "cat {input}"
        run_pipeline(config)
        assert sorted(decoded) == chapter_ids
        assert sorted(saved) == [f".ch{c}_000{i}.partial.wav" for c in range(3) for i in range(2)]
        assert _tree(tmp_path / "raw") == _tree(tmp_path / "wav")

    def test_estimate_runs_beside_its_chapters_records(self, tmp_path, monkeypatch):
        # A record of ch1 waits in trim_silence until ch1's estimate has
        # started, which a later stage's estimate never does in time.
        root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=2)
        started = {c.chapter_id: threading.Event()
                   for c in read_chapters(root / "chapters.jsonl")}
        chapter = threading.local()  # the chapter this thread last read from
        waited: list[bool] = []
        load_pcm_, bandwidth_, trim_ = (audiolib.load_pcm, bwlib.chapter_bandwidth,
                                        audiolib.trim_silence)

        def noting_load(pcm, *args, **kwargs):
            chapter.id = pcm.path.stem
            return load_pcm_(pcm, *args, **kwargs)

        def noting_bandwidth(*args, **kwargs):
            started[chapter.id].set()
            return bandwidth_(*args, **kwargs)

        def waiting_trim(*args, **kwargs):
            if chapter.id == "ch1" and not waited:
                waited.append(started["ch1"].wait(timeout=5))
            return trim_(*args, **kwargs)

        monkeypatch.setattr(audiolib, "load_pcm", noting_load)
        monkeypatch.setattr(bwlib, "chapter_bandwidth", noting_bandwidth)
        monkeypatch.setattr(audiolib, "trim_silence", waiting_trim)
        config = make_config(root, tmp_path / "out", workers=2)
        config.stages = ["audio", "bandwidth"]
        result = run_pipeline(config)
        assert waited == [True]
        assert [r.records_out for r in result.reports] == [8, 8]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bandwidth_outputs_as_bandwidth_alone(self, tmp_path, workers):
        # Every ch1 record starts past its chapter's end, so the audio stage
        # rejects them all; ch8 is shorter than one analysis window, so the
        # bandwidth stage rejects its record.
        root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=2)
        noise = np.random.default_rng(5).uniform(-0.5, 0.5, 1920)  # 40 ms
        save_pcm(AudioBuffer(noise, 48000), root / "raw" / "ch8.wav")
        chapters = read_chapters(root / "chapters.jsonl")
        chapters.append(ChapterRecord("ch8", "book0", "spk8", "raw/ch8.wav", 48000))
        write_chapters(chapters, root / "chapters.jsonl")
        records = [r.with_fields(offset_s=1000.0) if r.chapter_id == "ch1" else r
                   for r in read_manifest(root / "utterances.jsonl")]
        records.append(records[0].with_fields(utterance_id="ch8_0000", chapter_id="ch8",
                                              audio_path="raw/ch8.wav", offset_s=0.0,
                                              duration_s=0.04))
        write_manifest(records, root / "utterances.jsonl")
        both, alone = tmp_path / "both", tmp_path / "alone"
        config = make_config(root, both, workers=workers)
        config.stages = ["audio", "bandwidth"]
        result = run_pipeline(config)
        assert [r.drop_reasons for r in result.reports] == [
            {"offset_past_end": 2}, {"degenerate_spectrum": 1}]
        # The bandwidth stage on its own opens and estimates each chapter itself.
        config = make_config(root, alone, workers=workers)
        config.stages = ["bandwidth"]
        config.utterances_manifest = str(both / "manifest.00_audio.jsonl")
        run_pipeline(config)
        for name, other in [("manifest.01_bandwidth.jsonl", "manifest.00_bandwidth.jsonl"),
                            ("report.bandwidth.json", None), ("rejects.bandwidth.jsonl", None)]:
            assert (both / name).read_bytes() == (alone / (other or name)).read_bytes(), name

    def test_chapter_task_results_beside_records(self):
        # A chapter whose input is a reject reason gets its task too; the
        # work function rejects its records.
        records = [SimpleNamespace(chapter_id=c, uid=f"{c}_{i}", duration_s=1.0)
                   for c in ("ch0", "ch1", "ch2") for i in range(2)]

        def load(chapter_id):
            return "missing_chapter" if chapter_id == "ch1" else [chapter_id]

        def work(rec, chapter):
            return pipeline_mod._Reject(rec, chapter) if isinstance(chapter, str) else rec.uid

        with ThreadPoolExecutor(max_workers=2) as pool:
            results, estimates = pipeline_mod._by_chapter(
                records, load, work, pool,
                lambda chapter: None if isinstance(chapter, str) else chapter[0].upper())
        assert estimates == {"ch0": "CH0", "ch1": None, "ch2": "CH2"}
        assert results[:2] == ["ch0_0", "ch0_1"] and results[4:] == ["ch2_0", "ch2_1"]
        assert [r.reason for r in results[2:4]] == ["missing_chapter"] * 2

    def test_chapter_task_error_propagates_and_frees_inputs(self):
        inputs = []

        class Chapter:
            def __init__(self, chapter_id):
                self.chapter_id = chapter_id

        def load(chapter_id):
            chapter = Chapter(chapter_id)
            inputs.append(weakref.ref(chapter))
            return chapter

        def chapter_task(chapter):
            if chapter.chapter_id == "ch1":
                raise RuntimeError("chapter task failed")
            return chapter.chapter_id

        records = [SimpleNamespace(chapter_id=f"ch{c}", uid=f"ch{c}_{i}", duration_s=1.0)
                   for c in range(4) for i in range(3)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            with pytest.raises(RuntimeError, match="chapter task failed"):
                pipeline_mod._by_chapter(records, load, lambda rec, chapter: rec.uid,
                                         pool, chapter_task)
        gc.collect()  # the traceback's frames and the failed future form cycles
        assert len(inputs) >= 2 and all(ref() is None for ref in inputs)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_book_and_audio_opened_together(self, tmp_path, monkeypatch, workers):
        # Each chapter's book is cleaned and its audio opened before the next
        # chapter's, by one loader; the estimate reads the audio it opened.
        root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=2)
        calls: list[str] = []
        clean_, open_pcm_ = textproc.clean_formatting, audiolib.open_pcm

        def noting_clean(text, rules=None):
            calls.append("clean")
            return clean_(text, rules)

        def noting_open(path, decoder_cmd=None):
            calls.append(Path(path).stem)
            return open_pcm_(path, decoder_cmd)

        monkeypatch.setattr(textproc, "clean_formatting", noting_clean)
        monkeypatch.setattr(audiolib, "open_pcm", noting_open)
        config = make_config(root, tmp_path / "out", workers=workers)
        config.stages = ["text", "audio", "bandwidth"]
        result = run_pipeline(config)
        assert [r.records_out for r in result.reports] == [8, 8, 8]
        chapter_ids = [c.chapter_id for c in read_chapters(root / "chapters.jsonl")]
        assert calls == [call for c in chapter_ids for call in ("clean", c)]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("stages", [["text", "audio", "bandwidth"], ["text", "bandwidth"]],
                             ids="+".join)
    def test_chapter_text_rejects_is_never_opened(self, planted_corpus, tmp_path,
                                                  monkeypatch, stages, workers):
        opened: list[str] = []
        open_pcm_ = audiolib.open_pcm

        def noting_open(path, decoder_cmd=None):
            opened.append(Path(path).stem)
            return open_pcm_(path, decoder_cmd)

        monkeypatch.setattr(audiolib, "open_pcm", noting_open)
        config = make_config(planted_corpus, tmp_path / "out", workers=workers)
        config.stages = stages
        result = run_pipeline(config)
        assert result.reports[0].drop_reasons == {"missing_chapter": 2, "missing_book_text": 2}
        # ch4 is not in the chapters manifest and ch5 has no book text.
        assert sorted(opened) == ["ch0", "ch1", "ch2", "ch3", "ch6", "ch7"]

    def test_bandwidth_only_estimates_run_at_once(self, tmp_path, monkeypatch):
        # Each of the four chapters' estimates waits until all four have started.
        root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=1)
        all_started = threading.Barrier(4, timeout=5)
        bandwidth_ = bwlib.chapter_bandwidth

        def waiting_bandwidth(*args, **kwargs):
            all_started.wait()  # BrokenBarrierError when fewer run at once
            return bandwidth_(*args, **kwargs)

        monkeypatch.setattr(bwlib, "chapter_bandwidth", waiting_bandwidth)
        config = make_config(root, tmp_path / "out", workers=4)
        config.stages = ["bandwidth"]
        assert run_pipeline(config).reports[0].records_out == 4


@pytest.fixture(scope="module")
def planted_corpus(tmp_path_factory):
    """build_corpus's four chapters, two records each, and one chapter of each
    chapter-level fault, its records after ch0-ch3's in reverse manifest order.

    ch1's records all start past its end; ch4 is missing from the chapters
    manifest; ch5 has no book text; ch6's audio file is random bytes; ch7 is
    shorter than one bandwidth analysis window.
    """
    root = build_corpus(tmp_path_factory.mktemp("planted"), n_utts_per_chapter=2)
    chapters = read_chapters(root / "chapters.jsonl")
    books = {c.chapter_id: c.book_text_path for c in chapters}
    (root / "raw" / "ch5.wav").write_bytes((root / "raw" / "ch2.wav").read_bytes())
    (root / "raw" / "ch6.wav").write_bytes(np.random.default_rng(6).bytes(4096))
    noise = np.random.default_rng(7).uniform(-0.5, 0.5, 1920)  # 40 ms
    save_pcm(AudioBuffer(noise, 48000), root / "raw" / "ch7.wav")
    chapters += [ChapterRecord("ch5", "book0", "spk5", "raw/ch5.wav", 48000),
                 ChapterRecord("ch6", "book0", "spk6", "raw/ch6.wav", 48000, books["ch3"]),
                 ChapterRecord("ch7", "book0", "spk7", "raw/ch7.wav", 48000, books["ch0"])]
    write_chapters(chapters, root / "chapters.jsonl")
    records = [r.with_fields(offset_s=1000.0) if r.chapter_id == "ch1" else r
               for r in read_manifest(root / "utterances.jsonl")]
    planted = [r.with_fields(utterance_id=r.utterance_id.replace(like, new), chapter_id=new,
                             audio_path=f"raw/{new}.wav")
               for new, like in [("ch4", "ch0"), ("ch5", "ch2"), ("ch6", "ch3")]
               for r in records if r.chapter_id == like]
    planted.append(records[0].with_fields(utterance_id="ch7_0000", chapter_id="ch7",
                                          audio_path="raw/ch7.wav", duration_s=0.04))
    write_manifest(records + planted[::-1], root / "utterances.jsonl")
    return root


_CHAPTER_STAGE_SETS = [list(c) for n in (1, 2, 3)
                       for c in itertools.combinations(("text", "audio", "bandwidth"), n)]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("stages", _CHAPTER_STAGE_SETS, ids="+".join)
def test_chapter_stages_as_each_stage_alone(planted_corpus, tmp_path, stages, workers):
    # A run of several chapter stages writes, for each stage, what a run of
    # that stage alone writes when fed the previous stage's manifest.
    combined = tmp_path / "combined"
    config = make_config(planted_corpus, combined, workers=workers)
    config.stages = stages
    reports = run_pipeline(config).reports
    if len(stages) == 3:  # each planted fault is met
        assert [r.drop_reasons for r in reports] == [
            {"missing_chapter": 2, "missing_book_text": 2},
            {"offset_past_end": 2, "chapter_audio_unreadable:AudioError": 2},
            {"degenerate_spectrum": 1}]
    manifest = planted_corpus / "utterances.jsonl"
    for index, stage in enumerate(stages):
        alone = tmp_path / f"alone-{stage}"
        config = make_config(planted_corpus, alone, workers=workers)
        config.stages = [stage]
        config.utterances_manifest = str(manifest)
        assert run_pipeline(config).reports == [reports[index]]
        manifest = alone / f"manifest.00_{stage}.jsonl"
        for ours, theirs in [(f"manifest.{index:02d}_{stage}.jsonl", manifest.name),
                             (f"report.{stage}.json", None), (f"rejects.{stage}.jsonl", None)]:
            ours, theirs = combined / ours, alone / (theirs or ours)
            assert ours.exists() == theirs.exists(), ours.name
            assert not ours.exists() or ours.read_bytes() == theirs.read_bytes(), ours.name
    if "audio" in stages:
        assert _tree(combined / "audio") == _tree(tmp_path / "alone-audio" / "audio")


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

    def test_chapters_manifest_read_once_on_calling_thread(self, tmp_path, monkeypatch):
        root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=1)
        readers: list[str] = []
        read_chapters_ = pipeline_mod.read_chapters

        def slow_read(path):
            readers.append(threading.current_thread().name)
            time.sleep(0.05)  # long enough for a second worker to read it too
            return read_chapters_(path)

        monkeypatch.setattr(pipeline_mod, "read_chapters", slow_read)
        config = make_config(root, tmp_path / "out", workers=2)
        config.stages = ["bandwidth"]
        assert run_pipeline(config).reports[0].records_out == 4
        assert readers == [threading.current_thread().name]

    def test_chapter_shorter_than_one_window_rejected(self, tmp_path):
        samples = np.random.default_rng(8).standard_normal(1000) * 0.1
        result = run_pipeline(_bandwidth_only_config(tmp_path, samples, 44100))
        assert result.exit_code == EXIT_PARTIAL
        assert result.reports[0].drop_reasons == {"degenerate_spectrum": 1}
        assert read_manifest(result.final_manifest) == []


def test_odd_source_rate_beside_48k(tmp_path):
    # 47952 -> 44100 Hz has 1225 polyphase phases against 147 at 48 kHz.
    (tmp_path / "raw").mkdir()
    chapters, records = [], []
    for i, sr in enumerate((48000, 47952)):
        path = f"raw/c{i}.wav"
        save_pcm(AudioBuffer(lowpassed_noise(8000, 4.0, sr, seed=i) * 0.3, sr), tmp_path / path)
        chapters.append(ChapterRecord(f"c{i}", "b0", f"s{i}", path, sr))
        records += [UtteranceRecord(f"c{i}_{k:04d}", "b0", f"c{i}", f"s{i}", path,
                                    2.0 * k, 2.0, raw_text="x") for k in range(2)]
    write_chapters(chapters, tmp_path / "chapters.jsonl")
    write_manifest(records, tmp_path / "utterances.jsonl")
    outs = []
    for workers in (1, 2):
        outs.append(tmp_path / f"w{workers}")
        config = make_config(tmp_path, outs[-1], workers=workers)
        config.stages = ["audio", "bandwidth"]
        result = run_pipeline(config)
        assert result.exit_code == 0
        assert [r.records_dropped for r in result.reports] == [0, 0]
        kept = read_manifest(result.final_manifest)
        assert [r.utterance_id for r in kept] == [r.utterance_id for r in records]
        for rec in kept:
            assert abs(rec.bandwidth_hz - 8000) <= 300, rec
            assert load_pcm(outs[-1] / rec.audio_path).sample_rate_hz == 44100
    names = sorted(str(p.relative_to(outs[0])) for p in outs[0].rglob("*") if p.is_file())
    assert sum(name.endswith(".wav") for name in names) == 4
    assert names == sorted(str(p.relative_to(outs[1])) for p in outs[1].rglob("*") if p.is_file())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def _lead_silence_config(root, tokens):
    """One 44.1 kHz chapter: 1.5 s of silence, speech to 3.0 s, a 0.4 s pause and
    speech to 5.0 s. One record spans it, aligned by `tokens` ((word, start, end),
    in seconds from the chapter start). Runs the audio and segment stages."""
    sr = 44100
    samples = lowpassed_noise(8000, 5.0, sr, seed=3) * 0.3
    samples[:int(1.5 * sr)] = 0.0
    samples[int(3.0 * sr):int(3.4 * sr)] = 0.0
    (root / "raw").mkdir(parents=True)
    save_pcm(AudioBuffer(samples, sr), root / "raw" / "c0.wav")
    write_chapters([ChapterRecord("c0", "b0", "s0", "raw/c0.wav", sr)], root / "chapters.jsonl")
    write_manifest([UtteranceRecord("c0_0000", "b0", "c0", "s0", "raw/c0.wav", 0.0, 5.0,
                                    raw_text=" ".join(w for w, _, _ in tokens))],
                   root / "utterances.jsonl")
    (root / "alignments.jsonl").write_text(json.dumps({
        "utterance_id": "c0_0000",
        "tokens": [{"word": w, "start": a, "end": b} for w, a, b in tokens]}) + "\n")
    config = make_config(root, root / "out")
    config.stages = ["audio", "segment"]
    return config


class TestTrimTimeBase:
    """The audio stage keeps 0.5 s of the 1.5 s leading silence, so the record's
    audio starts 1.0 s into the alignment's time base."""

    def test_cut_lands_in_the_pause_after_trimming(self, tmp_path):
        config = _lead_silence_config(tmp_path, [("Hello.", 1.5, 3.0), ("World.", 3.4, 5.0)])
        result = run_pipeline(config)
        (trimmed,) = read_manifest(tmp_path / "out" / "manifest.00_audio.jsonl")
        assert trimmed.trim_lead_s == pytest.approx(1.0, abs=0.005)
        a, b = read_manifest(result.final_manifest)
        # the pause runs 2.0-2.4 s into the trimmed audio; untrimmed times cut at 3.2 s
        assert a.duration_s == pytest.approx(2.2, abs=0.005)
        assert (a.raw_text, b.raw_text) == ("Hello.", "World.")
        assert a.trim_lead_s == b.trim_lead_s == trimmed.trim_lead_s

    def test_children_tile_their_file(self, tmp_path):
        config = _lead_silence_config(tmp_path, [("Hello.", 1.5, 3.0), ("World.", 3.4, 5.0)])
        a, b = read_manifest(run_pipeline(config).final_manifest)
        assert a.audio_path == b.audio_path
        wav = load_pcm(tmp_path / "out" / a.audio_path)
        assert a.offset_s == 0.0
        assert b.offset_s == a.duration_s
        assert b.offset_s + b.duration_s == pytest.approx(wav.duration_s, abs=1e-4)

    def test_pause_before_the_kept_audio_not_chosen(self, tmp_path):
        # The longest pause, 0.3-1.5 s, lies mostly in the silence the audio
        # stage cut: shifted, it spans -0.7-0.5 s, midpoint -0.1 s. The 0.1 s
        # pause is cut instead.
        config = _lead_silence_config(
            tmp_path, [("Oh.", 0.1, 0.3), ("Hello.", 1.5, 3.0), ("World.", 3.1, 5.0)])
        result = run_pipeline(config)
        assert result.exit_code == 0
        a, b = read_manifest(result.final_manifest)
        assert (a.raw_text, b.raw_text) == ("Oh. Hello.", "World.")
        assert a.duration_s == pytest.approx(2.05, abs=0.005)


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
        # Seconds that become a sample count must be finite.
        ({"max_edge_silence_s": float("inf")}, "max_edge_silence_s: must be finite, got inf"),
        ({"bandwidth_analysis_s": float("inf")}, "bandwidth_analysis_s: must be finite, got inf"),
        # An integer beyond the float range is no number a stage can compute with.
        *(pytest.param({name: value},
                       f"{name}: must be within the float range, got {value}", id=f"{name}-huge")
          for name, value in (("trim_threshold_db", 10**400), ("min_pause_s", 10**400),
                              ("target_sample_rate_hz", 10**400),
                              ("bandwidth_threshold_db", -10**400))),
        ({"stages": ["audio", "trim", "asr"]}, "stages: unknown stage names ['trim', 'asr']"),
        # A command must split into words and use only the placeholders its stage fills.
        *(pytest.param({key: cmd}, f"{key}: must be a command using no placeholder but "
                       f"{names}, got {cmd!r}", id=f"{key}-{case}")
          for key, names, case, cmd in (
              ("decoder_cmd", "{input}", "output", "cat {input} {output}"),
              ("decoder_cmd", "{input}", "positional", "cat {}"),
              ("decoder_cmd", "{input}", "open-quote", "cat '{input}"),
              ("decoder_cmd", "{input}", "open-brace", "cat {input"),
              ("decoder_cmd", "{input}", "empty", ""),
              ("encoder_cmd", "{input} and {output}", "unknown", "cp {input} {out}"),
              ("encoder_cmd", "{input} and {output}", "blank", "  "),
              ("decoder_cmd", "{input}", "nul", "cat\0 {input}"),
              ("encoder_cmd", "{input} and {output}", "nul", "cp {input} {output}\0"))),
        # A NUL ends a name in every system call.
        *(pytest.param({key: "a\0b"}, f"{key}: must be a path: no NUL, got 'a\\x00b'",
                       id=f"{key}-nul")
          for key in ("utterances_manifest", "chapters_manifest", "alignments_path",
                      "asr_hypotheses_path", "speaker_counts_path", "predicted_pc_path",
                      "audio_root", "out_dir", "abbreviations_path", "rules_path")),
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

    def test_malformed_yaml_is_config_error(self, tmp_path):
        config_path = tmp_path / "config.yaml"
        config_path.write_text("workers: [1,\n")
        result = CliRunner().invoke(main, ["run", "--config", str(config_path)])
        assert result.exit_code == 1, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"config error: {config_path}: malformed YAML" in result.output

    def test_config_not_utf8_names_file(self, tmp_path):
        config_path = tmp_path / "config.yaml"
        config_path.write_bytes(b"seed: 1\nout_dir: \xff\n")
        result = CliRunner().invoke(main, ["run", "--config", str(config_path)])
        assert result.exit_code == 1, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"config error: {config_path}: not UTF-8 text: " in result.output

    def test_integer_key_is_an_unknown_key(self, tmp_path):
        config_path = tmp_path / "config.yaml"
        config_path.write_text("1: a\nbogus: 2\n")
        result = CliRunner().invoke(main, ["run", "--config", str(config_path)])
        assert result.exit_code == 1, result.output
        assert "config error: unknown config keys: [1, 'bogus']" in result.output

    @pytest.mark.parametrize("content,message", [
        (b"workers: [1,\n", "malformed YAML"),
        (b"- a\n- b\n", "must be a mapping of config keys, got list"),
        (b"bogus: 1\n", "unknown config keys: ['bogus']"),
        (b"seed: \xff\n", "not UTF-8 text"),
        # A YAML alias repeats a value without copying it: 2**39 leaves, or a
        # value that holds itself, named as an unknown key before any walk.
        (b"bogus: [&a0 [x], " + b", ".join(b"&a%d [*a%d, *a%d]" % (i, i - 1, i - 1)
                                           for i in range(1, 40)) + b"]\n",
         "unknown config keys: ['bogus']"),
        (b"bogus: &x [*x]\n", "unknown config keys: ['bogus']"),
    ], ids=["malformed", "not-mapping", "unknown-key", "not-utf8", "unknown-key-alias-doubling",
            "unknown-key-alias-cycle"])
    def test_from_yaml_raises_config_error(self, tmp_path, content, message):
        path = tmp_path / "config.yaml"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match=re.escape(message)):
            PipelineConfig.from_yaml(path)

    def test_missing_alignments_fails_fast(self, corpus, tmp_path):
        config = make_config(corpus, tmp_path / "out")
        config.alignments_path = None
        config.stages = ["segment"]
        with pytest.raises(StageError, match="segment"):
            run_pipeline(config)


def _first_changed(tmp_path, manifest, values):
    """tmp_path/m.jsonl: a copy of the manifest with values set on its first line."""
    (tmp_path / "m.jsonl").write_bytes(Path(manifest).read_bytes())
    return _rewrite_line("m.jsonl", 0, lambda obj: obj.update(values))(tmp_path, None)


def _cli_run(first=None, **config):
    """The arguments of `run` over the corpus, with config's values set on its
    config and first's on its first utterance."""
    def args(tmp_path, corpus, final):
        cfg = make_config(corpus, tmp_path / "out")
        for key, value in config.items():
            setattr(cfg, key, value)
        if first:
            manifest = _first_changed(tmp_path, corpus / "utterances.jsonl", first)
            cfg.utterances_manifest = str(manifest)
        cfg.to_yaml(tmp_path / "config.yaml")
        return ["run", "--config", "config.yaml"]
    return args


def _cli_subset(first=None):
    """The arguments of `subset` keeping every record of the final manifest,
    with first's values set on its first record."""
    def args(tmp_path, corpus, final):
        manifest = _first_changed(tmp_path, final, first) if first else final
        (tmp_path / "spec.json").write_text("{}")
        return ["subset", "--manifest", str(manifest), "--spec", "spec.json", "--out", "s.jsonl"]
    return args


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

    @pytest.mark.parametrize("args,expected", [
        ([], {"stages": list(pipeline_mod.STAGE_ORDER), "seed": 0, "workers": 1}),
        (["--stages", " validate, text,", "--seed", "7", "--workers", "2"],
         {"stages": ["validate", "text"], "seed": 7, "workers": 2}),
    ], ids=["config", "overrides"])
    def test_run_options_override_config(self, corpus, tmp_path, monkeypatch, args, expected):
        seen = []

        def fake_run(config):
            seen.append(config)
            return PipelineResult(exit_code=0, reports=[], final_manifest=None)

        monkeypatch.setattr(cli_mod, "run_pipeline", fake_run)
        config_path = tmp_path / "config.yaml"
        make_config(corpus, tmp_path / "out").to_yaml(config_path)
        result = CliRunner().invoke(main, ["run", "--config", str(config_path), *args])
        assert result.exit_code == 0, result.output
        (config,) = seen
        assert {k: getattr(config, k) for k in expected} == expected

    def test_run_config_error_exit_code(self, tmp_path):
        config_path = tmp_path / "bad.yaml"
        config_path.write_text("workers: 0\n")
        result = CliRunner().invoke(main, ["run", "--config", str(config_path)])
        assert result.exit_code == 1

    # Exit 2 means a stage failed, so click's usage errors exit 1 like a config error.
    @pytest.mark.parametrize("args", [
        ["run", "--config", "absent.yaml"],
        ["run", "--config", "."],
        ["run", "--config", "config.yaml", "--workers", "x"],
        ["run"],
        ["stats", "--manifest", "."],
        ["stats", "--manifest", "m.jsonl", "--csv", "."],
        ["subset", "--manifest", "m.jsonl", "--spec", ".", "--out", "s.jsonl"],
        ["subset", "--manifest", "m.jsonl", "--spec", "spec.json", "--out", "."],
        ["splits", "--manifest", "m.jsonl", "--out", "."],
        ["nonesuch"],
        ["--nonesuch"],
    ], ids=["missing-file", "directory", "bad-int", "missing-option", "stats-directory",
            "csv-directory", "spec-directory", "out-directory", "splits-out-directory",
            "unknown-command", "unknown-option"])
    def test_usage_error_exit_code(self, tmp_path, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        for name in ("config.yaml", "m.jsonl", "spec.json"):
            (tmp_path / name).write_text("{}\n")
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Error:" in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.yaml", "m.jsonl", "spec.json"]

    # What a real process adds to the in-process tests: `python -m
    # speechcurate.cli` as the entry point, the exit code as sys.exit sets it,
    # and stderr as the process writes it, where an escaped exception shows as
    # a Traceback. One row per exit code and command; the in-process tests
    # hold the other cases.
    @pytest.mark.parametrize("args,exit_code,expected", [
        pytest.param(_cli_run(), 3, "final manifest: ", id="run-partial"),
        pytest.param(_cli_run(first={"utterance_id": "../escape"}), 1,
                     "config error: {manifest}:1: utterance_id: must be a file name",
                     id="run-config-error"),
        pytest.param(_cli_run(first={"utterance_id": "a\ud800b"}), 1,
                     "config error: {manifest}:1: not UTF-8 text: ", id="run-surrogate"),
        pytest.param(_cli_run(alignments_path="absent.jsonl"), 2,
                     "stage failure: stage 'segment': alignments file not found",
                     id="run-stage-failure"),
        pytest.param(lambda tmp_path, corpus, final: ["run", "--config", "absent.yaml"], 1,
                     "Error: Invalid value for '--config'", id="usage-error"),
        pytest.param(lambda tmp_path, corpus, final: ["stats", "--manifest", str(final),
                                                      "--csv", "stats.csv"], 0, "utterances ",
                     id="stats"),
        pytest.param(_cli_subset(), 0, "kept ", id="subset"),
        pytest.param(_cli_subset(first={"utterance_id": "a\ud800b"}), 1,
                     "config error: {manifest}:1: not UTF-8 text: ", id="subset-surrogate"),
    ])
    def test_real_process_exit_code(self, tmp_path, corpus, pipeline_out, args, exit_code,
                                    expected):
        _, presult = pipeline_out
        src = Path(pipeline_mod.__file__).parents[1]  # the tree under test
        proc = subprocess.run([sys.executable, "-m", "speechcurate.cli",
                               *args(tmp_path, corpus, presult.final_manifest)],
                              cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == exit_code, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        lines = (proc.stderr if exit_code in (1, 2) else proc.stdout).splitlines()
        expected = expected.format(manifest=tmp_path / "m.jsonl")
        assert any(line.startswith(expected) for line in lines), (proc.stdout, proc.stderr)
        if exit_code in (1, 2):  # refused before any stage: no WAV, `../escape` names none
            assert proc.stdout == ""
            assert not list(tmp_path.rglob("*.wav"))

    @pytest.mark.parametrize("args", [["--help"], ["run", "--help"]])
    def test_help_exit_code(self, args):
        assert CliRunner().invoke(main, args).exit_code == 0

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
        ({"min_bandwidth_hz": "13000"}, "min_bandwidth_hz: must be a number, got '13000'"),
        ([], "must be a JSON object, got list"),
        ("", "must be a JSON object, got str"),
        (None, "must be a JSON object, got NoneType"),
        ([1], "must be a JSON object, got list"),
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
        assert f"config error: {spec_path}: " in result.output and message in result.output
        assert not (tmp_path / "out.jsonl").exists()

    def test_subset_spec_not_utf8_is_config_error(self, tmp_path):
        manifest_path = tmp_path / "in.jsonl"
        write_manifest([UtteranceRecord("u1", "b", "c", "s", "a.wav", 0.0, 1.0,
                                        bandwidth_hz=14000)], manifest_path)
        spec_path = tmp_path / "spec.json"
        spec_path.write_bytes(b'{"min_bandwidth_hz": 13000, "note": "\xff"}')
        result = CliRunner().invoke(main, [
            "subset", "--manifest", str(manifest_path),
            "--spec", str(spec_path), "--out", str(tmp_path / "out.jsonl")])
        assert result.exit_code == 1
        assert f"config error: {spec_path}: not UTF-8 text: " in result.output
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("command,line,message", [
        *(pytest.param(command, '{"utterance_id": "u1"', "malformed JSON", id=command)
          for command in ("stats", "subset", "splits", "run")),
        # A lone surrogate, which a JSON escape can give, is no text an output can hold.
        *(pytest.param(command, json.dumps(UtteranceRecord("u\ud800", "b", "c", "s", "a.wav",
                                                           0.0, 1.0).to_json_dict()),
                       "not UTF-8 text: 'u\\ud800' holds a lone surrogate",
                       id=f"{command}-surrogate")
          for command in ("stats", "subset", "splits", "run")),
    ])
    def test_malformed_manifest_is_config_error(self, corpus, tmp_path, command, line, message):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(line + "\n", encoding="utf-8")
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
        assert f"config error: {bad}:1: {message}" in result.output

    # JSON has no NaN or infinity, though Python's json reads both.
    @pytest.mark.parametrize("key,token,message", [
        ("cer_pct", "Infinity", "cer_pct: must be finite, got inf"),
        ("snr_db", "NaN", "snr_db: must be finite, got nan"),
        ("tags", '{"snr": [1, -Infinity]}', "tags: must be finite, got {'snr': [1, -inf]}"),
    ], ids=["metric", "unknown-key", "unknown-key-nested"])
    def test_non_finite_number_in_stats_is_config_error(self, tmp_path, key, token, message):
        bad = tmp_path / "m.jsonl"
        line = json.dumps(UtteranceRecord("u1", "b", "c", "s", "a.wav", 0.0, 1.0).to_json_dict())
        bad.write_text(f'{line[:-1]}, "{key}": {token}}}\n', encoding="utf-8")
        result = CliRunner().invoke(main, ["stats", "--manifest", str(bad)])
        assert result.exit_code == 1, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"config error: {bad}:1: {message}" in result.output

    # A number too long for int() and nesting too deep to read end as config
    # errors naming the file, in whichever layer meets them first: the JSON or
    # YAML parser, or a check of the parsed value. 5,000 levels are too deep
    # for each layer on every supported Python; on some a 700-deep line parses.
    @pytest.mark.parametrize("command,name,content,located", [
        ("stats", "m.jsonl", lambda line: line.replace('"offset_s": 0.0',
                                                       '"offset_s": 1' + "0" * 5000), True),
        ("stats", "m.jsonl", lambda line: f'{line[:-1]}, "deep": {"[" * 5000}{"]" * 5000}}}',
         True),
        ("run", "config.yaml", lambda _: "trim_threshold_db: 1" + "0" * 5000, False),
        ("run", "config.yaml", lambda _: f"seed: {'[' * 5000}{']' * 5000}", False),
        ("run", "config.yaml", lambda _: "seed: 2020-13-45", False),
        ("subset", "spec.json", lambda _: '{"max_cer_pct": 1' + "0" * 5000 + "}", False),
        ("subset", "spec.json", lambda _: "[" * 5000 + "]" * 5000, False),
        # A lone surrogate, which a YAML escape can give, names no file.
        ("run", "config.yaml", lambda _: 'audio_root: "a\\ud800b"', False),
    ], ids=["manifest-long-number", "manifest-deep", "config-long-number", "config-deep",
            "config-bad-date", "spec-long-number", "spec-deep", "config-surrogate"])
    def test_unreadable_value_is_config_error(self, tmp_path, command, name, content, located):
        line = json.dumps(UtteranceRecord("u1", "b", "c", "s", "a.wav", 0.0, 1.0).to_json_dict())
        manifest_path = tmp_path / "m.jsonl"
        manifest_path.write_text(line + "\n")
        bad = tmp_path / name
        text = content(line) + "\n"
        if name == "config.yaml":
            text = f"out_dir: {tmp_path / 'out'}\n" + text
        bad.write_text(text)
        args = {"stats": ["stats", "--manifest", str(manifest_path),
                          "--csv", str(tmp_path / "out")],
                "run": ["run", "--config", str(bad)],
                "subset": ["subset", "--manifest", str(manifest_path), "--spec", str(bad),
                           "--out", str(tmp_path / "out")]}[command]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"config error: {bad}{':1' if located else ''}: " in result.output
        assert result.stdout == ""
        assert not (tmp_path / "out").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted({"m.jsonl", name})

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

    @pytest.mark.parametrize("stage,key,what", [
        ("segment", "alignments_path", "alignments"),
        ("validate", "asr_hypotheses_path", "ASR hypotheses"),
        ("speakers", "speaker_counts_path", "speaker counts"),
    ])
    def test_missing_side_input_fails_before_any_stage(self, corpus, tmp_path, stage, key, what):
        # Found before the chapter pass, not once text and audio have written.
        out = tmp_path / "out"
        config = make_config(corpus, out)
        config.stages = ["text", "audio", stage]
        setattr(config, key, str(tmp_path / "absent.jsonl"))
        config_path = tmp_path / "config.yaml"
        config.to_yaml(config_path)
        result = CliRunner().invoke(main, ["run", "--config", str(config_path)])
        assert result.exit_code == 2, result.output
        assert (f"stage {stage!r}: {what} file not found: {tmp_path / 'absent.jsonl'}"
                in result.output)
        assert not (out / "manifest.00_text.jsonl").exists()
        assert not list(out.rglob("*.wav"))

    def test_missing_chapters_manifest_is_stage_failure(self, corpus, tmp_path):
        config = make_config(corpus, tmp_path / "out")
        config.chapters_manifest = str(tmp_path / "absent.jsonl")
        config_path = tmp_path / "config.yaml"
        config.to_yaml(config_path)
        result = CliRunner().invoke(main, ["run", "--config", str(config_path)])
        assert result.exit_code == 2, result.output
        assert "chapters manifest not found" in result.output

    @pytest.mark.parametrize("stage", ["text", "audio", "bandwidth"])
    def test_missing_chapters_manifest_fails_with_no_records(self, corpus, tmp_path, stage):
        # The chapters manifest of an enabled chapter stage is read before any
        # stage runs, even when no record would look a chapter up.
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        config = make_config(corpus, tmp_path / "out")
        config.stages = [stage]
        config.utterances_manifest = str(empty)
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


def _side_dir(key, name):
    """Make root/name a directory and point config.key at it."""
    def plant(root, config):
        path = root / name
        path.mkdir()
        setattr(config, key, str(path))
        return path
    return plant


def _side_link(key, name, target):
    """Make root/name a symlink to target and point config.key at it."""
    def plant(root, config):
        path = root / name
        path.symlink_to(target)
        setattr(config, key, str(path))
        return path
    return plant


def _rewrite_line(name, index, change):
    """Rewrite line `index` (from 0) of the corpus file `name` with change(obj)."""
    def plant(root, config):
        path = root / name
        objs = [json.loads(line) for line in path.read_text().splitlines()]
        change(objs[index])
        path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
        return path
    return plant


def _drop_line(name, index):
    """Remove line `index` (from 0) of the corpus file `name`."""
    def plant(root, config):
        path = root / name
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:index] + lines[index + 1:]))
        return path
    return plant


def _chapter_ch1(**values):
    """Set values on ch1's line of the chapters manifest (line 2)."""
    return _rewrite_line("chapters.jsonl", 1, lambda obj: obj.update(values))


def _utterance_1(**values):
    """Set values on line 1 of the utterances manifest."""
    return _rewrite_line("utterances.jsonl", 0, lambda obj: obj.update(values))


def _book_text_ch1(content):
    def plant(root, config):
        (root / "text" / "ch1.txt").write_bytes(content)
        return root / "text" / "ch1.txt"
    return plant


_DUP_COUNTS = b'{"utterance_id": "ch0_0000", "num_speakers": 1}\n' * 2
_UNKNOWN_CHAPTER_KEY = _rewrite_line(
    "chapters.jsonl", 1, lambda obj: obj.update(book_txt_path=obj.pop("book_text_path")))
_DECLARED_16K = _chapter_ch1(sample_rate_hz=16000)


def _drop_ch1(root, config):
    """Remove ch1's line from the chapters manifest; its records keep naming it."""
    path = root / "chapters.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if json.loads(line)["chapter_id"] != "ch1"))
    return path


def _duplicate_ch1(root, config):
    """Append a second ch1 line that points at ch3's audio."""
    path = root / "chapters.jsonl"
    objs = [json.loads(line) for line in path.read_text().splitlines()]
    duplicate = {**objs[1], "audio_path": objs[3]["audio_path"]}
    path.write_text(path.read_text() + json.dumps(duplicate) + "\n")
    return path


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
                 1, "config error: {path}:1: start: must be a number, got 'x'",
                 id="alignments-bad-time"),
    pytest.param(["segment"], _side_file("alignments_path", "al.jsonl",
                                         b'{"utterance_id": "u", "tokens": '
                                         b'[{"word": "a", "start": "1.2", "end": 2}]}\n'),
                 1, "config error: {path}:1: start: must be a number, got '1.2'",
                 id="alignments-time-string"),
    pytest.param(["segment"], _side_file("alignments_path", "al.jsonl",
                                         b'{"utterance_id": "u", "tokens": '
                                         b'[{"word": "a", "start": 0, "end": true}]}\n'),
                 1, "config error: {path}:1: end: must be a number, got True",
                 id="alignments-time-bool"),
    pytest.param(["segment"], _side_file("alignments_path", "al.jsonl",
                                         b'{"utterance_id": 5, "tokens": []}\n'),
                 1, "config error: {path}:1: utterance_id: must be a string, got 5",
                 id="alignments-id-not-a-string"),
    pytest.param(["segment"], _side_file("alignments_path", "al.jsonl",
                                         b'{"utterance_id": "u", "tokens": []}\n' * 2),
                 1, "config error: {path}:2: duplicate utterance_id 'u'",
                 id="alignments-duplicate-id"),
    pytest.param(["segment"], _side_file("alignments_path", "al.ctm",
                                         b"u 1 0.0 0.2 a\nu 1 zero 0.2 b\n"),
                 1, "config error: {path}:2: could not convert", id="ctm-bad-time"),
    pytest.param(["segment"], _side_file("alignments_path", "al.ctm", b"u 1 0.0 0.2\n"),
                 1, "config error: {path}:1: not enough values to unpack", id="ctm-short-line"),
    pytest.param(["segment"], _side_file("alignments_path", "al.jsonl",
                                         b'{"utterance_id": "u", "tokens": [5]}\n'),
                 1, "config error: {path}:1: token must be a JSON object, got 5",
                 id="alignments-token-not-an-object"),
    pytest.param(["segment"], _side_file("alignments_path", "al.ctm", b"u 1 0.0 0.2 \xff\n"),
                 1, "config error: {path}: not UTF-8 text", id="ctm-not-utf8"),
    # A token that ends before it starts, or whose time is not finite, is
    # refused by both readers alike.
    pytest.param(["segment"], _side_file("alignments_path", "al.ctm", b"u1 1 0.5 -0.2 hello\n"),
                 1, "config error: {path}:1: token 'hello' has start > end",
                 id="ctm-negative-duration"),
    pytest.param(["segment"], _side_file("alignments_path", "al.ctm", b"u1 1 nan 0.2 hello\n"),
                 1, "config error: {path}:1: start: must be a number, got nan",
                 id="ctm-nan-time"),
    pytest.param(["segment"], _side_file("alignments_path", "al.ctm", b"u1 1 0.5 inf hello\n"),
                 1, "config error: {path}:1: end: must be finite, got inf",
                 id="ctm-infinite-time"),
    pytest.param(["segment"], _side_file("alignments_path", "al.jsonl",
                                         b'{"utterance_id": "u", "tokens": '
                                         b'[{"word": "a", "start": 0, "end": Infinity}]}\n'),
                 1, "config error: {path}:1: end: must be finite, got inf",
                 id="alignments-infinite-time"),
    pytest.param(["validate"], _side_file("asr_hypotheses_path", "h.jsonl", b'{"utterance_id"\n'),
                 1, "config error: {path}:1: malformed JSON", id="hyps-malformed"),
    pytest.param(["validate"], _side_file("asr_hypotheses_path", "h.jsonl",
                                          b'{"utterance_id": "u", "hyp_text": "a"}\n'
                                          b'{"utterance_id": "v"}\n'),
                 1, "config error: {path}:2: missing key 'hyp_text'", id="hyps-missing-key"),
    pytest.param(["validate"], _side_file("asr_hypotheses_path", "h.jsonl",
                                          b'{"utterance_id": "ch0_0001", "hyp_text": 5}\n'),
                 1, "config error: {path}:1: hyp_text: must be a string, got 5",
                 id="hyps-not-a-string"),
    pytest.param(["validate"], _side_file("asr_hypotheses_path", "h.jsonl",
                                          b'{"utterance_id": 5, "hyp_text": "x"}\n'),
                 1, "config error: {path}:1: utterance_id: must be a string, got 5",
                 id="hyps-id-not-a-string"),
    pytest.param(["validate"], _side_file("asr_hypotheses_path", "h.jsonl",
                                          b'{"utterance_id": "u", "hyp_text": "a"}\n'
                                          b'{"utterance_id": "u", "hyp_text": "b"}\n'),
                 1, "config error: {path}:2: duplicate utterance_id 'u'",
                 id="hyps-duplicate-id"),
    pytest.param(["text"], _side_file("predicted_pc_path", "pc.jsonl",
                                      b'{"utterance_id": "ch0_0001", "text": null}\n'),
                 1, "config error: {path}:1: text: must be a string, got None",
                 id="predicted-pc-not-a-string"),
    pytest.param(["text"], _side_file("predicted_pc_path", "pc.jsonl",
                                      b'{"utterance_id": 5, "text": "x"}\n'),
                 1, "config error: {path}:1: utterance_id: must be a string, got 5",
                 id="predicted-pc-id-not-a-string"),
    pytest.param(["text"], _side_file("predicted_pc_path", "pc.jsonl",
                                      b'{"utterance_id": "u", "text": "a"}\n'
                                      b'{"utterance_id": "u", "text": "b"}\n'),
                 1, "config error: {path}:2: duplicate utterance_id 'u'",
                 id="predicted-pc-duplicate-id"),
    pytest.param(["text"], _side_file("predicted_pc_path", "pc.jsonl", b'{"utterance_id"\n'),
                 1, "config error: {path}:1: malformed JSON", id="predicted-pc-malformed"),
    pytest.param(["text"], _side_file("predicted_pc_path", "pc.jsonl", None),
                 2, "stage failure: stage 'text': predicted PC file not found: {path}",
                 id="predicted-pc-missing"),
    pytest.param(["speakers"], _side_file("speaker_counts_path", "c.jsonl", b"{\n"),
                 1, "config error: {path}:1: malformed JSON", id="counts-malformed"),
    pytest.param(["speakers"], _side_file("speaker_counts_path", "c.jsonl",
                                          b'{"utterance_id": "u", "num_speakers": "two"}\n'),
                 1, "config error: {path}:1: num_speakers: must be an integer, got 'two'",
                 id="counts-not-a-number"),
    pytest.param(["speakers"], _side_file("speaker_counts_path", "c.jsonl",
                                          b'{"utterance_id": "ch0_0000", "num_speakers": -1}\n'),
                 1, "config error: {path}:1: num_speakers: must be >= 0, got -1",
                 id="counts-negative"),
    pytest.param(["speakers"], _side_file("speaker_counts_path", "c.jsonl",
                                          b'{"utterance_id": "ch0_0000", "num_speakers": 2.7}\n'),
                 1, "config error: {path}:1: num_speakers: must be an integer, got 2.7",
                 id="counts-fractional"),
    pytest.param(["speakers"], _side_file("speaker_counts_path", "c.jsonl",
                                          b'{"utterance_id": "ch0_0000", "num_speakers": true}\n'),
                 1, "config error: {path}:1: num_speakers: must be an integer, got True",
                 id="counts-bool"),
    pytest.param(["speakers"], _side_file("speaker_counts_path", "c.jsonl",
                                          b'{"utterance_id": 5, "num_speakers": 1}\n'),
                 1, "config error: {path}:1: utterance_id: must be a string, got 5",
                 id="counts-id-not-a-string"),
    pytest.param(["speakers"], _side_file("speaker_counts_path", "c.jsonl",
                                          b'{"utterance_id": "ch0_0000", "num_speaker": 1}\n'),
                 1, "config error: {path}:1: missing key 'num_speakers'",
                 id="counts-misspelt-key"),
    pytest.param(["speakers"], _side_file("speaker_counts_path", "c.jsonl", _DUP_COUNTS),
                 1, "config error: {path}:2: duplicate utterance_id 'ch0_0000'",
                 id="counts-duplicate-id"),
    pytest.param(["audio"], _side_dir("chapters_manifest", "chapters.d"),
                 1, "config error: {path}: unreadable", id="chapters-directory"),
    pytest.param(["segment"], _side_dir("alignments_path", "al.jsonl"),
                 1, "config error: {path}: unreadable", id="alignments-directory"),
    pytest.param(["validate"], _side_dir("asr_hypotheses_path", "h.jsonl"),
                 1, "config error: {path}: unreadable", id="hyps-directory"),
    pytest.param(["text"], _side_file("rules_path", "rules.txt", None),
                 1, "config error: {path}: unreadable", id="rules-missing"),
    pytest.param(["text"], _side_file("rules_path", "rules.txt", b"\xff\xfe"),
                 1, "config error: {path}: not UTF-8 text", id="rules-not-utf8"),
    pytest.param(["text"], _side_file("abbreviations_path", "abbr.txt", None),
                 1, "config error: {path}: unreadable", id="abbreviations-missing"),
    pytest.param(["text"], _side_file("abbreviations_path", "abbr.txt", b"Dr.\n\xff\n"),
                 1, "config error: {path}: not UTF-8 text", id="abbreviations-not-utf8"),
    pytest.param(["text"], _UNKNOWN_CHAPTER_KEY,
                 1, "config error: {path}:2: unknown keys: ['book_txt_path']",
                 id="chapter-unknown-key"),
    pytest.param(["text"], _rewrite_line("utterances.jsonl", 0, lambda obj: obj.pop("book_id")),
                 1, "config error: {path}:1: missing key 'book_id'",
                 id="utterance-missing-key"),
    pytest.param(["audio"], _rewrite_line("chapters.jsonl", 1, lambda obj: obj.pop("speaker_id")),
                 1, "config error: {path}:2: missing key 'speaker_id'",
                 id="chapter-missing-key"),
    pytest.param(["audio"], _chapter_ch1(audio_path=5),
                 1, "config error: {path}:2: audio_path: must be a string, got 5",
                 id="chapter-audio-path-not-a-string"),
    pytest.param(["text"], _chapter_ch1(book_text_path=5),
                 1, "config error: {path}:2: book_text_path: must be a string or null, got 5",
                 id="chapter-book-text-path-not-a-string"),
    pytest.param(["audio"], _chapter_ch1(sample_rate_hz="48000"),
                 1, "config error: {path}:2: sample_rate_hz: must be an integer, got '48000'",
                 id="chapter-rate-string"),
    pytest.param(["audio"], _chapter_ch1(sample_rate_hz=48000.0),
                 1, "config error: {path}:2: sample_rate_hz: must be an integer, got 48000.0",
                 id="chapter-rate-float"),
    pytest.param(["text"], _utterance_1(raw_text=5),
                 1, "config error: {path}:1: raw_text: must be a string, got 5",
                 id="utterance-raw-text-not-a-string"),
    pytest.param(["text"], _utterance_1(utterance_id=5),
                 1, "config error: {path}:1: utterance_id: must be a string, got 5",
                 id="utterance-id-not-a-string"),
    pytest.param(["text"], _utterance_1(chapter_id=7),
                 1, "config error: {path}:1: chapter_id: must be a string, got 7",
                 id="utterance-chapter-id-not-a-string"),
    pytest.param(["audio"], _utterance_1(offset_s=True),
                 1, "config error: {path}:1: offset_s: must be a number, got True",
                 id="utterance-offset-bool"),
    pytest.param(["audio"], _utterance_1(offset_s=float("nan")),
                 1, "config error: {path}:1: offset_s: must be a number, got nan",
                 id="utterance-offset-nan"),
    pytest.param(["audio"], _utterance_1(offset_s=float("inf")),
                 1, "config error: {path}:1: offset_s: must be finite, got inf",
                 id="utterance-offset-infinite"),
    pytest.param(["audio"], _utterance_1(duration_s=float("inf")),
                 1, "config error: {path}:1: duration_s: must be finite, got inf",
                 id="utterance-duration-infinite"),
    # 0.00004 s is 0.0 at a manifest's 4 decimals, which no stage may run on.
    pytest.param(["audio"], _utterance_1(duration_s=4e-05),
                 1, "config error: {path}: 'ch0_0000': duration_s: must be > 0, got 0.0",
                 id="utterance-duration-below-precision"),
    # An id names the record's file under out_dir/audio.
    pytest.param(["audio"], _utterance_1(utterance_id="../../escape"),
                 1, "config error: {path}:1: utterance_id: must be a file name: no '/', no NUL "
                 "and no leading '.', got '../../escape'", id="utterance-id-escapes"),
    pytest.param(["audio"], _utterance_1(utterance_id="a\0b"),
                 1, "config error: {path}:1: utterance_id: must be a file name: ",
                 id="utterance-id-nul"),
    pytest.param(["audio"], _utterance_1(utterance_id="a/b"),
                 1, "config error: {path}:1: utterance_id: must be a file name: ",
                 id="utterance-id-slash"),
    pytest.param(["audio"], _utterance_1(offset_s=10**400),
                 1, "config error: {path}:1: offset_s: must be finite, got 1" + "0" * 400,
                 id="utterance-offset-beyond-float"),
    pytest.param(["audio"], _duplicate_ch1,
                 1, "config error: {path}:5: duplicate chapter_id 'ch1'",
                 id="chapter-duplicate-id"),
    pytest.param(["text"], _book_text_ch1(b"\xff\xfe Some text."),
                 3, {"book_text_unreadable:UnicodeDecodeError": 2}, id="book-text-not-utf8"),
    pytest.param(["audio"], _DECLARED_16K, 3, {"sample_rate_mismatch": 2},
                 id="audio-rate-mismatch"),
    pytest.param(["bandwidth"], _DECLARED_16K, 3, {"sample_rate_mismatch": 2},
                 id="bandwidth-rate-mismatch"),
    pytest.param(["audio"], _drop_ch1, 3, {"missing_chapter": 2}, id="audio-unknown-chapter"),
    pytest.param(["bandwidth"], _drop_ch1, 3, {"missing_chapter": 2},
                 id="bandwidth-unknown-chapter"),
    pytest.param(["segment"], _drop_line("alignments.jsonl", 0), 3, {"missing_alignment": 1},
                 id="segment-missing-alignment"),
    pytest.param(["segment"], _rewrite_line("alignments.jsonl", 0,
                                            lambda obj: obj["tokens"].pop()),
                 3, {"alignment_mismatch:transcript has 8 words but alignment has 7 tokens": 1},
                 id="segment-alignment-mismatch"),
    # Hypotheses are keyed by the ids after the split, so the four records
    # that segment would split (ch*_0000) have none.
    pytest.param(["validate"], _rewrite_line("utterances.jsonl", 1,
                                             lambda obj: obj.update(raw_text="")),
                 3, {"empty_reference": 1, "missing_hypothesis": 4},
                 id="validate-empty-reference"),
    # A lone surrogate, which a JSON escape can give, is no text an output can
    # hold or a file name: refused as its line is read, wherever it is.
    pytest.param(["text"], _utterance_1(**{"note\ud800": 1}),
                 1, "config error: {path}:1: not UTF-8 text: 'note\\ud800' holds a lone surrogate",
                 id="utterance-unknown-key-surrogate"),
    pytest.param(["text"], _utterance_1(tags={"take": ["a\udcff"]}),
                 1, "config error: {path}:1: not UTF-8 text: 'a\\udcff' holds a lone surrogate",
                 id="utterance-extra-surrogate"),
    pytest.param(["audio"], _chapter_ch1(audio_path="raw/ch1\ud800.wav"),
                 1, "config error: {path}:2: not UTF-8 text: 'raw/ch1\\ud800.wav' holds a lone "
                 "surrogate", id="chapter-audio-path-surrogate"),
    # A NUL ends a name in every system call.
    pytest.param(["audio"], _chapter_ch1(audio_path="raw/ch1\0.wav"),
                 1, "config error: {path}:2: audio_path: must be a path: no NUL, got "
                 "'raw/ch1\\x00.wav'", id="chapter-audio-path-nul"),
    pytest.param(["text"], _chapter_ch1(book_text_path="text/ch1\0.txt"),
                 1, "config error: {path}:2: book_text_path: must be a path: no NUL, got "
                 "'text/ch1\\x00.txt'", id="chapter-book-text-path-nul"),
    # A side input that cannot be looked up, or that is no regular file: a
    # device such as /dev/full reads without end.
    pytest.param(["text"], _side_file("predicted_pc_path", "p" * 300, None),
                 1, "config error: {path}: unreadable: ", id="predicted-pc-name-too-long"),
    pytest.param(["segment"], _side_file("alignments_path", "a" * 300, None),
                 1, "config error: {path}: unreadable: ", id="alignments-name-too-long"),
    pytest.param(["text"], _side_link("predicted_pc_path", "pc.jsonl", "/dev/null"),
                 1, "config error: {path}: unreadable: not a regular file",
                 id="predicted-pc-device"),
    pytest.param(["validate"], _side_link("asr_hypotheses_path", "h.jsonl", "/dev/null"),
                 1, "config error: {path}: unreadable: not a regular file", id="hyps-device"),
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
        lines = (tmp_path / "out" / f"rejects.{stages[0]}.jsonl").read_text().splitlines()
        reasons = [json.loads(line)["reject_reason"] for line in lines]
        assert {r: reasons.count(r) for r in reasons} == expected
    else:
        assert expected.format(path=path) in result.output
        # Refused before any stage: no audio written, and `../../escape` named no file.
        assert not (tmp_path / "out" / "audio").exists()
        assert not list(tmp_path.rglob("escape.wav"))


# A side input written by another tool may carry keys the stage does not read.
@pytest.mark.parametrize("stage,key,line", [
    ("validate", "asr_hypotheses_path",
     lambda rec: {"utterance_id": rec.utterance_id, "hyp_text": rec.raw_text}),
    ("speakers", "speaker_counts_path",
     lambda rec: {"utterance_id": rec.utterance_id, "num_speakers": 1}),
    ("text", "predicted_pc_path",
     lambda rec: {"utterance_id": rec.utterance_id, "text": rec.raw_text.upper()}),
], ids=["hyps", "counts", "predicted-pc"])
def test_side_input_extra_key_accepted(corpus, tmp_path, stage, key, line):
    records = read_manifest(corpus / "utterances.jsonl")
    outputs = []
    for extra in ({}, {"confidence": 0.9}):
        side = tmp_path / f"side{len(extra)}.jsonl"
        side.write_text("".join(json.dumps({**line(rec), **extra}) + "\n" for rec in records))
        config = make_config(corpus, tmp_path / f"out{len(extra)}")
        config.stages = [stage]
        setattr(config, key, str(side))
        result = run_pipeline(config)
        outputs.append(read_manifest(result.final_manifest))
    assert outputs[0] == outputs[1]
    assert len(outputs[1]) == len(records)
    if stage == "text":  # ch0_0001's words are not in the book: it takes the predicted text
        by_id = {rec.utterance_id: rec for rec in outputs[1]}
        assert by_id["ch0_0001"].text == "ZULU YANKEE XRAY WHISKEY VICTOR"


def test_split_never_writes_a_taken_id(tmp_path):
    # u1 splits at its pause, and its first child would be named u1_a.
    words = [("It", 0.0, 0.4), ("ended.", 0.5, 1.0), ("Then", 1.5, 1.9), ("more", 2.0, 2.4)]
    records = [UtteranceRecord("u1", "b1", "c1", "s1", "a.wav", 0.0, 3.0,
                               raw_text="it ended then more", text="It ended. Then more"),
               UtteranceRecord("u1_a", "b1", "c1", "s1", "a.wav", 3.0, 3.0,
                               raw_text="it ended then more", text="It ended then more")]
    write_manifest(records, tmp_path / "utts.jsonl")
    tokens = [{"word": w, "start": s, "end": e} for w, s, e in words]
    (tmp_path / "al.jsonl").write_text("".join(
        json.dumps({"utterance_id": rec.utterance_id, "tokens": tokens}) + "\n"
        for rec in records))
    config = PipelineConfig(utterances_manifest=str(tmp_path / "utts.jsonl"),
                            alignments_path=str(tmp_path / "al.jsonl"),
                            out_dir=str(tmp_path / "out"), stages=["segment"])
    result = run_pipeline(config)
    assert result.exit_code == EXIT_PARTIAL
    assert result.reports[0].drop_reasons == {"split_id_collision": 1}
    assert [rec.utterance_id for rec in read_manifest(result.final_manifest)] == ["u1_a"]
    rejects = (tmp_path / "out" / "rejects.segment.jsonl").read_text()
    assert json.loads(rejects)["utterance_id"] == "u1"


@pytest.mark.parametrize("trim_lead_s,words", [
    # After the 0.04 s shift the pause runs from -0.04 to 0.04001: its midpoint,
    # 0.000005 s, would give u1_a 0.0 s as written.
    (0.04, [("Hello.", 0.0, 0.0), ("World.", 0.08001, 1.9)]),
    # The midpoint 1.99996 s would give u1_b 0.00004 s: 0.0 s as written.
    (None, [("Hello.", 0.0, 1.95992), ("World.", 2.04, 2.1)]),
], ids=["near-start", "near-end"])
def test_split_never_writes_a_child_of_no_duration(tmp_path, trim_lead_s, words):
    rec = UtteranceRecord("u1", "b1", "c1", "s1", "a.wav", 0.0, 2.0, trim_lead_s=trim_lead_s,
                          raw_text="hello world", text="Hello. World.")
    write_manifest([rec], tmp_path / "utts.jsonl")
    tokens = [{"word": w, "start": s, "end": e} for w, s, e in words]
    (tmp_path / "al.jsonl").write_text(json.dumps({"utterance_id": "u1", "tokens": tokens}) + "\n")
    config = PipelineConfig(utterances_manifest=str(tmp_path / "utts.jsonl"),
                            alignments_path=str(tmp_path / "al.jsonl"),
                            out_dir=str(tmp_path / "out"), stages=["segment"])
    result = run_pipeline(config)
    assert result.exit_code == 0
    assert read_manifest(result.final_manifest) == [rec]


def _file_at(*parts):
    """Make the file out_dir/parts... and return its path."""
    def plant(out):
        path = out.joinpath(*parts)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("not a directory\n")
        return path
    return plant


@pytest.mark.parametrize("plant", [_file_at(), _file_at("audio")], ids=["out-dir", "audio-dir"])
def test_output_directory_that_is_a_file_is_config_error(tmp_path, plant):
    root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=1)
    out = tmp_path / "out"
    path = plant(out)
    config = make_config(root, out)
    config.stages = ["text", "audio"]
    config_path = tmp_path / "config.yaml"
    config.to_yaml(config_path)
    result = CliRunner().invoke(main, ["run", "--config", str(config_path)])
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert f"config error: {path}: cannot write: " in result.output
    assert path.read_text() == "not a directory\n"
    assert [p for p in tmp_path.rglob("*") if ".partial" in p.name] == []


@pytest.mark.parametrize("stage,name", [
    ("audio", "audio/ch0_0000.wav"),
    ("text", "manifest.00_text.jsonl"),
    ("text", "rejects.text.jsonl"),
    ("text", "report.text.json"),
], ids=["wav", "stage-manifest", "rejects", "report"])
def test_directory_at_output_name_is_config_error(tmp_path, stage, name):
    root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=1)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    config = make_config(root, out)
    config.stages = [stage]
    config_path = tmp_path / "config.yaml"
    config.to_yaml(config_path)
    result = CliRunner().invoke(main, ["run", "--config", str(config_path)])
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert f"config error: {out / name}: cannot write: Is a directory" in result.output
    assert (out / name).is_dir()
    assert [p for p in tmp_path.rglob("*") if ".partial" in p.name] == []


def test_directory_at_encoder_output_is_config_error(tmp_path):
    root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=1)
    config = make_config(root, tmp_path / "out")
    config.stages = ["audio"]
    config.encoder_cmd = "cp {input} {output}"
    flac = tmp_path / "out" / "audio" / "ch0_0000.flac"
    flac.mkdir(parents=True)
    with pytest.raises(ConfigError, match=re.escape(f"{flac}: cannot write: Is a directory")):
        run_pipeline(config)
    assert [p for p in tmp_path.rglob("*") if ".partial" in p.name] == []


def test_directory_at_encoder_temporary_name_is_config_error(tmp_path):
    # cp copies into a directory at its output name and exits 0; that
    # directory must not be moved into place as the FLAC.
    root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=1)
    config = make_config(root, tmp_path / "out")
    config.stages = ["audio"]
    config.encoder_cmd = "cp {input} {output}"
    config.to_yaml(tmp_path / "config.yaml")
    audio = tmp_path / "out" / "audio"
    (audio / ".ch0_0000.partial.flac").mkdir(parents=True)
    result = CliRunner().invoke(main, ["run", "--config", str(tmp_path / "config.yaml")])
    assert result.exit_code == 1, result.output
    assert f"config error: {audio / 'ch0_0000.flac'}: cannot write: Is a directory" \
        in result.output
    assert "Traceback" not in result.output
    assert not (audio / "ch0_0000.flac").exists()


def _running(stages, encoder=None):
    """The arguments of a `run` of stages over a corpus, writing into out."""
    def args(tmp_path, out, final):
        config = make_config(build_corpus(tmp_path / "corpus", n_utts_per_chapter=1), out,
                             workers=2)
        config.stages = stages
        config.encoder_cmd = encoder
        config.to_yaml(tmp_path / "config.yaml")
        return ["run", "--config", str(tmp_path / "config.yaml")]
    return args


def _curating(command, option):
    """The arguments of a curation command writing out/final through option."""
    def args(tmp_path, out, final):
        write_manifest(eval_fixture(), tmp_path / "m.jsonl")
        (tmp_path / "spec.json").write_text("{}")
        spec = ["--spec", str(tmp_path / "spec.json")] if command == "subset" else []
        return [command, "--manifest", str(tmp_path / "m.jsonl"), *spec, option, str(out / final)]
    return args


_HAS_DEV_FULL = os.path.exists("/dev/full")


# A fault planted at the temporary name an output is written to: a directory
# there, or a symlink there to /dev/full, where every write fails for want of space.
@pytest.mark.parametrize("kind,strerror", [
    pytest.param("directory", "Is a directory", id="directory"),
    pytest.param("full", "No space left on device", id="full",
                 marks=pytest.mark.skipif(not _HAS_DEV_FULL, reason="no /dev/full")),
])
@pytest.mark.parametrize("args,final,partial", [
    (_running(["text"]), "manifest.00_text.jsonl", ".manifest.00_text.partial.jsonl"),
    # Every record lacks a hypothesis here, so the rejects file is written.
    (_running(["validate"]), "rejects.validate.jsonl", ".rejects.validate.partial.jsonl"),
    (_running(["text"]), "report.text.json", ".report.text.partial.json"),
    (_running(["audio"]), "audio/ch0_0000.wav", "audio/.ch0_0000.partial.wav"),
    # The WAV written for the encoder is named after the FLAC's temporary name.
    (_running(["audio"], "cp {input} {output}"), "audio/ch0_0000.flac",
     "audio/.ch0_0000.partial.wav"),
    (_curating("stats", "--csv"), "stats.csv", ".stats.partial.csv"),
    (_curating("subset", "--out"), "subset.jsonl", ".subset.partial.jsonl"),
    (_curating("splits", "--out"), "plans.json", ".plans.partial.json"),
], ids=["stage-manifest", "rejects", "report", "wav", "encoder-wav", "stats-csv", "subset",
        "splits"])
def test_output_that_cannot_be_written_is_config_error(tmp_path, args, final, partial, kind,
                                                       strerror):
    out = tmp_path / "out"
    argv = args(tmp_path, out, final)
    (out / final).parent.mkdir(parents=True)
    (out / final).write_text("old\n")
    if kind == "directory":
        (out / partial).mkdir()
    else:
        (out / partial).symlink_to("/dev/full")
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert f"config error: {out / final}: cannot write: {strerror}" in result.output
    assert "Traceback" not in result.output
    assert (out / final).read_text() == "old\n"
    left = [p for p in tmp_path.rglob("*") if ".partial" in p.name]
    assert left == ([out / partial] if kind == "directory" else [])


@pytest.mark.skipif(not _HAS_DEV_FULL, reason="no /dev/full")
def test_full_disk_at_encoder_output_is_the_encoders_fault(tmp_path):
    # The encoder writes the FLAC itself, so a fault there is one of the
    # encoder's own: the record is rejected and the run goes on.
    root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=1)
    config = make_config(root, tmp_path / "out")
    config.stages = ["audio"]
    config.encoder_cmd = "cp {input} {output}"
    audio = tmp_path / "out" / "audio"
    audio.mkdir(parents=True)
    (audio / ".ch0_0000.partial.flac").symlink_to("/dev/full")
    result = run_pipeline(config)
    assert result.exit_code == EXIT_PARTIAL
    assert result.reports[0].drop_reasons == {"encode_failed:CalledProcessError": 1}
    assert sorted(p.name for p in audio.iterdir()) == ["ch1_0000.flac", "ch2_0000.flac",
                                                      "ch3_0000.flac"]


def test_record_below_manifest_precision_is_empty_after_trim(tmp_path):
    # One loud sample at 44.1 kHz lasts 0.023 ms: 0.0 s at the manifest's 4 decimals.
    (tmp_path / "raw").mkdir()
    save_pcm(AudioBuffer(np.array([0.5]), 44100), tmp_path / "raw" / "c1.wav")
    write_chapters([ChapterRecord("c1", "b1", "s1", "raw/c1.wav", 44100)],
                   tmp_path / "chapters.jsonl")
    write_manifest([UtteranceRecord("u1", "b1", "c1", "s1", "raw/c1.wav", 0.0, 1.0)],
                   tmp_path / "utts.jsonl")
    out = tmp_path / "out"
    config = PipelineConfig(utterances_manifest=str(tmp_path / "utts.jsonl"),
                            chapters_manifest=str(tmp_path / "chapters.jsonl"),
                            audio_root=str(tmp_path), out_dir=str(out), stages=["audio"],
                            max_edge_silence_s=0)
    config_path = tmp_path / "config.yaml"
    config.to_yaml(config_path)
    result = CliRunner().invoke(main, ["run", "--config", str(config_path)])
    assert result.exit_code == EXIT_PARTIAL, result.output
    report = json.loads((out / "report.audio.json").read_text())
    assert report["drop_reasons"] == {"empty_after_trim": 1}
    assert list((out / "audio").iterdir()) == []


@pytest.mark.parametrize("workers", [1, 2])
def test_one_run_cuts_as_a_chain_of_one_stage_runs(tmp_path, workers):
    # Offsets with more than 4 decimals: each stage sees a value as its input
    # manifest holds it, whether it runs after the others in one run or over
    # the last one-stage run's manifest. So every manifest, rejects file,
    # report and WAV is the same bytes either way.
    root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=4)  # ch3_0003 fails validate
    path = root / "utterances.jsonl"
    objs = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text("".join(json.dumps({**obj, "offset_s": obj["offset_s"] + 4e-05}) + "\n"
                            for obj in objs))
    run_pipeline(make_config(root, tmp_path / "one", workers=workers))
    chain, manifest = tmp_path / "chain", path
    for stage in pipeline_mod.STAGE_ORDER:
        config = make_config(root, chain, workers=workers)
        config.stages, config.utterances_manifest = [stage], str(manifest)
        run_pipeline(config)
        manifest = chain / f"manifest.00_{stage}.jsonl"
    one, chained = _tree(tmp_path / "one"), _tree(chain)
    for index, stage in enumerate(pipeline_mod.STAGE_ORDER):
        assert chained.pop(f"manifest.00_{stage}.jsonl") == one.pop(
            f"manifest.{index:02d}_{stage}.jsonl"), stage
    assert {"audio/ch0_0000.wav", "rejects.validate.jsonl", "report.speakers.json"} <= set(one)
    assert chained == one


def test_config_error_is_defined_once():
    from speechcurate import manifest, segmentation
    assert pipeline_mod.ConfigError is manifest.ConfigError
    assert issubclass(manifest.ConfigError, ValueError)
    for cls in (manifest.ManifestError, manifest.InvariantError, segmentation.AlignmentError):
        assert issubclass(cls, manifest.ConfigError), cls


def test_invalid_stage_output_is_config_error(corpus, tmp_path, monkeypatch):
    def zero_length(records, ctx):
        return [rec.with_fields(duration_s=0) for rec in records], [], {}

    monkeypatch.setitem(pipeline_mod._STAGE_FNS, "speakers", zero_length)
    config = make_config(corpus, tmp_path / "out")
    config.stages = ["speakers"]
    with pytest.raises(ConfigError, match="duration_s: must be > 0, got 0"):
        run_pipeline(config)


@pytest.mark.parametrize("extras,expected", [
    ({}, {"stage": "segment", "records_in": 5, "records_out": 6, "records_dropped": 1,
          "drop_reasons": {"missing_alignment": 1}}),
    ({"split_parents": 2}, {"stage": "segment", "records_in": 5, "records_out": 6,
                            "records_dropped": 1, "drop_reasons": {"missing_alignment": 1},
                            "extras": {"split_parents": 2}}),
], ids=["no-extras", "extras"])
def test_stage_report_json_dict(extras, expected):
    report = StageReport("segment", 5, 6, 1, {"missing_alignment": 1}, extras)
    assert list(report.to_json_dict().items()) == list(expected.items())


def test_reject_lines_name_their_reason(tmp_path):
    root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=2)
    path = root / "chapters.jsonl"
    objs = [json.loads(line) for line in path.read_text().splitlines()]
    objs = [{**obj, "sample_rate_hz": 16000} if obj["chapter_id"] == "ch2" else obj
            for obj in objs if obj["chapter_id"] != "ch1"]
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
    config = make_config(root, tmp_path / "out")
    config.stages = ["audio"]
    assert run_pipeline(config).exit_code == EXIT_PARTIAL
    lines = [json.loads(line) for line in
             (tmp_path / "out" / "rejects.audio.jsonl").read_text().splitlines()]
    assert {obj["utterance_id"]: obj["reject_reason"] for obj in lines} == {
        "ch1_0000": "missing_chapter", "ch1_0001": "missing_chapter",
        "ch2_0000": "sample_rate_mismatch", "ch2_0001": "sample_rate_mismatch"}
    inputs = {r.utterance_id: r.to_json_dict() for r in read_manifest(root / "utterances.jsonl")}
    for obj in lines:
        reason = obj.pop("reject_reason")
        assert obj == inputs[obj["utterance_id"]], reason
    kept = (tmp_path / "out" / "manifest.00_audio.jsonl").read_text()
    assert kept and "reject_reason" not in kept


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


def _quiet_edged(root, bit_depth):
    """Rewrite each chapter WAV under root/raw at bit_depth (16 or 32): its
    samples 80 dB down in the first and last 0.3 s of each record, then
    rounded and clipped to 16 bits."""
    records = read_manifest(root / "utterances.jsonl")
    for path in (root / "raw").glob("*.wav"):
        samples = load_pcm(path).samples
        for rec in records:
            if rec.audio_path == f"raw/{path.name}":
                start = round(rec.offset_s * 48000)
                end = round((rec.offset_s + rec.duration_s) * 48000)
                samples[start:start + 14400] *= 1e-4
                samples[end - 14400:end] *= 1e-4
        samples = np.clip(np.round(samples * 32768.0), -32768, 32767) / 32768.0
        save_pcm(AudioBuffer(samples, 48000), path, bit_depth=bit_depth)
    return root


class TestKeptCopy:
    """From 16-bit mono chapters at the target rate the audio step copies each
    record's kept frames; its files are those a float32 source of the same
    samples gives through save_pcm."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("encoder", [None, "cp {input} {output}"], ids=["wav", "encoder"])
    @pytest.mark.parametrize("edge_s", [0.5, 0.1, 0.0])
    def test_same_files_as_save_pcm(self, tmp_path, monkeypatch, edge_s, encoder, workers):
        trees = {}
        for bit_depth in (32, 16):
            root = _quiet_edged(build_corpus(tmp_path / f"corpus{bit_depth}",
                                             n_utts_per_chapter=3), bit_depth)
            config = make_config(root, tmp_path / f"out{bit_depth}", workers=workers)
            config.stages = ["audio", "bandwidth"]
            config.target_sample_rate_hz = 48000
            config.max_edge_silence_s = edge_s
            config.encoder_cmd = encoder
            if bit_depth == 16:  # every record takes the copy

                def no_save(*args, **kwargs):
                    raise AssertionError("save_pcm called")

                monkeypatch.setattr(audiolib, "save_pcm", no_save)
            result = run_pipeline(config)
            assert [r.records_out for r in result.reports] == [12, 12]
            trees[bit_depth] = _tree(tmp_path / f"out{bit_depth}")
        assert trees[16] == trees[32]
        if edge_s < 0.3:  # each record's 0.3 s of quiet lead was cut
            assert all(r.trim_lead_s for r in read_manifest(result.final_manifest))

    def test_shrunk_chapter_rejected_as_unreadable(self, tmp_path, monkeypatch):
        root = _quiet_edged(build_corpus(tmp_path / "corpus", n_utts_per_chapter=1), 16)
        load_pcm_ = audiolib.load_pcm

        def load_then_shrink(pcm, *args, **kwargs):
            piece = load_pcm_(pcm, *args, **kwargs)
            if pcm.path.stem == "ch1":  # the file loses its frames once they are read
                os.truncate(pcm.path, pcm.data_offset)
            return piece

        monkeypatch.setattr(audiolib, "load_pcm", load_then_shrink)
        config = make_config(root, tmp_path / "out")
        config.stages = ["audio"]
        config.target_sample_rate_hz = 48000
        result = run_pipeline(config)
        assert result.reports[0].drop_reasons == {"chapter_audio_unreadable:AudioError": 1}
        assert sorted(p.name for p in (tmp_path / "out" / "audio").iterdir()) == [
            "ch0_0000.wav", "ch2_0000.wav", "ch3_0000.wav"]


# Each planted value's product with a sample rate overflows a float. The run
# must write what a finite value longer than any chapter gives: a window of
# the whole audio, or an offset past its end.
@pytest.mark.parametrize("plant,drops", [
    (lambda root, config, seconds: setattr(config, "max_edge_silence_s", seconds), {}),
    (lambda root, config, seconds: setattr(config, "bandwidth_analysis_s", seconds), {}),
    (lambda root, config, seconds: _utterance_1(duration_s=seconds)(root, config), {}),
    (lambda root, config, seconds: _utterance_1(offset_s=seconds)(root, config),
     {"offset_past_end": 1}),
], ids=["max-edge-silence", "bandwidth-analysis", "utterance-duration", "utterance-offset"])
def test_huge_seconds_clip_to_the_audio(tmp_path, plant, drops):
    trees = []
    for seconds in (1e6, 1e308):
        root = build_corpus(tmp_path / f"corpus{seconds:g}", n_utts_per_chapter=2)
        config = make_config(root, tmp_path / f"out{seconds:g}")
        config.stages = ["audio", "bandwidth"]
        plant(root, config, seconds)
        result = run_pipeline(config)
        assert [r.drop_reasons for r in result.reports] == [drops, {}]
        # A rejected record is written back with the value it was read with.
        trees.append({name: data for name, data in _tree(tmp_path / f"out{seconds:g}").items()
                      if not name.startswith("rejects.")})
    assert trees[0] == trees[1]


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


@pytest.mark.parametrize("hook", ["decoder", "encoder"])
@pytest.mark.parametrize("workers", [1, 2])
def test_killed_run_leaves_no_truncated_output(tmp_path, workers, hook):
    root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=3)
    _decoded_copies(root, {"ch0", "ch1", "ch2", "ch3"})
    # A decoder or encoder whose third call (mkdir is atomic, so exactly one
    # call of any run is that call) kills the run that called it, as SIGKILL
    # does, the encoder once it has written part of its output; any other call
    # passes its input through.
    script = tmp_path / "killer.sh"
    script.write_text(
        f"if mkdir {tmp_path}/called1 2>/dev/null || mkdir {tmp_path}/called2 2>/dev/null"
        f" || ! mkdir {tmp_path}/killed 2>/dev/null; then\n"
        '  if [ $# = 1 ]; then exec cat "$1"; else exec cp "$1" "$2"; fi\n'
        "fi\n"
        'head -c 44 "$1" > "${2:-/dev/null}"; kill -9 $PPID; exit 1\n')
    env = {**os.environ, "PYTHONPATH": str(Path(pipeline_mod.__file__).parents[1])}

    def run(out):
        config = make_config(root, out, workers=workers)
        config.decoder_cmd = f"sh {script} {{input}}" if hook == "decoder" else "cat {input}"
        if hook == "encoder":
            config.encoder_cmd = f"sh {script} {{input}} {{output}}"
        config.to_yaml(tmp_path / "config.yaml")
        return subprocess.run([sys.executable, "-m", "speechcurate.cli", "run", "--config",
                               str(tmp_path / "config.yaml")], env=env,
                              capture_output=True).returncode

    out = tmp_path / "out"
    assert run(out) == -signal.SIGKILL
    left = [p for p in out.rglob("*") if p.is_file()]
    assert not [p for p in left if p.name.startswith(("manifest.", "rejects.", "report."))]
    assert all(".partial" in p.name for p in left if p.name.startswith("."))
    finals = [p for p in left if not p.name.startswith(".")]
    # The first chapter is done before the third is decoded, at any worker count.
    assert finals
    for path in finals:  # each a whole WAV: it holds the data its header declares
        pcm = audiolib.open_pcm(path)
        (size,) = struct.unpack("<I", path.read_bytes()[pcm.data_offset - 4:pcm.data_offset])
        assert size == pcm.num_frames * pcm.channels * pcm.width, path.name
        assert path.stat().st_size == pcm.data_offset + size, path.name
        del pcm
    # Run again into the same out_dir: as if no run had been killed there.
    assert run(out) == run(tmp_path / "fresh") == 0
    assert _tree(out) == _tree(tmp_path / "fresh")
    assert not [name for name in _tree(out) if ".partial" in name]


# The audio step's longest name is replacing's temporary one: `.<id>.partial.wav`
# is 13 bytes longer than the id, `.<id>.partial.flac` 14.
@pytest.mark.parametrize("encoder,longer,refused", [
    (None, 13, False), (None, 12, True),
    ("cp {input} {output}", 14, False), ("cp {input} {output}", 13, True),
], ids=["wav-fits", "wav-too-long", "encoder-fits", "encoder-too-long"])
def test_utterance_id_too_long_for_its_audio_name(tmp_path, encoder, longer, refused):
    root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=1)
    out = tmp_path / "out"
    out.mkdir()
    long_id = "x" * (os.pathconf(out, "PC_NAME_MAX") - longer)
    path = _rewrite_line("utterances.jsonl", 3, lambda obj: obj.update(utterance_id=long_id))(
        root, None)
    config = make_config(root, out)
    config.stages = ["audio"]
    config.encoder_cmd = encoder
    if not refused:
        assert run_pipeline(config).reports[0].records_out == 4
        assert (out / "audio" / f"{long_id}{'.flac' if encoder else '.wav'}").is_file()
        return
    with pytest.raises(ConfigError, match=re.escape(f"{path}: {long_id!r}: utterance_id: ")):
        run_pipeline(config)
    assert not (out / "audio").exists()  # refused before any stage runs


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


def _openblas_threads():
    """(get, set) for the thread count of numpy's bundled OpenBLAS, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # already loaded by numpy: the same handle
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            try:
                get, set_ = (getattr(lib, name.format(op)) for op in ("get", "set"))
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


class TestBlasThreads:
    """Stage workers leave numpy's BLAS threads as they are; no output byte may
    depend on the worker count, whether BLAS runs threaded or not."""

    @pytest.mark.parametrize("threaded", [True, False], ids=["openblas", "none"])
    def test_same_bytes_at_any_worker_count(self, tmp_path, threaded):
        blas = _openblas_threads()
        before = blas[0]() if blas else None
        if blas and not threaded:
            blas[1](1)
        try:
            root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=3)
            outs = []
            for workers in (1, 2):
                outs.append(tmp_path / f"w{workers}")
                config = make_config(root, outs[-1], workers=workers)
                config.stages = ["audio", "bandwidth"]
                run_pipeline(config)
                if blas:
                    assert blas[0]() == (before if threaded else 1)
        finally:
            if blas:
                blas[1](before)
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


def _whole_chapter_records(root):
    """Make each chapter's first record span its whole chapter (about 13 s at
    48 kHz): a working set of ~25 MB that glibc by default trims back to the
    kernel once it is freed."""
    path = root / "utterances.jsonl"
    objs = [json.loads(line) for line in path.read_text().splitlines()]
    totals = {}
    for obj in objs:
        totals[obj["chapter_id"]] = totals.get(obj["chapter_id"], 0.0) + obj["duration_s"]
    for obj in objs:
        if obj["utterance_id"].endswith("_0000"):
            obj.update(offset_s=0.0, duration_s=round(totals[obj["chapter_id"]], 4))
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))


def _tree(out):
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


_GLIBC_ONLY = pytest.mark.skipif(platform.system() != "Linux"
                                 or platform.libc_ver()[0] != "glibc",
                                 reason="glibc's mallopt only")


class TestFreedHeap:
    """The pipeline asks glibc to keep freed memory for the next record."""

    @_GLIBC_ONLY
    def test_audio_stage_reuses_freed_pages(self, tmp_path):
        import resource  # Unix only

        root = build_corpus(tmp_path / "corpus")
        _whole_chapter_records(root)
        config = make_config(root, tmp_path / "out", workers=2)
        config.stages = ["audio"]
        faults = []
        for _ in range(4):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            run_pipeline(config)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        # The first pass grows the heap. A later pool thread may start before
        # the last pass's threads have given back their arenas, and is then
        # given a fresh arena that grows once, so the fewest faults of the
        # later passes is the steady state. Trimmed, each pass faults its
        # working set in again: 7k to 9k pages here.
        assert min(faults[1:]) < 1000, faults

    @_GLIBC_ONLY
    def test_large_blocks_stay_on_the_heap(self):
        # A fresh process, where no large block has been freed yet. Setting
        # M_TOP_PAD alone froze glibc's mmap threshold at 128 KiB there: each
        # 2 MiB array was mmapped and its 512 pages faulted in, 10k faults.
        script = ("import resource\n"
                  "import numpy as np\n"
                  "from speechcurate import pipeline\n"
                  "pipeline._keep_freed_heap()\n"
                  "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                  "for _ in range(20):\n"
                  "    np.ones(2 << 17)\n"
                  "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(pipeline_mod.__file__).parents[1])}
        faults = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                text=True, check=True).stdout
        assert int(faults) < 5 * 512, faults  # the first array's pages, then reuse

    @pytest.mark.parametrize("error", [AttributeError, OSError])
    def test_without_mallopt_same_bytes(self, tmp_path, monkeypatch, error):
        root = build_corpus(tmp_path / "corpus", n_utts_per_chapter=2)
        run_pipeline(make_config(root, tmp_path / "with", workers=2))

        def cdll(name):
            if error is OSError:
                raise OSError("no C library")
            return SimpleNamespace()  # no mallopt: an AttributeError

        monkeypatch.setattr(pipeline_mod.ctypes, "CDLL", cdll)
        run_pipeline(make_config(root, tmp_path / "without", workers=2))
        assert _tree(tmp_path / "with") == _tree(tmp_path / "without")
