"""Stage orchestration: fixed stage order, bounded parallelism, versioned outputs.

Each stage reads the previous stage's manifest and writes a new one plus a
JSON stage report; per-utterance failures are quarantined into a rejects
manifest instead of aborting the run. Worker results are re-sorted by
utterance_id before writing, so the worker count never affects output bytes.
The text and audio stages run one chapter at a time: a chapter's input is
loaded, its records are processed, and the input is dropped before the next
chapter loads. The audio stage's chapter input is the opened file, from which
each worker decodes only its own record's frames. Nothing decoded outlives
its stage.
While worker threads run, numpy's OpenBLAS is held to one thread, so its own
threads do not compete with the workers for the same cores.
"""

from __future__ import annotations

import ctypes
import functools
import json
import logging
import shlex
import subprocess
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import audio as audiolib
from . import bandwidth as bwlib
from . import curation, segmentation, textproc
from .config import STAGE_ORDER, PipelineConfig, validate_config
from .manifest import (
    ChapterRecord,
    ManifestError,
    UtteranceRecord,
    read_chapters,
    read_jsonl,
    read_manifest,
    replacing,
    write_manifest,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_STAGE_FAILURE = 2
EXIT_PARTIAL = 3


class ConfigError(Exception):
    pass


class StageError(Exception):
    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"stage {stage!r}: {message}")


@dataclass
class StageReport:
    stage: str
    records_in: int
    records_out: int
    records_dropped: int
    drop_reasons: dict[str, int] = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "stage": self.stage,
            "records_in": self.records_in,
            "records_out": self.records_out,
            "records_dropped": self.records_dropped,
            "drop_reasons": self.drop_reasons,
            **({"extras": self.extras} if self.extras else {}),
        }


@dataclass
class PipelineResult:
    exit_code: int
    reports: list[StageReport]
    final_manifest: Path | None


class _Context:
    def __init__(self, config: PipelineConfig):
        self.config = config
        self.out_dir = Path(config.out_dir)
        self._chapters: dict[str, ChapterRecord] | None = None
        self.rules = _load_text_file(
            textproc.load_rules, config.rules_path, textproc.default_rules)
        self.abbreviations = _load_text_file(
            segmentation.load_abbreviations, config.abbreviations_path,
            segmentation.load_default_abbreviations)

    @property
    def chapters(self) -> dict[str, ChapterRecord]:
        if self._chapters is None:
            path = Path(self.config.chapters_manifest)
            if not path.exists():
                raise StageError("setup", f"chapters manifest not found: {path}")
            self._chapters = {c.chapter_id: c for c in read_chapters(path)}
        return self._chapters

    def open_chapter(self, chapter_id: str) -> audiolib.PcmFile | str:
        """The chapter's opened audio (see audio.open_pcm) or a reject reason."""
        chapter = self.chapters[chapter_id]
        path = Path(self.config.audio_root) / chapter.audio_path
        # Unreadable: corrupt or unsupported file, missing file or decoder, failing decoder.
        try:
            pcm = audiolib.open_pcm(path, self.config.decoder_cmd)
        except (audiolib.AudioError, OSError, subprocess.CalledProcessError) as exc:
            return _unreadable(exc)
        if pcm.sample_rate_hz != chapter.sample_rate_hz:
            return "sample_rate_mismatch"
        return pcm


def _unreadable(exc: Exception) -> str:
    return f"chapter_audio_unreadable:{exc.__class__.__name__}"


def _load_text_file(load, path: str | None, default):
    """load(path), or default() without a path; an unreadable file is a ConfigError."""
    try:
        return load(path) if path else default()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: unreadable: {exc}") from exc


def _side_input(ctx: _Context, stage: str, key: str, what: str) -> Path:
    """The stage's required side-input file, named by config key `key`."""
    value = getattr(ctx.config, key)
    if not value:
        raise StageError(stage, f"{key} is required")
    path = Path(value)
    if not path.exists():
        raise StageError(stage, f"{what} file not found: {path}")
    return path


# Thread-count functions of the OpenBLAS that numpy wheels bundle, by build.
_OPENBLAS_SYMBOLS = (
    "scipy_openblas_{}_num_threads64_",  # numpy 2.x
    "openblas_{}_num_threads64_",        # numpy 1.x
    "openblas_{}_num_threads",
)


@functools.cache
def _openblas():
    """(get, set) for the thread count of numpy's bundled OpenBLAS, or None.

    Other BLAS builds (MKL, Accelerate, a distro numpy) are not found and
    are left as they are. Called only from the thread that starts a pool.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # already loaded by numpy: the same handle
        for name in _OPENBLAS_SYMBOLS:
            try:
                get, set_ = (getattr(lib, name.format(op)) for op in ("get", "set"))
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    logger.debug("no OpenBLAS found in %s; BLAS threads left as they are", libs)
    return None


@contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS to one thread, then restore the count it had."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _pmap(fn, items, workers: int):
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # Each worker's BLAS calls run in that worker; the pool joins before the
    # BLAS thread count is restored.
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _load_jsonl_map(path: str | Path, key: str, value: str) -> dict[str, str]:
    def parse(obj: dict) -> tuple[str, str]:
        if not isinstance(obj[value], str):
            raise TypeError(f"{value} must be a string, got {obj[value]!r}")
        return obj[key], obj[value]

    return dict(read_jsonl(path, parse))


class _Reject(NamedTuple):
    record: UtteranceRecord
    reason: str


def _by_chapter(records, load, work, workers: int):
    """Map work(rec, chapter_input) over records, one chapter at a time.

    Chapters are visited in sorted order. load(chapter_id) returns the
    chapter's input or the reject reason (a str) for all its records; the
    input is dropped before the next chapter is loaded. Results are returned
    in input-record order, which is the order rejects are written in.
    """
    groups: dict[str, list[int]] = {}
    for i, rec in enumerate(records):
        groups.setdefault(rec.chapter_id, []).append(i)
    results: list = [None] * len(records)
    for chapter_id in sorted(groups):
        indices = groups[chapter_id]
        data = load(chapter_id)
        if isinstance(data, str):
            done = [_Reject(records[i], data) for i in indices]
        else:
            done = _pmap(lambda rec: work(rec, data), [records[i] for i in indices], workers)
            del data
        for i, result in zip(indices, done):
            results[i] = result
    return results


# Every stage function maps (records, ctx) -> (kept, rejects, extras) where
# rejects is a list of _Reject. A per-record worker returns the records it
# keeps (two after a split) or a _Reject.


def _stage_text(records, ctx: _Context):
    predicted = {}
    if ctx.config.predicted_pc_path:
        path = _side_input(ctx, "text", "predicted_pc_path", "predicted PC")
        predicted = _load_jsonl_map(path, "utterance_id", "text")

    def load(chapter_id: str):
        # Clean and normalize the chapter once, before its workers start.
        chapter = ctx.chapters.get(chapter_id)
        if chapter is None or chapter.book_text_path is None:
            return "missing_book_text"
        try:
            raw = Path(chapter.book_text_path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            return f"book_text_unreadable:{exc.__class__.__name__}"
        text = textproc.clean_formatting(raw, ctx.rules)
        return text, textproc.strip_pc_map(text)

    def work(rec: UtteranceRecord, book):
        chapter_text, chapter_norm = book
        match = textproc.match_transcript(rec.raw_text, chapter_text, chapter_norm)
        if match.matched:
            text = textproc.normalize_spoken(match.restored_text, ctx.rules)
            return [rec.with_fields(text=text, text_source="book_match")]
        text = predicted.get(rec.utterance_id, rec.raw_text)
        return [rec.with_fields(text=text, text_source="predicted_pc")]

    return _collect(_by_chapter(records, load, work, ctx.config.workers))


def _stage_audio(records, ctx: _Context):
    cfg = ctx.config
    audio_out = ctx.out_dir / "audio"
    audio_out.mkdir(parents=True, exist_ok=True)
    for chapter_id in sorted({r.chapter_id for r in records}):
        if chapter_id not in ctx.chapters:
            raise StageError("audio", f"chapter {chapter_id!r} not in chapters manifest")

    def work(rec: UtteranceRecord, pcm: audiolib.PcmFile):
        if int(round(rec.offset_s * pcm.sample_rate_hz)) >= pcm.num_frames:
            return _Reject(rec, "offset_past_end")
        # Each worker decodes only its own record's frames.
        try:
            piece = audiolib.load_pcm(pcm, head_s=rec.duration_s, mono=True,
                                      offset_s=rec.offset_s)
        except OSError as exc:  # the file went away after the chapter was opened
            return _Reject(rec, _unreadable(exc))
        piece = audiolib.resample(piece, cfg.target_sample_rate_hz)
        trim = audiolib.trim_silence(
            piece,
            threshold_db=cfg.trim_threshold_db,
            max_edge_silence_s=cfg.max_edge_silence_s,
        )
        if trim.empty_after_trim:
            return _Reject(rec, "empty_after_trim")
        out_path = audio_out / f"{rec.utterance_id}.wav"
        if not cfg.encoder_cmd:
            with replacing(out_path) as tmp:
                audiolib.save_pcm(trim.trimmed, tmp)
        else:
            out_path = out_path.with_suffix(".flac")
            try:
                with replacing(out_path) as tmp:
                    _encode(trim.trimmed, tmp, cfg.encoder_cmd)
            except (OSError, subprocess.CalledProcessError) as exc:
                return _Reject(rec, f"encode_failed:{exc.__class__.__name__}")
        return [
            rec.with_fields(
                audio_path=str(out_path.relative_to(ctx.out_dir)),
                offset_s=0.0,
                duration_s=round(trim.trimmed.duration_s, 4),
            )
        ]

    return _collect(_by_chapter(records, ctx.open_chapter, work, ctx.config.workers))


def _encode(buf: audiolib.AudioBuffer, out_path: Path, encoder_cmd: str) -> None:
    """Write buf as a WAV beside out_path and run encoder_cmd on it into out_path."""
    wav_path = out_path.with_suffix(".wav")
    try:
        audiolib.save_pcm(buf, wav_path)
        cmd = [part.format(input=str(wav_path), output=str(out_path))
               for part in shlex.split(encoder_cmd)]
        subprocess.run(cmd, capture_output=True, check=True)
    finally:
        wav_path.unlink(missing_ok=True)


def _stage_bandwidth(records, ctx: _Context):
    cfg = ctx.config
    chapter_ids = sorted({r.chapter_id for r in records})

    def estimate(chapter_id: str) -> int | str:
        """The chapter's bandwidth in Hz, or the reason its records are rejected."""
        if chapter_id not in ctx.chapters:
            return "missing_chapter"
        pcm = ctx.open_chapter(chapter_id)
        if isinstance(pcm, str):
            return pcm
        # Only the analysed head is decoded.
        try:
            head = audiolib.load_pcm(pcm, head_s=cfg.bandwidth_analysis_s, mono=True)
        except OSError as exc:
            return _unreadable(exc)
        est = bwlib.chapter_bandwidth(
            head,
            cfg.target_sample_rate_hz,
            cfg.bandwidth_analysis_s,
            cfg.bandwidth_threshold_db,
        )
        return "degenerate_spectrum" if est.degenerate else int(round(est.f_max_hz))

    estimates = dict(zip(chapter_ids, _pmap(estimate, chapter_ids, cfg.workers)))

    def work(rec: UtteranceRecord):
        bandwidth_hz = estimates[rec.chapter_id]
        if isinstance(bandwidth_hz, str):
            return _Reject(rec, bandwidth_hz)
        return [rec.with_fields(bandwidth_hz=bandwidth_hz)]

    return _collect([work(rec) for rec in records])


def _stage_segment(records, ctx: _Context):
    cfg = ctx.config
    path = _side_input(ctx, "segment", "alignments_path", "alignments")
    if path.suffix == ".ctm":
        tracks = segmentation.load_ctm(path)
    else:
        tracks = segmentation.load_alignments_jsonl(path)

    def work(rec: UtteranceRecord):
        track = tracks.get(rec.utterance_id)
        if track is None:
            return _Reject(rec, "missing_alignment")
        transcript = rec.text if rec.text else rec.raw_text
        try:
            pauses = segmentation.find_candidate_pauses(
                track, transcript, cfg.min_pause_s, ctx.abbreviations
            )
            decision = segmentation.choose_split(
                pauses, segmentation.utterance_seed(rec.utterance_id, cfg.seed)
            )
            children = segmentation.apply_split(rec, decision, track)
        except segmentation.AlignmentError as exc:
            return _Reject(rec, f"alignment_mismatch:{exc}")
        return children

    return _collect(_pmap(work, records, cfg.workers))


def _stage_validate(records, ctx: _Context):
    cfg = ctx.config
    path = _side_input(ctx, "validate", "asr_hypotheses_path", "ASR hypotheses")
    hyps = _load_jsonl_map(path, "utterance_id", "hyp_text")

    def work(rec: UtteranceRecord):
        hyp = hyps.get(rec.utterance_id)
        if hyp is None:
            return _Reject(rec, "missing_hypothesis")
        ref = rec.text if rec.text else rec.raw_text
        try:
            stats = textproc.edit_stats(ref, hyp)
        except textproc.TextError:
            return _Reject(rec, "empty_reference")
        rec = rec.with_fields(
            wer_pct=round(stats.wer_pct, 4), cer_pct=round(stats.cer_pct, 4)
        )
        if not textproc.passes_cer_gate(stats, cfg.max_cer_pct):
            return _Reject(rec, "cer_gate")
        return [rec]

    return _collect(_pmap(work, records, cfg.workers))


def _stage_speakers(records, ctx: _Context):
    path = _side_input(ctx, "speakers", "speaker_counts_path", "speaker counts")
    counts = curation.load_speaker_counts(path)
    try:
        tagged = curation.apply_speaker_counts(records, counts)
    except curation.CurationError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return tagged, [], {}


def _collect(results):
    kept: list[UtteranceRecord] = []
    rejects: list[_Reject] = []
    split_parents = 0
    for item in results:
        if isinstance(item, _Reject):
            rejects.append(item)
        else:
            split_parents += len(item) > 1
            kept.extend(item)
    # records_out = records_in - records_dropped + split_parents
    extras = {"split_parents": split_parents} if split_parents else {}
    return kept, rejects, extras


_STAGE_FNS = {
    "text": _stage_text,
    "audio": _stage_audio,
    "bandwidth": _stage_bandwidth,
    "segment": _stage_segment,
    "validate": _stage_validate,
    "speakers": _stage_speakers,
}


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute the enabled stages in the fixed order.

    Each stage writes `manifest.NN_stage.jsonl`, `rejects.stage.jsonl` (when
    non-empty, else an old one is removed) and `report.stage.json` under
    config.out_dir, each replaced only once complete. Inputs are never mutated.
    Raises ConfigError for an invalid config or a bad utterances manifest
    before any stage runs, and for a bad side input when its stage starts.
    """
    problems = validate_config(config)
    if problems:
        raise ConfigError("; ".join(problems))
    ctx = _Context(config)
    ctx.out_dir.mkdir(parents=True, exist_ok=True)
    try:
        records = read_manifest(config.utterances_manifest)
    except OSError as exc:
        raise ConfigError(f"utterances manifest unreadable: {exc}") from exc
    except ManifestError as exc:
        raise ConfigError(str(exc)) from exc
    reports: list[StageReport] = []
    final_path: Path | None = None
    any_rejects = False
    enabled = [s for s in STAGE_ORDER if s in config.stages]
    for index, stage in enumerate(enabled):
        fn = _STAGE_FNS[stage]
        n_in = len(records)
        try:
            kept, rejects, extras = fn(records, ctx)
        except ManifestError as exc:
            raise ConfigError(str(exc)) from exc
        kept.sort(key=lambda r: r.utterance_id)
        final_path = ctx.out_dir / f"manifest.{index:02d}_{stage}.jsonl"
        write_manifest(kept, final_path)
        rejects_path = ctx.out_dir / f"rejects.{stage}.jsonl"
        if rejects:
            any_rejects = True
            write_manifest([r for r, _ in rejects], rejects_path)
        else:
            rejects_path.unlink(missing_ok=True)
        drop_reasons: dict[str, int] = {}
        for _, reason in rejects:
            drop_reasons[reason] = drop_reasons.get(reason, 0) + 1
        report = StageReport(
            stage=stage,
            records_in=n_in,
            records_out=len(kept),
            records_dropped=len(rejects),
            drop_reasons=drop_reasons,
            extras=extras,
        )
        reports.append(report)
        with replacing(ctx.out_dir / f"report.{stage}.json") as tmp:
            tmp.write_text(json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
                           + "\n", encoding="utf-8")
        logger.info("[%s] in=%d out=%d dropped=%d", stage, n_in, len(kept), len(rejects))
        records = kept
    exit_code = EXIT_PARTIAL if any_rejects else EXIT_OK
    return PipelineResult(exit_code=exit_code, reports=reports, final_manifest=final_path)
