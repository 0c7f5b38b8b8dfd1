"""Stage orchestration: fixed stage order, bounded parallelism, versioned outputs.

Each stage reads the previous stage's manifest and writes a new one plus a
JSON stage report; per-utterance failures, an unknown chapter among them, are
quarantined into a rejects manifest, each line naming its `reject_reason`.
The segment stage shifts alignment times by the `trim_lead_s` the audio stage
stamps. Worker results are re-sorted by utterance_id before writing, so the
worker count never affects output bytes.
The run reads the chapters manifest and starts one pool of `workers` threads
on the calling thread before the first stage, when text, audio or bandwidth
is enabled. The text and audio stages stream chapters through that pool, at
every worker count: chapter inputs are loaded in chapter order on the calling
thread, the next one while the current one's records run, and at most
min(2, workers) are alive at once. The audio stage's chapter input is one
open descriptor, of the WAV file or of decoder output spooled to a temporary
file, from which each worker preads only its own record's frames. With
bandwidth enabled too, each chapter's bandwidth estimate is one more task on
that descriptor, queued ahead of the chapter's records, so a chapter is
opened and decoded once; the bandwidth stage stamps the estimates. Without
the audio stage, the bandwidth stage maps its chapters over the pool.
Nothing decoded outlives its stage. Segment and validate run on the calling
thread: their per-record work is pure Python, which holds the interpreter lock.
"""

from __future__ import annotations

import ctypes
import json
import logging
import shlex
import subprocess
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from . import audio as audiolib
from . import bandwidth as bwlib
from . import curation, segmentation, textproc
from .config import STAGE_ORDER, PipelineConfig, validate_config
from .manifest import (
    ChapterRecord,
    ConfigError,
    UtteranceRecord,
    from_typed,
    read_chapters,
    read_jsonl,
    read_manifest,
    replacing,
    write_manifest,
    writing,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_STAGE_FAILURE = 2
EXIT_PARTIAL = 3


class StageError(Exception):
    """An enabled stage cannot run: a missing side input or chapters manifest; exit 2."""


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
        # Both set by run_pipeline when a chapter stage is enabled.
        self.chapters: dict[str, ChapterRecord] = {}
        self.pool: ThreadPoolExecutor | None = None
        self.rules = _load_text_file(
            textproc.load_rules, config.rules_path, textproc.default_rules)
        self.abbreviations = _load_text_file(
            segmentation.load_abbreviations, config.abbreviations_path,
            segmentation.load_default_abbreviations)

    def open_chapter(self, chapter_id: str) -> audiolib.PcmFile | str:
        """The chapter's opened audio (see audio.open_pcm) or a reject reason."""
        chapter = self.chapters.get(chapter_id)
        if chapter is None:
            return "missing_chapter"
        path = Path(self.config.audio_root) / chapter.audio_path
        # Unreadable: corrupt or unsupported file, missing file or decoder, failing decoder.
        try:
            pcm = audiolib.open_pcm(path, self.config.decoder_cmd)
        except (audiolib.AudioError, OSError, subprocess.CalledProcessError) as exc:
            return _unreadable(exc)
        if pcm.sample_rate_hz != chapter.sample_rate_hz:
            return "sample_rate_mismatch"
        return pcm


# glibc's mallopt parameter: bytes of freed memory an arena keeps at its top.
_M_TOP_PAD = -2
# About six float64 arrays of a 20 s record at 48 kHz, with room to spare.
_TOP_PAD_BYTES = 64 << 20


def _keep_freed_heap() -> None:
    """Let each malloc arena keep up to _TOP_PAD_BYTES of freed memory.

    Without it glibc hands a record's multi-MB temporaries back to the kernel
    when they are freed, and the next record faults them in again, zeroed.
    The setting is process-wide and permanent (glibc has no getter to restore
    it from); where mallopt is missing this does nothing.
    """
    try:
        ctypes.CDLL(None).mallopt(_M_TOP_PAD, _TOP_PAD_BYTES)
    except (AttributeError, OSError):
        pass


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
        raise StageError(f"stage {stage!r}: {key} is required")
    path = Path(value)
    if not path.exists():
        raise StageError(f"stage {stage!r}: {what} file not found: {path}")
    return path


@dataclass(frozen=True)
class _Hypothesis:
    """A line of the ASR hypotheses file."""

    utterance_id: str
    hyp_text: str


@dataclass(frozen=True)
class _PredictedText:
    """A line of the predicted-PC file: the utterance's text with punctuation and case."""

    utterance_id: str
    text: str


def _load_jsonl_map(path: str | Path, cls, value: str) -> dict[str, str]:
    """{utterance_id: line.value} over a JSONL file of cls lines."""
    lines = read_jsonl(path, lambda obj: from_typed(cls, obj), unique="utterance_id")
    return {line.utterance_id: getattr(line, value) for line in lines}


class _Reject(NamedTuple):
    record: UtteranceRecord
    reason: str


def _by_chapter(records, load, work, pool: ThreadPoolExecutor, workers: int,
                chapter_task=None):
    """Map work(rec, chapter_input) over records on `pool`, streamed chapter by chapter.

    Chapters are loaded on the calling thread in sorted order. load(chapter_id)
    returns the chapter's input or the reject reason (a str) for all its
    records. The pool, of `workers` threads, runs every chapter's records.
    Once min(2, workers) chapters are queued, the oldest one's results are
    collected, and its input dropped, before the next is loaded. So with two
    or more workers the next chapter is loaded while the current one's
    records run, at most two chapter inputs are alive and the pool does not
    drain at a chapter's end; with one worker, one input is alive. A
    chapter's records are queued longest `duration_s` first. Results are
    returned in input-record order, which is the order rejects are written in.
    With `chapter_task`, chapter_task(chapter_input) is queued once for each
    loaded chapter, ahead of its records; the chapter's input is dropped only
    once that task and the records are collected, and the call returns
    (results, {chapter_id: chapter_task's result}).
    On a worker's error, the tasks still queued are left for the pool's owner
    to cancel.
    """
    groups: dict[str, list[int]] = {}
    for i, rec in enumerate(records):
        groups.setdefault(rec.chapter_id, []).append(i)
    results: list = [None] * len(records)
    chapter_results: dict = {}

    def run(rec, held: list):
        return work(rec, held[0])

    def run_chapter(held: list):
        return chapter_task(held[0])

    def collect(chapter_id: str, task, futures: dict, held: list):
        if task is not None:
            chapter_results[chapter_id] = task.result()
        for i, future in futures.items():
            results[i] = future.result()
        held.clear()  # the tasks that ran keep only this emptied list

    pending: deque = deque()  # (chapter_id, task, {index: future}, [input]) per chapter
    for chapter_id in sorted(groups):
        if len(pending) == min(2, workers):
            collect(*pending.popleft())
        data = load(chapter_id)
        indices = groups[chapter_id]
        if isinstance(data, str):
            for i in indices:
                results[i] = _Reject(records[i], data)
            continue
        held = [data]
        del data  # so that collect() drops the chapter's last reference
        task = pool.submit(run_chapter, held) if chapter_task else None
        # Longest records first, so that short ones fill the last gaps.
        order = sorted(indices, key=lambda i: -records[i].duration_s)
        pending.append((chapter_id, task,
                        {i: pool.submit(run, records[i], held) for i in order}, held))
    while pending:
        collect(*pending.popleft())
    return results if chapter_task is None else (results, chapter_results)


# Every stage function maps (records, ctx) -> (kept, rejects, extras) where
# rejects is a list of _Reject. A per-record worker returns the records it
# keeps (two after a split) or a _Reject. A stage may return more after
# extras, which run_pipeline hands to the next stage as further arguments:
# the audio stage, when bandwidth is enabled, returns its chapter estimates.


def _stage_text(records, ctx: _Context):
    predicted = {}
    if ctx.config.predicted_pc_path:
        path = _side_input(ctx, "text", "predicted_pc_path", "predicted PC")
        predicted = _load_jsonl_map(path, _PredictedText, "text")

    def load(chapter_id: str):
        # Clean and normalize the chapter once, before its workers start.
        chapter = ctx.chapters.get(chapter_id)
        if chapter is None:
            return "missing_chapter"
        if chapter.book_text_path is None:
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

    return _collect(_by_chapter(records, load, work, ctx.pool, ctx.config.workers))


def _stage_audio(records, ctx: _Context):
    cfg = ctx.config
    audio_out = ctx.out_dir / "audio"
    with writing(audio_out):
        audio_out.mkdir(parents=True, exist_ok=True)

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
        duration_s = round(trim.trimmed.duration_s, 4)
        if duration_s == 0:  # nothing kept, or less than the manifest's 0.1 ms
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
                duration_s=duration_s,
                trim_lead_s=round(trim.leading_removed_s, 4) or None,
            )
        ]

    if "bandwidth" not in cfg.stages:
        return _collect(_by_chapter(records, ctx.open_chapter, work, ctx.pool, cfg.workers))
    # Each chapter's bandwidth is estimated from the chapter opened here.
    results, estimates = _by_chapter(records, ctx.open_chapter, work, ctx.pool, cfg.workers,
                                     lambda pcm: _chapter_bandwidth(pcm, cfg))
    return (*_collect(results), estimates)


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


def _chapter_bandwidth(pcm: audiolib.PcmFile, cfg: PipelineConfig) -> int | str:
    """The opened chapter's bandwidth in Hz, or the reason its records are rejected."""
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


def _stage_bandwidth(records, ctx: _Context, estimates: dict | None = None):
    """Stamp each record with its chapter's bandwidth from `estimates`, the
    audio stage's; the chapters without one are opened and estimated here."""
    estimates = dict(estimates or {})
    missing = sorted({r.chapter_id for r in records} - estimates.keys())

    def estimate(chapter_id: str) -> int | str:
        pcm = ctx.open_chapter(chapter_id)
        return pcm if isinstance(pcm, str) else _chapter_bandwidth(pcm, ctx.config)

    estimates.update(zip(missing, ctx.pool.map(estimate, missing)))

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
    input_ids = {rec.utterance_id for rec in records}

    def work(rec: UtteranceRecord):
        track = tracks.get(rec.utterance_id)
        if track is None:
            return _Reject(rec, "missing_alignment")
        transcript = rec.text if rec.text else rec.raw_text
        if rec.trim_lead_s:  # token times into the trimmed audio's time base
            track = [segmentation.AlignmentToken(t.word, t.start_s - rec.trim_lead_s,
                                                 t.end_s - rec.trim_lead_s) for t in track]
        try:
            pauses = segmentation.find_candidate_pauses(
                track, transcript, cfg.min_pause_s, ctx.abbreviations
            )
            # a cut must land inside the kept audio
            pauses = [p for p in pauses if 0.0 < p.midpoint_s < rec.duration_s]
            decision = segmentation.choose_split(
                pauses, segmentation.utterance_seed(rec.utterance_id, cfg.seed)
            )
            children = segmentation.apply_split(rec, decision, track)
        except segmentation.AlignmentError as exc:
            return _Reject(rec, f"alignment_mismatch:{exc}")
        # A child named like an input record would write its id twice.
        if len(children) > 1 and not input_ids.isdisjoint(c.utterance_id for c in children):
            return _Reject(rec, "split_id_collision")
        return children

    return _collect([work(rec) for rec in records])


def _stage_validate(records, ctx: _Context):
    cfg = ctx.config
    path = _side_input(ctx, "validate", "asr_hypotheses_path", "ASR hypotheses")
    hyps = _load_jsonl_map(path, _Hypothesis, "hyp_text")

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

    return _collect([work(rec) for rec in records])


def _stage_speakers(records, ctx: _Context):
    path = _side_input(ctx, "speakers", "speaker_counts_path", "speaker counts")
    counts = curation.load_speaker_counts(path)
    tagged = curation.apply_speaker_counts(records, counts)
    counted = {c.utterance_id for c in counts}
    missing = sum(rec.utterance_id not in counted for rec in tagged)
    return tagged, [], ({"no_speaker_count": missing} if missing else {})


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

    Each stage writes `manifest.NN_stage.jsonl`, `rejects.stage.jsonl` (records
    plus their `reject_reason`; when non-empty, else an old one is removed) and
    `report.stage.json` under config.out_dir, each replaced only once complete.
    Inputs are never mutated.
    Raises ConfigError, a ValueError, for every fault of the config, an input
    or an output location: an invalid config, a bad utterances or chapters
    manifest or an out_dir that cannot be made, before any stage runs; a bad
    side input, when its stage starts; an output that cannot be written, such
    as a name a directory holds; and a stage's output record that fails its
    validate(). Raises StageError when an enabled stage lacks its chapters
    manifest or side input. The worker pool is shut down before this returns
    or raises.
    Before the first stage, glibc's allocator is told to keep up to 64 MiB of
    freed memory per arena, so each record reuses the pages the last one
    freed; the setting stays for the life of the process.
    """
    problems = validate_config(config)
    if problems:
        raise ConfigError("; ".join(problems))
    _keep_freed_heap()
    ctx = _Context(config)
    with writing(ctx.out_dir):
        ctx.out_dir.mkdir(parents=True, exist_ok=True)
    enabled = [s for s in STAGE_ORDER if s in config.stages]
    records = read_manifest(config.utterances_manifest)
    if not {"text", "audio", "bandwidth"}.isdisjoint(enabled):
        path = Path(config.chapters_manifest)
        if not path.exists():
            raise StageError(f"stage 'setup': chapters manifest not found: {path}")
        ctx.chapters = {c.chapter_id: c for c in read_chapters(path)}
        # One pool for the run, so each worker keeps its grown malloc arena.
        ctx.pool = ThreadPoolExecutor(max_workers=config.workers)
    reports: list[StageReport] = []
    final_path: Path | None = None
    any_rejects = False
    handed: list = []  # what the last stage returned after its extras
    try:
        for index, stage in enumerate(enabled):
            n_in = len(records)
            kept, rejects, extras, *handed = _STAGE_FNS[stage](records, ctx, *handed)
            kept.sort(key=lambda r: r.utterance_id)
            final_path = ctx.out_dir / f"manifest.{index:02d}_{stage}.jsonl"
            write_manifest(kept, final_path)
            rejects_path = ctx.out_dir / f"rejects.{stage}.jsonl"
            if rejects:
                any_rejects = True
                write_manifest([r.with_fields(extra={**r.extra, "reject_reason": reason})
                                for r, reason in rejects], rejects_path)
            else:
                with writing(rejects_path):
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
    finally:
        # Not the executor's __exit__: that would run every queued task first.
        if ctx.pool is not None:
            ctx.pool.shutdown(wait=True, cancel_futures=True)
    exit_code = EXIT_PARTIAL if any_rejects else EXIT_OK
    return PipelineResult(exit_code=exit_code, reports=reports, final_manifest=final_path)
