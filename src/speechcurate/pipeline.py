"""Stage orchestration: fixed stage order, bounded parallelism, versioned outputs.

Each stage reads the previous stage's manifest and writes a new one plus a
JSON stage report; per-utterance failures, an unknown chapter among them, are
quarantined into a rejects manifest, each line naming its `reject_reason`.
The segment stage shifts alignment times by the `trim_lead_s` the audio stage
stamps. Worker results are re-sorted by utterance_id before writing, so the
worker count never affects output bytes.
Each record read, and each record a stage keeps, is given its values as a
stage manifest holds them (manifest.as_written) before the next stage or the
writer sees it, so a run and a chain of one-stage runs over each other's
manifests write the same bytes; no stage rounds on its own.
The text, audio and bandwidth stages run as one chapter pass on one pool of
`workers` threads (_chapter_stages), before the first stage's outputs are
written. Each stage's version of a record is kept until its manifest is
written, and nothing decoded outlives the pass. Segment and validate run on
the calling thread: their per-record work is pure Python, which holds the
interpreter lock.
"""

from __future__ import annotations

import ctypes
import errno
import json
import logging
import os
import shlex
import subprocess
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

from . import audio as audiolib
from . import bandwidth as bwlib
from . import curation, segmentation, textproc
from .config import CHAPTER_STAGES, STAGE_ORDER, PipelineConfig, validate_config
from .manifest import (
    ChapterRecord,
    ConfigError,
    InvariantError,
    UtteranceRecord,
    as_written,
    four_decimals,
    from_typed,
    input_error,
    open_input,
    partial_path,
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
        """The fields in order; extras only when there are any."""
        out = asdict(self)
        if not self.extras:
            del out["extras"]
        return out


@dataclass
class PipelineResult:
    exit_code: int
    reports: list[StageReport]
    final_manifest: Path | None


class _Context:
    def __init__(self, config: PipelineConfig):
        self.config = config
        self.out_dir = Path(config.out_dir)
        self.rules = (textproc.load_rules(config.rules_path) if config.rules_path
                      else textproc.default_rules())
        self.abbreviations = (segmentation.load_abbreviations(config.abbreviations_path)
                              if config.abbreviations_path
                              else segmentation.load_default_abbreviations())
        # {utterance_id: predicted text}, read when the chapter pass starts
        self.predicted: dict[str, str] = {}

    def open_book(self, chapter: ChapterRecord) -> tuple | str:
        """The chapter's cleaned book text and its strip_pc_map, or a reject reason."""
        if chapter.book_text_path is None:
            return "missing_book_text"
        try:
            with open_input(chapter.book_text_path) as fh:
                raw = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            return f"book_text_unreadable:{exc.__class__.__name__}"
        text = textproc.clean_formatting(raw, self.rules)
        return text, textproc.strip_pc_map(text)

    def open_chapter(self, chapter: ChapterRecord) -> audiolib.PcmFile | str:
        """The chapter's opened audio (see audio.open_pcm) or a reject reason."""
        path = Path(self.config.audio_root) / chapter.audio_path
        # Unreadable: corrupt or unsupported file, missing file or decoder, failing decoder.
        try:
            pcm = audiolib.open_pcm(path, self.config.decoder_cmd)
        except (audiolib.AudioError, OSError, subprocess.CalledProcessError) as exc:
            return _unreadable(exc)
        if pcm.sample_rate_hz != chapter.sample_rate_hz:
            return "sample_rate_mismatch"
        return pcm


# glibc's mallopt parameters: bytes of freed memory an arena keeps at its
# top, and the size from which a block is mmapped instead.
_M_TOP_PAD = -2
_M_MMAP_THRESHOLD = -3
# About six float64 arrays of a 20 s record at 48 kHz, with room to spare.
_TOP_PAD_BYTES = 64 << 20
# glibc's own ceiling for the threshold on 64-bit systems.
_MMAP_THRESHOLD_BYTES = 32 << 20


def _keep_freed_heap() -> None:
    """Let each malloc arena keep up to _TOP_PAD_BYTES of freed memory.

    Without it glibc hands a record's multi-MB temporaries back to the kernel
    when they are freed, and the next record faults them in again, zeroed.
    Setting M_TOP_PAD stops glibc from raising its mmap threshold as mmapped
    blocks are freed, which would leave every block over 128 KiB mmapped
    and faulted in again; so the threshold is set too, to _MMAP_THRESHOLD_BYTES.
    The settings are process-wide and permanent (glibc has no getter to
    restore them from); where mallopt is missing this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(_M_TOP_PAD, _TOP_PAD_BYTES)
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    except (AttributeError, OSError):
        pass


def _unreadable(exc: Exception) -> str:
    return f"chapter_audio_unreadable:{exc.__class__.__name__}"


def _audio_path(out_dir: Path, utterance_id: str, encoder_cmd: str | None) -> Path:
    """The audio file the audio step writes for an utterance:
    out_dir/audio/<utterance_id>.wav, or .flac where encoder_cmd makes it."""
    return out_dir / "audio" / f"{utterance_id}{'.flac' if encoder_cmd else '.wav'}"


def _side_input(ctx: _Context, stage: str, key: str, what: str) -> Path:
    """The stage's required side-input file, named by config key `key`: a
    StageError when it is missing, a ManifestError when it cannot be opened
    or is not a regular file (manifest.open_input)."""
    value = getattr(ctx.config, key)
    if not value:
        raise StageError(f"stage {stage!r}: {key} is required")
    path = Path(value)
    try:
        open_input(path).close()
    except (FileNotFoundError, NotADirectoryError):
        raise StageError(f"stage {stage!r}: {what} file not found: {path}") from None
    except OSError as exc:  # a name too long, say, or a device
        raise input_error(exc, path) from exc
    return path


# The required side input of each stage after the chapter stages: its config
# key and what it holds.
_SIDE_INPUTS = {
    "segment": ("alignments_path", "alignments"),
    "validate": ("asr_hypotheses_path", "ASR hypotheses"),
    "speakers": ("speaker_counts_path", "speaker counts"),
}


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


def _load_jsonl_map(path: str | Path, cls, value: str) -> dict:
    """{utterance_id: line.value} over a JSONL file of cls lines."""
    lines = read_jsonl(path, lambda obj: from_typed(cls, obj), unique="utterance_id")
    return {line.utterance_id: getattr(line, value) for line in lines}


class _Reject(NamedTuple):
    record: UtteranceRecord
    reason: str


def _by_chapter(records, load, work, pool: ThreadPoolExecutor, chapter_task=None):
    """Map work(rec, chapter_input) over records on `pool`, streamed chapter by chapter.

    Chapters are loaded on the calling thread in sorted order: load(chapter_id)
    returns the chapter's input. The pool runs every chapter's records. Once
    two chapters are queued, the older one's results are collected, and its
    input dropped, before the next is loaded. So at most two chapter inputs
    are alive, at any worker count: the chapter whose records run, and the
    next, loaded while they run, so the pool does not drain at a chapter's
    end. A chapter's records are queued longest `duration_s` first; with
    `work` None none are queued, their results stay None, and every
    chapter's task is queued at once, so `load` should then hold nothing
    large. With `chapter_task`, chapter_task(chapter_input) is queued once
    for each chapter, ahead of its records. Only the queued tasks hold a
    chapter's input, each until it has run, so a collected chapter's input
    is held by nothing. Returns (results, {chapter_id: chapter_task's
    result, or None without one}), results in input-record order.
    On a worker's error, the tasks still queued are left for the pool's owner
    to cancel.
    """
    groups: dict[str, list[int]] = {}
    for i, rec in enumerate(records):
        groups.setdefault(rec.chapter_id, []).append(i)
    results: list = [None] * len(records)
    chapter_results: dict = {}

    def collect(chapter_id: str, task, futures: dict):
        chapter_results[chapter_id] = task.result() if task else None
        for i, future in futures.items():
            results[i] = future.result()

    pending: deque = deque()  # (chapter_id, task, {index: future}) per chapter
    for chapter_id in sorted(groups):
        if work and len(pending) == 2:
            collect(*pending.popleft())
        chapter_input = load(chapter_id)
        task = pool.submit(chapter_task, chapter_input) if chapter_task else None
        # Longest records first, so that short ones fill the last gaps.
        order = sorted(groups[chapter_id], key=lambda i: -records[i].duration_s)
        futures = {i: pool.submit(work, records[i], chapter_input) for i in order if work}
        del chapter_input  # now only the queued tasks hold it, each until it has run
        pending.append((chapter_id, task, futures))
    while pending:
        collect(*pending.popleft())
    return results, chapter_results


# A per-record step maps (record, its chapter's input, ctx) to the record it
# keeps or a _Reject. A stage function of _STAGE_FNS maps (records, ctx) ->
# (kept, rejects, extras), where rejects is a list of _Reject; its per-record
# worker returns the records it keeps (two after a split) or a _Reject.


def _text_step(rec: UtteranceRecord, book: tuple, ctx: _Context):
    chapter_text, chapter_norm = book
    match = textproc.match_transcript(rec.raw_text, chapter_text, chapter_norm)
    if match.matched:
        text = textproc.normalize_spoken(match.restored_text, ctx.rules)
        return rec.with_fields(text=text, text_source="book_match")
    text = ctx.predicted.get(rec.utterance_id, rec.raw_text)
    return rec.with_fields(text=text, text_source="predicted_pc")


def _audio_step(rec: UtteranceRecord, pcm: audiolib.PcmFile, ctx: _Context):
    cfg = ctx.config
    start = audiolib.to_frames(rec.offset_s, pcm.sample_rate_hz, pcm.num_frames)
    if start >= pcm.num_frames:
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
    if four_decimals(trim.trimmed.duration_s) == 0:  # nothing kept, or less than 0.1 ms
        return _Reject(rec, "empty_after_trim")
    # The source frame of the first kept sample; write_kept reads it only
    # where resampling kept the source's rate.
    first = start + round(trim.leading_removed_s * piece.sample_rate_hz)
    path = _audio_path(ctx.out_dir, rec.utterance_id, cfg.encoder_cmd)
    try:
        with replacing(path) as tmp:
            if cfg.encoder_cmd:
                # The encoder reads the WAV written where the WAV route writes its own.
                wav_path = partial_path(_audio_path(ctx.out_dir, rec.utterance_id, None))
                _encode(pcm, first, trim.trimmed, wav_path, tmp, cfg.encoder_cmd)
            else:
                audiolib.write_kept(pcm, first, trim.trimmed, tmp)
    except audiolib.AudioError as exc:  # the copy could not read the chapter again
        return _Reject(rec, _unreadable(exc))
    except _EncoderFailed as exc:
        return _Reject(rec, f"encode_failed:{exc}")
    return rec.with_fields(
        audio_path=str(path.relative_to(ctx.out_dir)),
        offset_s=0.0,
        duration_s=trim.trimmed.duration_s,
        # a lead that is 0.0 s as written is no lead: the key is left out
        trim_lead_s=trim.leading_removed_s if four_decimals(trim.leading_removed_s) else None,
    )


class _EncoderFailed(Exception):
    """encoder_cmd could not start or exited non-zero; the message is that fault's class."""


def _encode(pcm: audiolib.PcmFile, first: int, buf: audiolib.AudioBuffer, wav_path: Path,
            out_path: Path, encoder_cmd: str) -> None:
    """Write buf (see audio.write_kept) as the WAV wav_path and run
    encoder_cmd on it into out_path; the WAV is removed either way. A fault
    of writing the WAV, or an encoder that leaves no regular file at
    out_path (a directory there, say, which replacing would move into
    place), is an OSError; a fault of the encoder's own is an _EncoderFailed."""
    try:
        audiolib.write_kept(pcm, first, buf, wav_path)
        cmd = [part.format(input=str(wav_path), output=str(out_path))
               for part in shlex.split(encoder_cmd)]
        try:
            subprocess.run(cmd, capture_output=True, check=True)
        except (OSError, subprocess.CalledProcessError) as exc:
            raise _EncoderFailed(exc.__class__.__name__) from exc
        if not out_path.is_file():
            code = errno.EISDIR if out_path.is_dir() else errno.ENOENT
            raise OSError(code, os.strerror(code))
    finally:
        wav_path.unlink(missing_ok=True)


def _chapter_stages(records, ctx: _Context) -> dict[str, tuple]:
    """{stage: (kept, rejects, extras)} of the enabled text, audio and bandwidth stages.

    They run as one _by_chapter pass. The set-up block comes first: it reads
    the chapters manifest, then the text step's predicted-PC map, then makes
    the audio step's `audio` directory, and starts the pool. For each chapter
    the loader opens, in stage order, what each enabled per-record step reads
    (the cleaned book text for text, the PcmFile for audio), stopping at the
    first that rejects the chapter. Each record runs those steps, plain
    functions of (record, chapter input, ctx), on one worker and stops at its
    first _Reject. The bandwidth estimate is the chapter's one task, on the
    PcmFile the audio step holds, or on the chapter it opens itself without
    audio. The calling thread then stamps each record the last step kept.
    Each stage's rejects are in its input order: manifest order for the first
    enabled stage, utterance_id order after it.
    """
    cfg = ctx.config
    path = Path(cfg.chapters_manifest)
    if not path.exists():
        raise StageError(f"stage 'setup': chapters manifest not found: {path}")
    chapters = {c.chapter_id: c for c in read_chapters(path)}
    if "text" in cfg.stages and cfg.predicted_pc_path:
        path = _side_input(ctx, "text", "predicted_pc_path", "predicted PC")
        ctx.predicted = _load_jsonl_map(path, _PredictedText, "text")
    if "audio" in cfg.stages:
        with writing(ctx.out_dir / "audio"):
            (ctx.out_dir / "audio").mkdir(parents=True, exist_ok=True)
    # (stage, per-record step, open(chapter) -> the step's chapter input or a reason)
    steps = [(stage, step, open_input) for stage, step, open_input in
             (("text", _text_step, ctx.open_book), ("audio", _audio_step, ctx.open_chapter))
             if stage in cfg.stages]
    # One pool for the run, so each worker keeps its grown malloc arena.
    pool = ThreadPoolExecutor(max_workers=cfg.workers)

    def load(chapter_id: str) -> list:
        # The chapter, then each step's input; after a reject reason, that reason.
        inputs = [chapters.get(chapter_id, "missing_chapter")]
        for _, _, open_input in steps:
            inputs.append(inputs[-1] if isinstance(inputs[-1], str) else open_input(inputs[0]))
        return inputs

    def work(rec: UtteranceRecord, inputs: list) -> tuple:
        chain = ()  # each step's record or _Reject, up to the first _Reject
        for (_, step, _), data in zip(steps, inputs[1:]):
            rec = _Reject(rec, data) if isinstance(data, str) else step(rec, data, ctx)
            chain += (rec,)
            if isinstance(rec, _Reject):
                break
        return chain

    def estimate(inputs: list) -> int | str:
        """The chapter's bandwidth in Hz, or the reason its records are rejected."""
        pcm = inputs[-1]  # the audio step's PcmFile, or a reject reason
        if not isinstance(pcm, (str, audiolib.PcmFile)):  # without audio
            pcm = ctx.open_chapter(inputs[0])
        if isinstance(pcm, str):
            return pcm
        try:  # only the analysed head is decoded
            head = audiolib.load_pcm(pcm, head_s=cfg.bandwidth_analysis_s, mono=True)
        except OSError as exc:
            return _unreadable(exc)
        est = bwlib.chapter_bandwidth(head, cfg.target_sample_rate_hz,
                                      cfg.bandwidth_analysis_s, cfg.bandwidth_threshold_db)
        return "degenerate_spectrum" if est.degenerate else int(round(est.f_max_hz))

    try:
        results, estimates = _by_chapter(records, load, work if steps else None, pool,
                                         estimate if "bandwidth" in cfg.stages else None)
    finally:
        # Not the executor's __exit__: that would run every queued task first.
        pool.shutdown(wait=True, cancel_futures=True)
    # {stage: (kept, rejects, extras)}: a _Reject goes to index 1 (True).
    out = {s: ([], [], {}) for s in CHAPTER_STAGES if s in cfg.stages}
    for i, chain in enumerate(results):
        results[i] = None  # each record's chain goes once its versions are sorted out
        for (stage, _, _), item in zip(steps, chain or ()):  # None without steps
            out[stage][isinstance(item, _Reject)].append(item)
    if "bandwidth" in out:
        for rec in out[steps[-1][0]][0] if steps else records:
            hz = estimates[rec.chapter_id]
            item = _Reject(rec, hz) if isinstance(hz, str) else rec.with_fields(bandwidth_hz=hz)
            out["bandwidth"][isinstance(item, _Reject)].append(item)
    for _, rejects, _ in list(out.values())[1:]:  # in the stage's input order
        rejects.sort(key=lambda r: r.record.utterance_id)
    return out


def _stage_segment(records, ctx: _Context):
    cfg = ctx.config
    path = _side_input(ctx, "segment", *_SIDE_INPUTS["segment"])
    if path.suffix == ".ctm":
        tracks = segmentation.load_ctm(path)
    else:
        tracks = segmentation.load_alignments_jsonl(path)
    input_ids = {rec.utterance_id for rec in records}

    def work(rec: UtteranceRecord):
        track = tracks.get(rec.utterance_id)
        if track is None:
            return _Reject(rec, "missing_alignment")
        if rec.trim_lead_s:  # token times into the trimmed audio's time base
            track = [segmentation.AlignmentToken(t.word, t.start_s - rec.trim_lead_s,
                                                 t.end_s - rec.trim_lead_s) for t in track]
        try:
            pauses = segmentation.find_candidate_pauses(
                track, rec.transcript, cfg.min_pause_s, ctx.abbreviations
            )
            # a cut must leave both children more than 0.0 s as a manifest writes them
            pauses = [p for p in pauses if four_decimals(p.midpoint_s) > 0
                      and four_decimals(rec.duration_s - p.midpoint_s) > 0]
            pause = segmentation.choose_split(
                pauses, segmentation.utterance_seed(rec.utterance_id, cfg.seed)
            )
            children = segmentation.apply_split(rec, pause)
        except segmentation.AlignmentError as exc:
            return _Reject(rec, f"alignment_mismatch:{exc}")
        # A child named like an input record would write its id twice.
        if len(children) > 1 and not input_ids.isdisjoint(c.utterance_id for c in children):
            return _Reject(rec, "split_id_collision")
        return children

    return _collect([work(rec) for rec in records])


def _stage_validate(records, ctx: _Context):
    cfg = ctx.config
    path = _side_input(ctx, "validate", *_SIDE_INPUTS["validate"])
    hyps = _load_jsonl_map(path, _Hypothesis, "hyp_text")

    def work(rec: UtteranceRecord):
        hyp = hyps.get(rec.utterance_id)
        if hyp is None:
            return _Reject(rec, "missing_hypothesis")
        try:
            stats = textproc.edit_stats(rec.transcript, hyp)
        except textproc.TextError:
            return _Reject(rec, "empty_reference")
        rec = rec.with_fields(wer_pct=stats.wer_pct, cer_pct=stats.cer_pct)
        if not textproc.passes_cer_gate(stats, cfg.max_cer_pct):
            return _Reject(rec, "cer_gate")
        return [rec]

    return _collect([work(rec) for rec in records])


def _stage_speakers(records, ctx: _Context):
    path = _side_input(ctx, "speakers", *_SIDE_INPUTS["speakers"])
    counts = _load_jsonl_map(path, curation.SpeakerCountRecord, "num_speakers")
    missing = sum(rec.utterance_id not in counts for rec in records)
    if missing:
        logger.warning("no speaker count for %d of %d utterances", missing, len(records))
    tagged = curation.apply_speaker_counts(records, counts)
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


# The stages that run after the chapter stages (see _chapter_stages).
_STAGE_FNS = {
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
    manifest, an utterance_id too long for its audio file's name when audio
    runs, or an out_dir that cannot be made, before any stage runs; a bad
    side input, when its stage starts (text, audio and bandwidth start
    together, before any stage's outputs are written); any fault while an
    output is written (manifest.replacing), such as a full disk or a name a
    directory holds; a value of an utterance that is invalid as a manifest
    writes it, naming the file and the record; and a stage's output record
    that fails its validate(). Raises StageError when an enabled stage lacks
    its chapters manifest or side input; a side input of segment, validate or
    speakers is looked for before any stage runs. The worker pool is shut
    down before this returns or raises.
    Before the first stage, glibc's allocator is told to keep up to 64 MiB of
    freed memory per arena and to mmap only blocks over 32 MiB, so each
    record reuses the pages the last one freed; the settings stay for the
    life of the process.
    """
    problems = validate_config(config)
    if problems:
        raise ConfigError("; ".join(problems))
    _keep_freed_heap()
    ctx = _Context(config)
    with writing(ctx.out_dir):
        ctx.out_dir.mkdir(parents=True, exist_ok=True)
    enabled = [s for s in STAGE_ORDER if s in config.stages]
    # Each stage sees a value as a stage manifest would hold it, so a run
    # and a chain of one-stage runs over its manifests agree.
    records = read_manifest(config.utterances_manifest)
    # The longest name the audio step writes, replacing's temporary name of a
    # record's audio file, as a template for its utterance_id.
    tmp_name = partial_path(_audio_path(ctx.out_dir, "{}", config.encoder_cmd)).name
    name_max = os.pathconf(ctx.out_dir, "PC_NAME_MAX") if "audio" in enabled else 0
    for i, rec in enumerate(records):
        try:
            records[i] = as_written(rec)
            if 0 < name_max < (n := len(os.fsencode(tmp_name.format(rec.utterance_id)))):
                raise InvariantError(f"utterance_id: too long: its audio's temporary name is"
                                     f" {n} bytes, over {ctx.out_dir}'s limit of {name_max}")
        except InvariantError as exc:  # a value that is invalid as written
            raise input_error(exc, f"{config.utterances_manifest}: {rec.utterance_id!r}") from exc
    for stage in enabled:  # looked for now, read when its stage starts
        if stage in _SIDE_INPUTS:
            _side_input(ctx, stage, *_SIDE_INPUTS[stage])
    chapter_stages = (_chapter_stages(records, ctx)
                      if not set(CHAPTER_STAGES).isdisjoint(enabled) else {})
    reports: list[StageReport] = []
    final_path: Path | None = None
    any_rejects = False
    for index, stage in enumerate(enabled):
        n_in = len(records)
        kept, rejects, extras = chapter_stages.pop(stage, None) or _STAGE_FNS[stage](records, ctx)
        # What the next stage sees is what this stage's manifest holds.
        kept = sorted(map(as_written, kept), key=lambda r: r.utterance_id)
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
    exit_code = EXIT_PARTIAL if any_rejects else EXIT_OK
    return PipelineResult(exit_code=exit_code, reports=reports, final_manifest=final_path)
