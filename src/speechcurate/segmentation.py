"""Pause-midpoint utterance splitting driven by forced-alignment tokens.

Long utterances are split at the midpoint of the longest pause that follows
a sentence-final period (>= 0.08 s by default), ignoring periods that belong
to abbreviations. Ties between equally long pauses are broken by a
deterministic per-utterance random choice.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from .manifest import (FINITE, INPUT_FAULTS, ManifestError, UtteranceRecord, _lines, check,
                       from_typed, input_error, must, read_jsonl, read_text)

DEFAULT_MIN_PAUSE_S = 0.08

_TRAILING_QUOTES = "\"'’”`)"


class AlignmentError(ManifestError):
    pass


@dataclass(frozen=True)
class AlignmentToken:
    word: str
    start_s: float
    end_s: float


@dataclass(frozen=True)
class _AlignmentLine:
    """A line of a JSONL alignments file."""

    utterance_id: str
    tokens: list


@dataclass(frozen=True)
class _Token:
    """A token as an alignments file gives it, JSONL or CTM: the rule both
    readers build an AlignmentToken through."""

    word: str
    start: float = must(FINITE)
    end: float = must(FINITE)

    def validate(self) -> None:
        check(self)
        if self.start > self.end:
            raise AlignmentError(f"token {self.word!r} has start > end")


@dataclass(frozen=True)
class Pause:
    gap_start_s: float
    gap_end_s: float
    word_index: int  # index of the sentence-final token before the gap

    @property
    def duration_s(self) -> float:
        return self.gap_end_s - self.gap_start_s

    @property
    def midpoint_s(self) -> float:
        return (self.gap_start_s + self.gap_end_s) / 2.0


def load_default_abbreviations() -> frozenset[str]:
    return load_abbreviations(Path(__file__).parent / "data" / "abbreviations.txt")


def load_abbreviations(path: str | Path) -> frozenset[str]:
    """One abbreviation per line; a file that cannot be read, or is not UTF-8, is a
    ConfigError naming it."""
    entries = set()
    for raw in read_text(path).splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            entries.add(line.rstrip(".").casefold())
    return frozenset(entries)


def _strip_word(word: str) -> str:
    return "".join(ch for ch in word if ch.isalnum()).casefold()


def find_candidate_pauses(
    track: list[AlignmentToken],
    transcript: str,
    min_pause_s: float = DEFAULT_MIN_PAUSE_S,
    abbreviations: frozenset[str] | None = None,
) -> list[Pause]:
    """Gaps of at least min_pause_s following a non-abbreviation period.

    Transcript words pair positionally with alignment tokens; a count
    mismatch aborts the utterance.
    """
    if abbreviations is None:
        abbreviations = load_default_abbreviations()
    words = transcript.split()
    if len(words) != len(track):
        raise AlignmentError(
            f"transcript has {len(words)} words but alignment has {len(track)} tokens"
        )
    pauses = []
    for i in range(len(track) - 1):
        word = words[i].rstrip(_TRAILING_QUOTES)
        if not word.endswith("."):
            continue
        if _strip_word(word) in abbreviations:
            continue
        gap = track[i + 1].start_s - track[i].end_s
        if gap >= min_pause_s:
            pauses.append(Pause(track[i].end_s, track[i + 1].start_s, i))
    return pauses


def _splitmix64(state: int) -> int:
    state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def utterance_seed(utterance_id: str, global_seed: int = 0) -> int:
    """Stable 64-bit seed independent of worker scheduling."""
    digest = hashlib.blake2b(utterance_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") ^ (global_seed & 0xFFFFFFFFFFFFFFFF)


def choose_split(pauses: list[Pause], rng_seed: int = 0) -> Pause | None:
    """The longest pause, exact-duration ties broken pseudo-randomly; None without one."""
    if not pauses:
        return None
    longest = max(p.duration_s for p in pauses)
    maximal = [p for p in pauses if p.duration_s == longest]
    return maximal[_splitmix64(rng_seed) % len(maximal)]


def _exact_partition(total: float, first: float) -> tuple[float, float]:
    # Fix up float rounding so the two parts sum to the parent exactly.
    a, b = first, total - first
    for _ in range(5):
        if a + b == total:
            return a, b
        a = total - b
        if a + b == total:
            return a, b
        b = total - a
    raise ArithmeticError(f"could not partition {total} at {first}")


def apply_split(rec: UtteranceRecord, pause: Pause | None) -> list[UtteranceRecord]:
    """Split a record in two at the pause's midpoint; identity when pause is None.

    Children get ids suffixed _a/_b, transcripts partitioned after the
    pause's word, inherited metadata copied, and WER/CER cleared for
    recomputation.
    """
    if pause is None:
        return [rec]
    sp = pause.midpoint_s
    if not 0.0 < sp < rec.duration_s:
        raise AlignmentError(
            f"{rec.utterance_id}: split point {sp} outside (0, {rec.duration_s})"
        )
    boundary = pause.word_index
    words = rec.transcript.split()
    text_a = " ".join(words[: boundary + 1])
    text_b = " ".join(words[boundary + 1:])
    raw_words = rec.raw_text.split()
    if len(raw_words) == len(words):
        raw_a = " ".join(raw_words[: boundary + 1])
        raw_b = " ".join(raw_words[boundary + 1:])
    else:
        from .textproc import strip_pc

        raw_a, raw_b = strip_pc(text_a), strip_pc(text_b)
    dur_a, dur_b = _exact_partition(rec.duration_s, sp)
    common = dict(wer_pct=None, cer_pct=None)
    child_a = rec.with_fields(
        utterance_id=rec.utterance_id + "_a",
        duration_s=dur_a,
        text=text_a if rec.text else None,
        raw_text=raw_a,
        **common,
    )
    child_b = rec.with_fields(
        utterance_id=rec.utterance_id + "_b",
        offset_s=rec.offset_s + dur_a,
        duration_s=dur_b,
        text=text_b if rec.text else None,
        raw_text=raw_b,
        **common,
    )
    return [child_a, child_b]


def load_alignments_jsonl(path: str | Path) -> dict[str, list[AlignmentToken]]:
    """Consolidated alignments: JSONL of {utterance_id, tokens: [...]}."""
    def parse(obj: dict) -> tuple[str, list[AlignmentToken]]:
        line = from_typed(_AlignmentLine, obj)
        return line.utterance_id, [_token(tok) for tok in line.tokens]

    return dict(read_jsonl(path, parse, unique="utterance_id"))


def load_ctm(path: str | Path) -> dict[str, list[AlignmentToken]]:
    """CTM reader: `utt channel start dur word` lines, grouped by utterance."""
    tracks: dict[str, list[AlignmentToken]] = {}
    for lineno, line in _lines(path):
        if line.startswith(";;"):
            continue
        try:
            utt, _channel, start, dur, word = line.split()[:5]
            start_s = float(start)
            token = _token({"word": word, "start": start_s, "end": start_s + float(dur)})
        except INPUT_FAULTS as exc:
            raise input_error(exc, f"{path}:{lineno}") from exc
        tracks.setdefault(utt, []).append(token)
    for track in tracks.values():
        track.sort(key=lambda t: t.start_s)
    return tracks


def _token(obj) -> AlignmentToken:
    """The AlignmentToken that a token object holds, if it passes _Token's rule."""
    if not isinstance(obj, dict):
        raise AlignmentError(f"token must be a JSON object, got {obj!r}")
    token = from_typed(_Token, obj)
    # float() only widens a JSON integer: the type rule has refused the rest.
    return AlignmentToken(token.word, float(token.start), float(token.end))
