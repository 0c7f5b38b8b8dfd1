"""Corpus data model and JSON-lines manifest I/O.

Every pipeline stage reads and writes the same JSONL manifest format:
one utterance per line, UTF-8, keys in a fixed order so that identical
record sequences always serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")

TEXT_SOURCES = ("book_match", "predicted_pc")
GENDERS = ("m", "f", "unknown")

# Serialization order. Unknown fields are appended after these, sorted by key.
_UTT_FIELDS = (
    "utterance_id",
    "book_id",
    "chapter_id",
    "speaker_id",
    "audio_path",
    "offset_s",
    "duration_s",
    "trim_lead_s",
    "text",
    "text_source",
    "raw_text",
    "bandwidth_hz",
    "wer_pct",
    "cer_pct",
    "num_speakers",
    "gender",
)

_CHAPTER_FIELDS = (
    "chapter_id",
    "book_id",
    "speaker_id",
    "audio_path",
    "sample_rate_hz",
    "book_text_path",
)


class ManifestError(Exception):
    """Manifest could not be read or written."""


class InvariantError(ManifestError):
    """A record violates a schema invariant."""

    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        super().__init__(f"{field_name}: {message}")


def _round_seconds(x: float) -> float:
    # External interface: decimal seconds, at most 4 fractional digits.
    return float(f"{x:.4f}")


@dataclass(frozen=True)
class UtteranceRecord:
    """One manifest row: an audio span plus transcript and quality metadata."""

    utterance_id: str
    book_id: str
    chapter_id: str
    speaker_id: str
    audio_path: str
    offset_s: float
    duration_s: float
    raw_text: str = ""
    text: str | None = None
    text_source: str | None = None
    bandwidth_hz: int | None = None
    wer_pct: float | None = None
    cer_pct: float | None = None
    num_speakers: int | None = None
    gender: str = "unknown"
    # seconds of leading silence the audio stage cut; alignments count from before it
    trim_lead_s: float | None = None
    extra: dict = field(default_factory=dict, compare=True)

    def validate(self) -> None:
        if not self.utterance_id:
            raise InvariantError("utterance_id", "must be non-empty")
        if self.offset_s < 0:
            raise InvariantError("offset_s", f"must be >= 0, got {self.offset_s}")
        if not self.duration_s > 0:
            raise InvariantError("duration_s", f"must be > 0, got {self.duration_s}")
        if self.trim_lead_s is not None and self.trim_lead_s < 0:
            raise InvariantError("trim_lead_s", f"must be >= 0, got {self.trim_lead_s}")
        if self.text_source is not None and self.text_source not in TEXT_SOURCES:
            raise InvariantError(
                "text_source", f"must be one of {TEXT_SOURCES}, got {self.text_source!r}"
            )
        if self.gender not in GENDERS:
            raise InvariantError("gender", f"must be one of {GENDERS}, got {self.gender!r}")
        for name in ("wer_pct", "cer_pct"):
            value = getattr(self, name)
            if value is not None and (value < 0 or math.isnan(value)):
                raise InvariantError(name, f"must be >= 0, got {value}")
        if self.num_speakers is not None and self.num_speakers < 0:
            raise InvariantError("num_speakers", f"must be >= 0, got {self.num_speakers}")
        if self.bandwidth_hz is not None and self.bandwidth_hz < 0:
            raise InvariantError("bandwidth_hz", f"must be >= 0, got {self.bandwidth_hz}")

    def to_json_dict(self) -> dict:
        out: dict = {}
        for name in _UTT_FIELDS:
            value = getattr(self, name)
            if value is None:
                continue  # absent metrics are omitted keys, not null
            if name in ("offset_s", "duration_s", "trim_lead_s"):
                value = _round_seconds(value)
            elif name == "bandwidth_hz":
                value = int(round(value))
            elif name in ("wer_pct", "cer_pct"):
                value = round(float(value), 4)
            out[name] = value
        for key in sorted(self.extra):
            out[key] = self.extra[key]
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "UtteranceRecord":
        known = {k: obj[k] for k in _UTT_FIELDS if k in obj}
        extra = {k: v for k, v in obj.items() if k not in _UTT_FIELDS}
        missing = [k for k in ("utterance_id", "book_id", "chapter_id", "speaker_id",
                               "audio_path", "offset_s", "duration_s") if k not in known]
        if missing:
            raise ManifestError(f"missing required fields: {', '.join(missing)}")
        rec = cls(extra=extra, **known)
        rec.validate()
        return rec

    def with_fields(self, **changes) -> "UtteranceRecord":
        return replace(self, **changes)


@dataclass(frozen=True)
class ChapterRecord:
    """One source audiobook chapter: the unit of audio decoding and bandwidth estimation."""

    chapter_id: str
    book_id: str
    speaker_id: str
    audio_path: str
    sample_rate_hz: int
    book_text_path: str | None = None

    def validate(self) -> None:
        if self.sample_rate_hz <= 0:
            raise InvariantError("sample_rate_hz", f"must be > 0, got {self.sample_rate_hz}")

    def to_json_dict(self) -> dict:
        out = {}
        for name in _CHAPTER_FIELDS:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ChapterRecord":
        # A misspelled key would otherwise leave its field unset. bandwidth_hz
        # is a legacy key, still accepted and ignored.
        unknown = set(obj) - set(_CHAPTER_FIELDS) - {"bandwidth_hz"}
        if unknown:
            raise ManifestError(f"unknown chapter keys: {sorted(unknown)}")
        known = {k: obj[k] for k in _CHAPTER_FIELDS if k in obj}
        rec = cls(**known)
        rec.validate()
        return rec


@dataclass(frozen=True)
class SubsetSpec:
    """Declarative filter thresholds defining a dataset subset."""

    min_bandwidth_hz: float = 0.0
    max_cer_pct: float = math.inf
    max_num_speakers: int | float = math.inf

    def validate(self) -> None:
        for name in ("min_bandwidth_hz", "max_cer_pct", "max_num_speakers"):
            value = getattr(self, name)
            if value < 0 or (isinstance(value, float) and math.isnan(value)):
                raise InvariantError(name, f"must be >= 0, got {value}")

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SubsetSpec":
        # A misspelled key would otherwise leave its gate at the default (off).
        unknown = set(obj) - set(cls.__dataclass_fields__)
        if unknown:
            raise ManifestError(f"unknown subset spec keys: {sorted(unknown)}")
        spec = cls(**obj)
        spec.validate()
        return spec


def _dump_line(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def _lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each non-blank line of a UTF-8 file."""
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if line:
                    yield lineno, line
        except UnicodeDecodeError as exc:
            raise ManifestError(f"{path}: not UTF-8 text: {exc}") from exc


def read_jsonl(
    path: str | Path, parse: Callable[[dict], T], unique: str | None = None
) -> list[T]:
    """parse(obj) for each JSON object line of a UTF-8 JSONL file, in order.

    With `unique`, two lines with the same value of that key are an error.
    Every error is a ManifestError naming the file and line, including a
    KeyError, TypeError, ValueError or ManifestError raised by parse.
    """
    out: list[T] = []
    seen: set = set()
    for lineno, line in _lines(path):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ManifestError(f"{path}:{lineno}: not a JSON object")
        try:
            out.append(parse(obj))
            if unique is not None:
                if obj[unique] in seen:
                    raise ManifestError(f"duplicate {unique} {obj[unique]!r}")
                seen.add(obj[unique])
        except (KeyError, TypeError, ValueError, ManifestError) as exc:
            detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise ManifestError(f"{path}:{lineno}: {detail}") from exc
    return out


def read_manifest(path: str | Path) -> list[UtteranceRecord]:
    """Read a JSONL utterance manifest, preserving record order."""
    return read_jsonl(path, UtteranceRecord.from_json_dict, unique="utterance_id")


def read_chapters(path: str | Path) -> list[ChapterRecord]:
    return read_jsonl(path, ChapterRecord.from_json_dict, unique="chapter_id")


@contextmanager
def replacing(path: str | Path) -> Iterator[Path]:
    """Yield `.{stem}.partial{suffix}` beside `path`; move it onto `path` on a clean exit.

    A failed or interrupted write leaves `path` as it was. The temporary file
    keeps the suffix, from which encoders such as ffmpeg pick the format.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.stem}.partial{path.suffix}")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_manifest(
    records: Iterable[UtteranceRecord | ChapterRecord], path: str | Path
) -> None:
    """Write records as JSONL. Deterministic byte-for-byte for equal inputs.

    The file is replaced only once every record is valid and written.
    """
    with replacing(path) as tmp, open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            rec.validate()
            fh.write(_dump_line(rec.to_json_dict()))
            fh.write("\n")


write_chapters = write_manifest
