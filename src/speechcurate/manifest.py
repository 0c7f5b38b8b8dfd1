"""Corpus data model and JSON-lines manifest I/O.

Every pipeline stage reads and writes the same JSONL manifest format:
one utterance per line, UTF-8, keys in a fixed order so that identical
record sequences always serialize to identical bytes.
"""

from __future__ import annotations

import functools
import json
import math
import os
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")

TEXT_SOURCES = ("book_match", "predicted_pc")
GENDERS = ("m", "f", "unknown")


class ConfigError(ValueError):
    """A fault of the run's config, an input file or an output location: exit 1."""


class ManifestError(ConfigError):
    """Manifest could not be read or written."""


class InvariantError(ManifestError):
    """A record violates a schema invariant."""

    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        super().__init__(f"{field_name}: {message}")


def _round_seconds(x: float) -> float:
    # External interface: decimal seconds, at most 4 fractional digits.
    return float(f"{x:.4f}")


# The values a field annotation accepts, and how a message names them.
_ACCEPTS = {"str": ((str,), "a string"), "int": ((int,), "an integer"),
            "float": ((int, float), "a number"), "int | float": ((int, float), "a number"),
            "list": ((list,), "a list")}


@functools.cache
def schema_of(cls) -> dict[str, tuple[tuple[type, ...], str]]:
    """{key: (accepted types, their name)} in field order, for each field of a
    dataclass annotated (as a string) with an _ACCEPTS key, alone or `| None`.
    A `dict` field holds unknown keys; a `list[str]` is left to its caller."""
    schema = {}
    for f in fields(cls):
        if f.type in ("dict", "list[str]"):
            continue
        base = f.type.removesuffix(" | None")
        accepted, what = _ACCEPTS[base]
        if base != f.type:
            accepted, what = (*accepted, type(None)), f"{what} or null"
        schema[f.name] = accepted, what
    return schema


def type_problems(obj: dict, schema: dict) -> list[str]:
    """A message for each value in obj that its field's annotation does not accept.
    A bool is not a number, and NaN is not a number: it passes every range check."""
    problems = []
    for name, value in obj.items():
        if name in schema:
            accepted, what = schema[name]
            # NaN is the one accepted value unequal to itself.
            if not isinstance(value, accepted) or isinstance(value, bool) or value != value:
                problems.append(f"{name}: must be {what}, got {value!r}")
    return problems


@functools.cache
def _rules_of(cls) -> tuple[dict, tuple[str, ...], str | None, bool]:
    """from_typed's rules for a dataclass: (its schema_of, the fields without a
    default, the `dict` field that holds unknown keys or None, whether an
    unknown key is an error)."""
    required = tuple(f.name for f in fields(cls)
                     if f.default is MISSING and f.default_factory is MISSING)
    bag = next((f.name for f in fields(cls) if f.type == "dict"), None)
    return schema_of(cls), required, bag, bag is None and len(required) < len(fields(cls))


def from_typed(cls: type[T], obj) -> T:
    """The record of dataclass cls that the JSON object obj holds; each fault is a
    ManifestError. A key that is not a field goes into cls's `dict` field if it
    has one; else it is an error when some field has a default (a misspelt key
    would leave that field at its default), and ignored when none has. Then every
    value must pass type_problems, every field without a default be present, and
    the record pass its validate(), if it has one."""
    if not isinstance(obj, dict):
        raise ManifestError(f"must be a JSON object, got {type(obj).__name__}")
    schema, required, bag, strict = _rules_of(cls)
    # The schema's keys, not obj's: cls(**values) matches interned names fastest.
    values = {k: obj[k] for k in schema if k in obj}
    if len(values) < len(obj):
        unknown = {k: v for k, v in obj.items() if k not in schema}
        if bag is not None:
            values[bag] = unknown
        elif strict:
            raise ManifestError(f"unknown keys: {sorted(unknown)}")
    if problems := type_problems(obj, schema):
        raise ManifestError("; ".join(problems))
    for name in required:
        if name not in values:
            raise ManifestError(f"missing key {name!r}")
    rec = cls(**values)
    if hasattr(rec, "validate"):
        rec.validate()
    return rec


def _all_finite(value) -> bool:
    """No NaN or infinity in value, a JSON value as json.loads returns it."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, (list, dict)):
        return all(map(_all_finite, value.values() if isinstance(value, dict) else value))
    return True


@dataclass(frozen=True)
class UtteranceRecord:
    """One manifest row: an audio span plus transcript and quality metadata.

    The field order is the manifest's key order; other keys are kept in
    `extra` and written after them, sorted by key.
    """

    utterance_id: str
    book_id: str
    chapter_id: str
    speaker_id: str
    audio_path: str
    offset_s: float
    duration_s: float
    # seconds of leading silence the audio stage cut; alignments count from before it
    trim_lead_s: float | None = None
    text: str | None = None
    text_source: str | None = None
    raw_text: str = ""
    bandwidth_hz: int | None = None
    wer_pct: float | None = None
    cer_pct: float | None = None
    num_speakers: int | None = None
    gender: str = "unknown"
    extra: dict = field(default_factory=dict, compare=True)

    def validate(self) -> None:
        if not self.utterance_id:
            raise InvariantError("utterance_id", "must be non-empty")
        for name in ("offset_s", "duration_s", "trim_lead_s", "wer_pct", "cer_pct"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvariantError(name, f"must be finite, got {value}")
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
            if value is not None and value < 0:
                raise InvariantError(name, f"must be >= 0, got {value}")
        if self.num_speakers is not None and self.num_speakers < 0:
            raise InvariantError("num_speakers", f"must be >= 0, got {self.num_speakers}")
        if self.bandwidth_hz is not None and self.bandwidth_hz < 0:
            raise InvariantError("bandwidth_hz", f"must be >= 0, got {self.bandwidth_hz}")
        # Unknown keys are written back as read, and JSON has no NaN or infinity.
        for name, value in self.extra.items():
            if not _all_finite(value):
                raise InvariantError(name, f"must be finite, got {value}")

    def to_json_dict(self) -> dict:
        out: dict = {}
        for name in _UTT_SCHEMA:
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

    from_json_dict = classmethod(from_typed)

    def with_fields(self, **changes) -> "UtteranceRecord":
        return replace(self, **changes)


_UTT_SCHEMA = schema_of(UtteranceRecord)


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
        return {k: v for k in _CHAPTER_SCHEMA if (v := getattr(self, k)) is not None}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ChapterRecord":
        # bandwidth_hz is a legacy key, still accepted and ignored.
        return from_typed(cls, {k: v for k, v in obj.items() if k != "bandwidth_hz"})


_CHAPTER_SCHEMA = schema_of(ChapterRecord)


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

    from_json_dict = classmethod(from_typed)


def _dump_line(obj: dict) -> str:
    # Strict JSON: NaN and Infinity are not JSON values.
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"), allow_nan=False)


def read_text(path: str | Path) -> str:
    """The whole of a UTF-8 text file; a fault is a ConfigError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    except OSError as exc:  # missing, a directory, no permission
        raise ConfigError(f"{path}: unreadable: {exc}") from exc


def _lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each non-blank line of a UTF-8 file."""
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if line:
                    yield lineno, line
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: not UTF-8 text: {exc}") from exc
    except OSError as exc:  # missing, a directory, no permission
        raise ManifestError(f"{path}: unreadable: {exc}") from exc


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
def writing(path: str | Path) -> Iterator[None]:
    """An OSError raised while making or writing the output `path` is a
    ConfigError naming it: a file in a directory's place, a directory in a
    file's place, a missing directory."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{path}: cannot write: {exc.strerror}") from exc


@contextmanager
def replacing(path: str | Path) -> Iterator[Path]:
    """Yield `.{stem}.partial{suffix}` beside `path`; move it onto `path` on a clean exit.

    A failed or interrupted write leaves `path` as it was and removes the
    temporary file. The move runs under writing(path), so a directory at
    `path` is a ConfigError; an OSError of the body is raised as it is. The
    temporary file keeps the suffix, from which encoders such as ffmpeg pick
    the format.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.stem}.partial{path.suffix}")
    try:
        yield tmp
        with writing(path):
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
