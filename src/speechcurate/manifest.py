"""Corpus data model and JSON-lines manifest I/O.

Every pipeline stage reads and writes the same JSONL manifest format:
one utterance per line, UTF-8, keys in a fixed order so that identical
record sequences always serialize to identical bytes.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import os
import stat
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TextIO, TypeVar

T = TypeVar("T")

TEXT_SOURCES = ("book_match", "predicted_pc")
GENDERS = ("m", "f", "unknown")


class ConfigError(ValueError):
    """A fault of the run's config, an input file or an output location: exit 1."""


class ManifestError(ConfigError):
    """An input file could not be read, or a manifest written."""


class InvariantError(ManifestError):
    """A value breaks a condition its field declares."""


def four_decimals(x: float) -> float:
    """x as a manifest writes a float field: to 4 decimals (seconds and
    percentages alike). A stage that decides on a written value asks this."""
    return round(float(x), 4)


def _finite(value) -> bool:
    """math.isfinite, where an integer too large for a float is not finite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# The conditions a field may declare: a test its value must pass, and the
# message, formatted with the value, when it does not.
FINITE = (_finite, "must be finite, got {}")
# Infinity is within the float range; an integer too large for a float is not.
IN_FLOAT_RANGE = (lambda value: _finite(value) or abs(value) == math.inf,
                  "must be within the float range, got {}")
AT_LEAST_0 = (functools.partial(operator.le, 0), "must be >= 0, got {}")
ABOVE_0 = (functools.partial(operator.lt, 0), "must be > 0, got {}")
AT_MOST_0 = (functools.partial(operator.ge, 0), "must be <= 0, got {}")
AT_LEAST_1 = (functools.partial(operator.le, 1), "must be >= 1, got {}")
NON_EMPTY = (bool, "must be non-empty")
# An utterance id names out_dir/audio/<id>.wav, so it must be one file name
# there; no leading "." also rules out ".." and replacing's temporary names.
FILE_NAME = (lambda value: "/" not in value and "\0" not in value and not value.startswith("."),
             "must be a file name: no '/', no NUL and no leading '.', got {!r}")
# A NUL ends a name in every system call, so no path holds one.
NO_NUL = (lambda value: "\0" not in value, "must be a path: no NUL, got {!r}")


def one_of(values: tuple) -> tuple:
    """The condition that a value is one of values."""
    return frozenset(values).__contains__, f"must be one of {values}, got {{!r}}"


def must(*conditions, default=MISSING) -> Any:
    """A dataclass field whose value must pass each of conditions, in order."""
    return field(default=default, metadata={"must": conditions})


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
    A bool is not a number, and NaN is not a number."""
    problems = []
    for name, value in obj.items():
        if name in schema:
            accepted, what = schema[name]
            # A value of an accepted type itself, as JSON and YAML give them, skips
            # the isinstance tests; NaN is the one accepted value unequal to itself.
            if (type(value) not in accepted and (not isinstance(value, accepted)
                                                  or isinstance(value, bool))) or value != value:
                problems.append(f"{name}: must be {what}, got {value!r}")
    return problems


@functools.cache
def _conditions_of(cls) -> tuple[tuple[str, bool, Callable, str], ...]:
    """(name, whether it may be null, test, message) for each condition that a
    field of the dataclass cls declares through must(), in field order."""
    return tuple((f.name, f.type.endswith("| None"), test, message)
                 for f in fields(cls) for test, message in f.metadata.get("must", ()))


def field_problems(rec) -> list[str]:
    """The one check of the conditions fields declare with must(): for each
    field of the dataclass instance rec that fails one, in field order, the
    message of the first it fails, as in `num_speakers: must be >= 0, got -1`.
    A null value of a field that may be null passes. Readers apply the type
    rule first; a value of the wrong type, in a record made in code, may raise
    TypeError here."""
    problems = []
    failed = None  # the field last named: it is named for its first failure only
    for name, nullable, test, message in _conditions_of(type(rec)):
        value = getattr(rec, name)
        if not (value is None and nullable or test(value) or name == failed):
            problems.append(f"{name}: {message.format(value)}")
            failed = name
    return problems


def check(rec) -> None:
    """InvariantError naming the first field of rec that fails a condition it declares."""
    if problems := field_problems(rec):
        raise InvariantError(problems[0])


@functools.cache
def _rules_of(cls) -> tuple[dict, tuple[str, ...], str | None, bool, Callable]:
    """from_typed's rules for a dataclass: (its schema_of, the fields without a
    default, the `dict` field that holds unknown keys or None, whether an
    unknown key is an error, its validate() or else check)."""
    required = tuple(f.name for f in fields(cls)
                     if f.default is MISSING and f.default_factory is MISSING)
    bag = next((f.name for f in fields(cls) if f.type == "dict"), None)
    strict = bag is None and len(required) < len(fields(cls))
    return schema_of(cls), required, bag, strict, getattr(cls, "validate", check)


def from_typed(cls: type[T], obj) -> T:
    """The record of dataclass cls that the JSON object obj holds; each fault is a
    ManifestError. A key that is not a field goes into cls's `dict` field if it
    has one; else it is an error when some field has a default (a misspelt key
    would leave that field at its default), and ignored when none has. Then every
    value must pass type_problems, every field without a default be present, and
    the record pass its validate() if cls has one, else check(): either way every
    condition its fields declare, the first failing field named (an
    InvariantError)."""
    if not isinstance(obj, dict):
        raise ManifestError(f"must be a JSON object, got {type(obj).__name__}")
    schema, required, bag, strict, validate = _rules_of(cls)
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
    validate(rec)
    return rec


def _all_finite(value) -> bool:
    """No NaN or infinity in value, a JSON value as json.loads returns it."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, (list, dict)):
        return all(map(_all_finite, value.values() if isinstance(value, dict) else value))
    return True


def check_encodable(value, seen: set | None = None) -> None:
    """ManifestError at the first string in value, a JSON or YAML value as
    parsed (keys included, at any depth), that UTF-8 cannot encode: one with
    a lone surrogate, which only an escape such as "\\ud800" can give. No
    output could hold it, and no file be named by it. Each list or mapping
    is walked once, and one that value holds twice is an error too: only a
    YAML alias can make one, and a few lines of aliases can hold 2**39
    leaves, or a list that holds itself, which no check or message could walk."""
    if isinstance(value, str):
        try:
            value.encode()
        except UnicodeEncodeError:
            raise ManifestError(f"not UTF-8 text: {value!r} holds a lone surrogate") from None
    elif isinstance(value, (dict, list)):
        seen = set() if seen is None else seen
        if id(value) in seen:
            raise ManifestError("a YAML alias repeats a list or mapping; write each value out")
        seen.add(id(value))
        for item in [*value, *value.values()] if isinstance(value, dict) else value:
            check_encodable(item, seen)


# How UtteranceRecord.to_json_dict writes a field's value, where not as it is.
_WRITTEN_AS = {"offset_s": four_decimals, "duration_s": four_decimals,
               "trim_lead_s": four_decimals, "bandwidth_hz": lambda hz: int(round(hz)),
               "wer_pct": four_decimals, "cer_pct": four_decimals}


@dataclass(frozen=True)
class UtteranceRecord:
    """One manifest row: an audio span plus transcript and quality metadata.

    The field order is the manifest's key order; other keys are kept in
    `extra` and written after them, sorted by key.
    """

    utterance_id: str = must(NON_EMPTY, FILE_NAME)
    book_id: str
    chapter_id: str
    speaker_id: str
    audio_path: str
    offset_s: float = must(FINITE, AT_LEAST_0)
    duration_s: float = must(FINITE, ABOVE_0)
    # seconds of leading silence the audio stage cut; alignments count from before it
    trim_lead_s: float | None = must(FINITE, AT_LEAST_0, default=None)
    text: str | None = None
    text_source: str | None = must(one_of(TEXT_SOURCES), default=None)
    raw_text: str = ""
    bandwidth_hz: int | None = must(AT_LEAST_0, default=None)
    wer_pct: float | None = must(FINITE, AT_LEAST_0, default=None)
    cer_pct: float | None = must(FINITE, AT_LEAST_0, default=None)
    num_speakers: int | None = must(AT_LEAST_0, default=None)
    gender: str = must(one_of(GENDERS), default="unknown")
    extra: dict = field(default_factory=dict, compare=True)

    def validate(self) -> None:
        check(self)
        # Unknown keys are written back as read, and JSON has no NaN or infinity.
        for name, value in self.extra.items():
            if not _all_finite(value):
                raise InvariantError(f"{name}: must be finite, got {value}")

    def to_json_dict(self) -> dict:
        out: dict = {}
        for name in _UTT_SCHEMA:
            value = getattr(self, name)
            if value is not None:  # absent metrics are omitted keys, not null
                out[name] = _WRITTEN_AS[name](value) if name in _WRITTEN_AS else value
        for key in sorted(self.extra):
            out[key] = self.extra[key]
        return out

    from_json_dict = classmethod(from_typed)

    @property
    def transcript(self) -> str:
        """The record's words: its text where it has one, else its raw_text."""
        return self.text or self.raw_text

    def with_fields(self, **changes) -> "UtteranceRecord":
        return replace(self, **changes)


_UTT_SCHEMA = schema_of(UtteranceRecord)


def as_written(rec: UtteranceRecord) -> UtteranceRecord:
    """rec with each value as its manifest line holds it (_WRITTEN_AS, the
    rule to_json_dict writes with); rec itself when that changes nothing.
    A changed record is validated again: a `duration_s` of 0.00004 is 0.0 as
    written, which no manifest can hold (an InvariantError)."""
    changes = {name: rule(value) for name, rule in _WRITTEN_AS.items()
               if (value := getattr(rec, name)) is not None and rule(value) != value}
    if changes:
        rec = rec.with_fields(**changes)
        rec.validate()
    return rec


@dataclass(frozen=True)
class ChapterRecord:
    """One source audiobook chapter: the unit of audio decoding and bandwidth estimation."""

    chapter_id: str
    book_id: str
    speaker_id: str
    audio_path: str = must(NO_NUL)
    sample_rate_hz: int = must(ABOVE_0)
    book_text_path: str | None = must(NO_NUL, default=None)

    validate = check

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

    min_bandwidth_hz: float = must(AT_LEAST_0, default=0.0)
    max_cer_pct: float = must(AT_LEAST_0, IN_FLOAT_RANGE, default=math.inf)
    max_num_speakers: int | float = must(AT_LEAST_0, IN_FLOAT_RANGE, default=math.inf)

    validate = check

    from_json_dict = classmethod(from_typed)


def _dump_line(obj: dict) -> str:
    # Strict JSON: NaN and Infinity are not JSON values.
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"), allow_nan=False)


# The faults met while reading an input file that are the file's own: it is
# missing or unreadable (OSError); not UTF-8 text, malformed JSON, a number too
# long to convert or a value a parser refuses (ValueError, ConfigError among
# them); a missing key (KeyError); a value of a wrong type (TypeError); or
# nesting too deep to read (RecursionError). Every reader catches these.
INPUT_FAULTS = (OSError, KeyError, TypeError, ValueError, RecursionError)

# How input_error words a fault, by its class: the first that matches.
_FAULT_WORDS = ((UnicodeDecodeError, "not UTF-8 text: "),
                (json.JSONDecodeError, "malformed JSON: "),
                (OSError, "unreadable: "), (KeyError, "missing key "))


def input_error(exc: Exception, where: str | Path) -> ManifestError:
    """The one ManifestError for a fault of INPUT_FAULTS met while reading an
    input file: `where` (the file, or `file:line`), the word for the fault's
    kind, then its message. A ManifestError (an InvariantError, say) keeps its
    class."""
    word = next((word for cls, word in _FAULT_WORDS if isinstance(exc, cls)), "")
    cls = type(exc) if isinstance(exc, ManifestError) else ManifestError
    return cls(f"{where}: {word}{exc}")


def open_input(path: str | Path) -> TextIO:
    """path opened as UTF-8 text, once it is found to be a regular file; else
    an OSError, which input_error words `<path>: unreadable: not a regular
    file`. The one check every input passes before it is read: a directory
    cannot be read, and a device such as /dev/full reads without end. The
    file is opened non-blocking, so a FIFO is refused without waiting for
    a writer; a regular file reads as it would without that flag."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        raise OSError("not a regular file")
    return open(fd, encoding="utf-8")


def read_text(path: str | Path) -> str:
    """The whole of a UTF-8 text file; a fault is a ManifestError naming the file."""
    try:
        with open_input(path) as fh:
            return fh.read()
    except INPUT_FAULTS as exc:
        raise input_error(exc, path) from exc


def _lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each non-blank line of a UTF-8 file; a
    fault of the file is a ManifestError naming it."""
    try:
        with open_input(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if line:
                    yield lineno, line
    except INPUT_FAULTS as exc:
        raise input_error(exc, path) from exc


def read_jsonl(
    path: str | Path, parse: Callable[[dict], T], unique: str | None = None
) -> list[T]:
    """parse(obj) for each JSON object line of a UTF-8 JSONL file, in order.

    With `unique`, two lines with the same value of that key are an error.
    Every error is a ManifestError naming the file and line (input_error),
    including a fault of INPUT_FAULTS raised by parse.
    """
    out: list[T] = []
    seen: set = set()
    for lineno, line in _lines(path):
        # One except clause, not a context manager per line: a clean line costs nothing.
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ManifestError("not a JSON object")
            check_encodable(obj)
            out.append(parse(obj))
            if unique is not None:
                if obj[unique] in seen:
                    raise ManifestError(f"duplicate {unique} {obj[unique]!r}")
                seen.add(obj[unique])
        except INPUT_FAULTS as exc:
            raise input_error(exc, f"{path}:{lineno}") from exc
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
    file's place, a missing directory, a full disk."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{path}: cannot write: {exc.strerror}") from exc


def partial_path(path: Path) -> Path:
    """The temporary file replacing(path) writes: `.{stem}.partial{suffix}` beside path."""
    return path.with_name(f".{path.stem}.partial{path.suffix}")


@contextmanager
def replacing(path: str | Path) -> Iterator[Path]:
    """Yield partial_path(path); move it onto `path` on a clean exit.

    A failed or interrupted write leaves `path` as it was and removes the
    temporary file. The body, the move and the removal run under
    writing(path): this is the one place where a fault of writing an output
    becomes a ConfigError naming it, whatever the fault (a directory at
    `path` or at the temporary name, a full disk) and wherever it is met.
    A body that must keep a fault of its own apart raises it as something
    other than an OSError. The temporary file keeps the suffix, from which
    encoders such as ffmpeg pick the format.
    """
    tmp = partial_path(Path(path))
    with writing(path):
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

