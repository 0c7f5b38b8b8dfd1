import ast
import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechcurate import config, curation, manifest, pipeline, segmentation
from speechcurate.manifest import (
    ChapterRecord,
    InvariantError,
    ManifestError,
    SubsetSpec,
    UtteranceRecord,
    as_written,
    from_typed,
    read_chapters,
    read_jsonl,
    read_manifest,
    replacing,
    write_manifest,
)


def make_record(i=0, **overrides):
    fields = dict(
        utterance_id=f"ch1_{i:04d}",
        book_id="b1",
        chapter_id="ch1",
        speaker_id="spk1",
        audio_path="audio/ch1.wav",
        offset_s=1.25,
        duration_s=4.5,
        raw_text="hello world",
        text="Hello, world!",
        text_source="book_match",
        bandwidth_hz=14000,
        wer_pct=0.0,
        cer_pct=1.5,
        num_speakers=1,
        gender="f",
    )
    fields.update(overrides)
    return UtteranceRecord(**fields)


def test_empty_file_gives_empty_sequence(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert read_manifest(path) == []


def test_empty_records_give_zero_byte_file(tmp_path):
    path = tmp_path / "out.jsonl"
    write_manifest([], path)
    assert path.read_bytes() == b""


def test_single_record_round_trip(tmp_path):
    path = tmp_path / "one.jsonl"
    rec = make_record()
    write_manifest([rec], path)
    (loaded,) = read_manifest(path)
    assert loaded == rec


def test_round_trip_many(tmp_path):
    records = [make_record(i, duration_s=round(1.0 + i * 0.01, 4)) for i in range(100)]
    path = tmp_path / "many.jsonl"
    write_manifest(records, path)
    assert read_manifest(path) == records


def test_write_is_deterministic(tmp_path):
    records = [make_record(i) for i in range(10)]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_manifest(records, a)
    write_manifest(records, b)
    assert a.read_bytes() == b.read_bytes()


def test_order_preserved(tmp_path):
    records = [make_record(i) for i in (3, 1, 2)]
    path = tmp_path / "ordered.jsonl"
    write_manifest(records, path)
    assert [r.utterance_id for r in read_manifest(path)] == [
        "ch1_0003", "ch1_0001", "ch1_0002"]


def test_negative_duration_names_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    obj = make_record().to_json_dict()
    obj["duration_s"] = -1
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(ManifestError, match="duration_s"):
        read_manifest(path)


def test_malformed_line_carries_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_manifest([make_record(0)], path)
    with open(path, "a") as fh:
        fh.write("{not json\n")
    with pytest.raises(ManifestError, match=":2"):
        read_manifest(path)


@pytest.mark.parametrize("line", ["[1, 2]", '"text"', "null"])
def test_non_object_line_rejected(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(ManifestError, match=":1: not a JSON object"):
        read_manifest(path)


def test_duplicate_id_rejected(tmp_path):
    path = tmp_path / "dup.jsonl"
    line = json.dumps(make_record().to_json_dict())
    path.write_text(line + "\n" + line + "\n")
    with pytest.raises(ManifestError, match="duplicate"):
        read_manifest(path)


def test_unknown_fields_survive_round_trip(tmp_path):
    path = tmp_path / "extra.jsonl"
    obj = make_record().to_json_dict()
    obj["custom_tag"] = "kept"
    path.write_text(json.dumps(obj) + "\n")
    (rec,) = read_manifest(path)
    assert rec.extra == {"custom_tag": "kept"}
    out = tmp_path / "extra2.jsonl"
    write_manifest([rec], out)
    assert json.loads(out.read_text())["custom_tag"] == "kept"


def test_absent_metrics_are_omitted_keys(tmp_path):
    rec = make_record(wer_pct=None, cer_pct=None, num_speakers=None)
    obj = rec.to_json_dict()
    for key in ("wer_pct", "cer_pct", "num_speakers"):
        assert key not in obj


def test_trim_lead_follows_duration_and_is_omitted_when_unset(tmp_path):
    assert "trim_lead_s" not in make_record().to_json_dict()
    obj = make_record(trim_lead_s=1.000049).to_json_dict()
    assert list(obj)[6:9] == ["duration_s", "trim_lead_s", "text"]
    assert obj["trim_lead_s"] == 1.0
    path = tmp_path / "trimmed.jsonl"
    write_manifest([make_record(trim_lead_s=0.25)], path)
    assert read_manifest(path)[0].trim_lead_s == 0.25


@pytest.mark.parametrize("field", ["wer_pct", "cer_pct"])
def test_non_finite_metric_names_field(tmp_path, field):
    with pytest.raises(InvariantError, match=f"{field}: must be finite, got inf"):
        write_manifest([make_record(**{field: float("inf")})], tmp_path / "m.jsonl")
    assert not (tmp_path / "m.jsonl").exists()


def test_negative_trim_lead_names_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({**make_record().to_json_dict(), "trim_lead_s": -0.5}) + "\n")
    with pytest.raises(ManifestError, match="trim_lead_s: must be >= 0"):
        read_manifest(path)


def test_bad_text_source_rejected():
    with pytest.raises(InvariantError, match="text_source"):
        make_record(text_source="guessed").validate()


@settings(max_examples=50, deadline=None)
@given(
    offset=st.decimals(min_value=0, max_value=1000, places=4),
    duration=st.decimals(min_value="0.0001", max_value=20, places=4),
    wer=st.one_of(st.none(), st.decimals(min_value=0, max_value=500, places=4)),
)
def test_round_trip_property(tmp_path_factory, offset, duration, wer):
    rec = make_record(
        offset_s=float(offset),
        duration_s=float(duration),
        wer_pct=None if wer is None else float(wer),
    )
    path = tmp_path_factory.mktemp("m") / "p.jsonl"
    write_manifest([rec], path)
    assert read_manifest(path) == [rec]


def test_as_written_holds_what_a_manifest_line_holds(tmp_path):
    rec = make_record(offset_s=4e-05, duration_s=1.23456, trim_lead_s=0.00012,
                      wer_pct=12.345678, cer_pct=None)
    written = as_written(rec)
    assert (written.offset_s, written.duration_s, written.trim_lead_s,
            written.wer_pct, written.cer_pct) == (0.0, 1.2346, 0.0001, 12.3457, None)
    path = tmp_path / "p.jsonl"
    write_manifest([rec], path)
    assert read_manifest(path) == [written]
    # Nothing to round: the record itself comes back.
    assert as_written(written) is written
    assert as_written(make_record()) == make_record()
    # A value no manifest can hold as written is an error.
    with pytest.raises(InvariantError, match=r"^duration_s: must be > 0, got 0.0$"):
        as_written(make_record(duration_s=4e-05))


def test_read_manifest_gives_records_as_written(tmp_path):
    path = tmp_path / "m.jsonl"
    obj = {**make_record().to_json_dict(), "offset_s": 0, "cer_pct": 2.99996}
    path.write_text(json.dumps(obj) + "\n")
    (rec,) = read_manifest(path)
    assert (rec.offset_s, type(rec.offset_s), rec.cer_pct) == (0.0, float, 3.0)


def test_read_manifest_refuses_a_value_invalid_as_written(tmp_path):
    path = tmp_path / "m.jsonl"
    lines = [make_record(0).to_json_dict(), {**make_record(1).to_json_dict(), "duration_s": 4e-05}]
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    with pytest.raises(InvariantError, match=f"^{re.escape(str(path))}:2: duration_s: must be > 0, got 0.0$"):
        read_manifest(path)


def test_write_manifest_refuses_a_value_invalid_as_written(tmp_path):
    path = tmp_path / "m.jsonl"
    with pytest.raises(InvariantError, match=f"^{re.escape(str(path))}:2: duration_s: must be > 0, got 0.0$"):
        write_manifest([make_record(0), make_record(1, duration_s=4e-05)], path)
    assert list(tmp_path.iterdir()) == []


def test_chapter_round_trip(tmp_path):
    chapters = [
        ChapterRecord("ch1", "b1", "spk1", "raw/ch1.wav", 48000, "text/ch1.txt"),
        ChapterRecord("ch2", "b1", "spk1", "raw/ch2.wav", 48000),
    ]
    path = tmp_path / "chapters.jsonl"
    write_manifest(chapters, path)
    assert read_chapters(path) == chapters


def test_subset_spec_negative_threshold_rejected():
    with pytest.raises(InvariantError, match="min_bandwidth_hz"):
        SubsetSpec(min_bandwidth_hz=-1).validate()


BIG = sys.float_info.max  # the largest finite number
INF = math.inf
PAST_FLOAT = 2**1024 - 2**970  # the least integer that float() rounds beyond BIG

# A valid value for each field without a default, per class with declared conditions.
VALID = {
    UtteranceRecord: {"utterance_id": "u", "book_id": "b", "chapter_id": "c", "speaker_id": "s",
                      "audio_path": "a.wav", "offset_s": 0.0, "duration_s": 1.0},
    ChapterRecord: {"chapter_id": "c", "book_id": "b", "speaker_id": "s", "audio_path": "a.wav",
                    "sample_rate_hz": 48000},
    SubsetSpec: {},
    curation.SpeakerCountRecord: {"utterance_id": "u", "num_speakers": 1},
    segmentation._Token: {"word": "a", "start": 0, "end": BIG},
    config.PipelineConfig: {},
}

# One row per condition a field declares: the values on its bound, which
# pass, a value just past it, and the message that value gives.
CONDITIONS = [
    (UtteranceRecord, "utterance_id", ["u"], "", "utterance_id: must be non-empty"),
    (UtteranceRecord, "utterance_id", ["u", "u.v", "u..v", "u\\v", "u_a"], "../escape",
     "utterance_id: must be a file name: no '/', no NUL and no leading '.', got '../escape'"),
    (UtteranceRecord, "offset_s", [BIG], INF, "offset_s: must be finite, got inf"),
    (UtteranceRecord, "offset_s", [0], -0.0001, "offset_s: must be >= 0, got -0.0001"),
    (UtteranceRecord, "duration_s", [BIG], INF, "duration_s: must be finite, got inf"),
    (UtteranceRecord, "duration_s", [0.0001], 0, "duration_s: must be > 0, got 0"),
    (UtteranceRecord, "trim_lead_s", [BIG, None], INF, "trim_lead_s: must be finite, got inf"),
    (UtteranceRecord, "trim_lead_s", [0], -0.0001, "trim_lead_s: must be >= 0, got -0.0001"),
    (UtteranceRecord, "text_source", ["book_match", "predicted_pc", None], "guessed",
     "text_source: must be one of ('book_match', 'predicted_pc'), got 'guessed'"),
    (UtteranceRecord, "bandwidth_hz", [0, None], -1, "bandwidth_hz: must be >= 0, got -1"),
    (UtteranceRecord, "wer_pct", [BIG, None], INF, "wer_pct: must be finite, got inf"),
    (UtteranceRecord, "wer_pct", [0], -0.0001, "wer_pct: must be >= 0, got -0.0001"),
    (UtteranceRecord, "cer_pct", [BIG, None], INF, "cer_pct: must be finite, got inf"),
    (UtteranceRecord, "cer_pct", [0], -0.0001, "cer_pct: must be >= 0, got -0.0001"),
    (UtteranceRecord, "num_speakers", [0, None], -1, "num_speakers: must be >= 0, got -1"),
    (UtteranceRecord, "gender", ["m", "f", "unknown"], "x",
     "gender: must be one of ('m', 'f', 'unknown'), got 'x'"),
    (ChapterRecord, "sample_rate_hz", [1000], 0, "sample_rate_hz: must be > 0, got 0"),
    (ChapterRecord, "sample_rate_hz", [1000, 48000], 1_000_003,
     "sample_rate_hz: must be from 1000 to 48000 Hz, got 1000003"),
    (SubsetSpec, "min_bandwidth_hz", [0], -0.0001, "min_bandwidth_hz: must be >= 0, got -0.0001"),
    (SubsetSpec, "max_cer_pct", [0, INF], -0.0001, "max_cer_pct: must be >= 0, got -0.0001"),
    (SubsetSpec, "max_cer_pct", [PAST_FLOAT - 1, INF], PAST_FLOAT,
     f"max_cer_pct: must be within the float range, got {PAST_FLOAT}"),
    (SubsetSpec, "max_num_speakers", [0, INF], -1, "max_num_speakers: must be >= 0, got -1"),
    (SubsetSpec, "max_num_speakers", [PAST_FLOAT - 1, INF], PAST_FLOAT,
     f"max_num_speakers: must be within the float range, got {PAST_FLOAT}"),
    (curation.SpeakerCountRecord, "num_speakers", [0], -1, "num_speakers: must be >= 0, got -1"),
    (segmentation._Token, "start", [BIG], INF, "start: must be finite, got inf"),
    (segmentation._Token, "end", [BIG], INF, "end: must be finite, got inf"),
    (config.PipelineConfig, "target_sample_rate_hz", [1000], 0,
     "target_sample_rate_hz: must be > 0, got 0"),
    (config.PipelineConfig, "target_sample_rate_hz", [48000], PAST_FLOAT,
     f"target_sample_rate_hz: must be within the float range, got {PAST_FLOAT}"),
    (config.PipelineConfig, "target_sample_rate_hz", [1000, 22050, 44100, 48000], 999,
     "target_sample_rate_hz: must be from 1000 to 48000 Hz, got 999"),
    (config.PipelineConfig, "trim_threshold_db", [0, INF], -0.0001,
     "trim_threshold_db: must be >= 0, got -0.0001"),
    (config.PipelineConfig, "trim_threshold_db", [PAST_FLOAT - 1, INF], PAST_FLOAT,
     f"trim_threshold_db: must be within the float range, got {PAST_FLOAT}"),
    (config.PipelineConfig, "max_edge_silence_s", [0], -0.0001,
     "max_edge_silence_s: must be >= 0, got -0.0001"),
    (config.PipelineConfig, "max_edge_silence_s", [BIG], INF,
     "max_edge_silence_s: must be finite, got inf"),
    (config.PipelineConfig, "bandwidth_threshold_db", [0, -INF], 1,
     "bandwidth_threshold_db: must be <= 0, got 1"),
    (config.PipelineConfig, "bandwidth_threshold_db", [1 - PAST_FLOAT, -INF], -PAST_FLOAT,
     f"bandwidth_threshold_db: must be within the float range, got {-PAST_FLOAT}"),
    (config.PipelineConfig, "bandwidth_analysis_s", [0.0001], 0,
     "bandwidth_analysis_s: must be > 0, got 0"),
    (config.PipelineConfig, "bandwidth_analysis_s", [BIG], INF,
     "bandwidth_analysis_s: must be finite, got inf"),
    (config.PipelineConfig, "min_pause_s", [0, INF], -0.0001,
     "min_pause_s: must be >= 0, got -0.0001"),
    (config.PipelineConfig, "min_pause_s", [PAST_FLOAT - 1, INF], PAST_FLOAT,
     f"min_pause_s: must be within the float range, got {PAST_FLOAT}"),
    (config.PipelineConfig, "max_cer_pct", [0, INF], -0.0001,
     "max_cer_pct: must be >= 0, got -0.0001"),
    (config.PipelineConfig, "workers", [1], 0, "workers: must be >= 1, got 0"),
    (config.PipelineConfig, "decoder_cmd",
     [None, "cat {input}", "sh -c 'exec cat \"$0\"' {input}"], "cat {input} {output}",
     "decoder_cmd: must be a command using no placeholder but {input}, "
     "got 'cat {input} {output}'"),
    (config.PipelineConfig, "encoder_cmd",
     [None, "flac -s -f -o {output} {input}", "cp {input} x"], "cp {input} {out}",
     "encoder_cmd: must be a command using no placeholder but {input} and {output}, "
     "got 'cp {input} {out}'"),
    # A NUL ends a name in every system call.
    *((cls, name, ["raw/a b.wav"] + [None] * nullable, "a\0b",
       f"{name}: must be a path: no NUL, got 'a\\x00b'")
      for cls, nullable, names in (
          (ChapterRecord, False, ["audio_path"]), (ChapterRecord, True, ["book_text_path"]),
          (config.PipelineConfig, False, ["utterances_manifest", "chapters_manifest",
                                          "audio_root", "out_dir"]),
          (config.PipelineConfig, True, ["alignments_path", "asr_hypotheses_path",
                                         "speaker_counts_path", "predicted_pc_path",
                                         "abbreviations_path", "rules_path"]))
      for name in names),
]


def _problems(cls, name, value) -> list[str]:
    """What the reader of cls (validate_config, for the config) says of value at name."""
    obj = {**VALID[cls], name: value}
    if cls is config.PipelineConfig:
        return config.validate_config(config.PipelineConfig(**obj))
    try:
        from_typed(cls, obj)
    except ManifestError as exc:
        return [str(exc)]
    return []


@pytest.mark.parametrize("cls,name,passing,failing,message", [
    pytest.param(*row, id=f"{row[0].__name__}.{row[1]}:{row[4].split(': ')[1].split(',')[0]}")
    for row in CONDITIONS])
def test_declared_condition(cls, name, passing, failing, message):
    for value in passing:
        assert _problems(cls, name, value) == []
    assert _problems(cls, name, failing) == [message]


def test_every_declared_condition_has_one_row():
    declared = set()
    for module in (manifest, config, curation, pipeline, segmentation):
        for cls in vars(module).values():
            if isinstance(cls, type) and dataclasses.is_dataclass(cls):
                declared.update((cls, f.name, template) for f in dataclasses.fields(cls)
                                for _, template in f.metadata.get("must", ()))
    rows = [(cls, name, template) for cls, name, _, failing, message in CONDITIONS
            for c, n, template in declared
            if (c, n) == (cls, name) and message == f"{name}: {template.format(failing)}"]
    assert len(rows) == len(CONDITIONS)
    assert sorted(rows, key=str) == sorted(declared, key=str)


def test_record_error_names_first_failing_field():
    rec = make_record(offset_s=-1, wer_pct=INF)
    with pytest.raises(InvariantError, match=r"^offset_s: must be >= 0, got -1$"):
        rec.validate()


def test_subset_spec_unknown_key_rejected():
    # a misspelled gate must not silently fall back to its default (off)
    with pytest.raises(ManifestError, match="min_bandwith_hz"):
        SubsetSpec.from_json_dict({"min_bandwith_hz": 13000})


def test_chapter_unknown_key_rejected(tmp_path):
    # A misspelled book_text_path must not silently leave the chapter without text.
    path = tmp_path / "chapters.jsonl"
    path.write_text(json.dumps({"chapter_id": "ch1", "book_id": "b1", "speaker_id": "s1",
                                "audio_path": "raw/ch1.wav", "sample_rate_hz": 48000,
                                "book_txt_path": "text/ch1.txt"}) + "\n")
    with pytest.raises(ManifestError, match=r":1: unknown keys: \['book_txt_path'\]"):
        read_chapters(path)


def test_chapter_legacy_bandwidth_key_accepted(tmp_path):
    path = tmp_path / "chapters.jsonl"
    path.write_text(json.dumps({"chapter_id": "ch1", "book_id": "b1", "speaker_id": "s1",
                                "audio_path": "raw/ch1.wav", "sample_rate_hz": 48000,
                                "bandwidth_hz": 20000}) + "\n")
    assert read_chapters(path) == [ChapterRecord("ch1", "b1", "s1", "raw/ch1.wav", 48000)]


@pytest.mark.parametrize("content,message", [
    pytest.param('{"a": 1}\n\n{"b": 2}\n', ":3: missing key 'a'", id="KeyError"),
    pytest.param('{"a": "x"}\n', ":1: invalid literal", id="ValueError"),
    pytest.param('{"a": null}\n', ":1: int\\(\\) argument", id="TypeError"),
    pytest.param('{"a": 1}\n{"a": 2\n', ":2: malformed JSON", id="malformed"),
    pytest.param('[1]\n', ":1: not a JSON object", id="not-object"),
    # Python converts no integer string of more than 4300 digits.
    pytest.param('{"a": 1}\n{"a": 1' + "0" * 5000 + "}\n", ":2: Exceeds the limit",
                 id="long-number"),
    # Too deep for the JSON parser, or, where it parses, for int().
    pytest.param('{"a": ' + "[" * 5000 + "]" * 5000 + "}\n", ":1: ", id="deep"),
    # A lone surrogate escape gives a string UTF-8 cannot encode: in a value,
    # a key, or deep inside a value.
    pytest.param('{"a": 1}\n{"a": "x\\ud800"}\n',
                 ":2: not UTF-8 text: 'x\\\\ud800' holds a lone surrogate", id="surrogate"),
    pytest.param('{"a": 1, "\\udc80": 1}\n', ":1: not UTF-8 text: '\\\\udc80'",
                 id="surrogate-key"),
    pytest.param('{"a": 1, "b": [{"c": "\\uDFFF"}]}\n', ":1: not UTF-8 text: '\\\\udfff'",
                 id="surrogate-nested"),
])
def test_read_jsonl_errors_name_file_and_line(tmp_path, content, message):
    path = tmp_path / "x.jsonl"
    path.write_text(content)
    with pytest.raises(ManifestError, match=f"x.jsonl{message}"):
        read_jsonl(path, lambda obj: int(obj["a"]))


@pytest.mark.parametrize("exc,where,cls,message", [
    (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"), "f", ManifestError,
     "f: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0"),
    (json.JSONDecodeError("Expecting value", "x", 0), "f:3", ManifestError,
     "f:3: malformed JSON: Expecting value: line 1 column 1 (char 0)"),
    (FileNotFoundError(2, "No such file or directory"), "f", ManifestError,
     "f: unreadable: [Errno 2] No such file or directory"),
    (KeyError("a"), "f:3", ManifestError, "f:3: missing key 'a'"),
    (RecursionError("maximum recursion depth exceeded"), "f:3", ManifestError,
     "f:3: maximum recursion depth exceeded"),
    (TypeError("bad type"), "f:3", ManifestError, "f:3: bad type"),
    (ValueError("Exceeds the limit"), "f:3", ManifestError, "f:3: Exceeds the limit"),
    (InvariantError("x: must be finite, got inf"), "f:3", InvariantError,
     "f:3: x: must be finite, got inf"),
    (segmentation.AlignmentError("token 'a' has start > end"), "f:3",
     segmentation.AlignmentError, "f:3: token 'a' has start > end"),
], ids=["not-utf8", "malformed-json", "unreadable", "missing-key", "recursion", "type",
        "value", "invariant-kept", "alignment-kept"])
def test_input_error_names_where_and_kind(exc, where, cls, message):
    assert isinstance(exc, manifest.INPUT_FAULTS)
    error = manifest.input_error(exc, where)
    assert type(error) is cls
    assert str(error).startswith(message)


def test_read_jsonl_parses_in_order(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text('{"a": 3}\n\n{"a": 1}\n')
    assert read_jsonl(path, lambda obj: obj["a"]) == [3, 1]


def test_read_jsonl_joins_escaped_surrogate_pairs(tmp_path):
    # Two escapes of a pair are one character beyond the first 65,536.
    path = tmp_path / "x.jsonl"
    path.write_text('{"a": "\\ud83d\\ude00 \\u00e9"}\n')
    assert read_jsonl(path, lambda obj: obj["a"]) == ["\U0001f600 \u00e9"]


def test_replacing_moves_on_clean_exit_only(tmp_path):
    path = tmp_path / "out.flac"
    with replacing(path) as tmp:
        assert tmp == tmp_path / ".out.partial.flac"
        tmp.write_bytes(b"new")
    assert path.read_bytes() == b"new"
    with pytest.raises(RuntimeError):
        with replacing(path) as tmp:
            tmp.write_bytes(b"half")
            raise RuntimeError
    assert path.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["out.flac"]


class _Killed(BaseException):
    """An interruption no `except Exception` handler catches."""


def _interrupted():
    yield make_record(1)
    raise _Killed


@pytest.mark.parametrize("records,error", [
    pytest.param(_interrupted, _Killed, id="iterator-killed"),
    # Valid records, the second of which cannot be serialized: the file is
    # already being written when it fails.
    pytest.param(lambda: [make_record(1), make_record(2, extra={"x": object()})],
                 TypeError, id="unserializable"),
    # Output is strict JSON: no NaN or Infinity token, however deep.
    pytest.param(lambda: [make_record(1), make_record(2, extra={"x": [float("inf")]})],
                 InvariantError, id="non-finite"),
])
def test_interrupted_write_keeps_previous_file(tmp_path, records, error):
    path = tmp_path / "m.jsonl"
    write_manifest([make_record(0)], path)
    before = path.read_bytes()
    with pytest.raises(error):
        write_manifest(records(), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.jsonl"]


def _reads_past_the_gate(source: str) -> list[str]:
    """`line: call` for each call in Python source that opens a path for
    reading or asks whether one exists: the builtin open with a read mode
    (no mode, or one without w, a or x), os.open, or any .exists()."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and set(mode.value) & set("wax")):
                found.append(f"{node.lineno}: {ast.unparse(node)}")
        elif isinstance(func, ast.Attribute) and (
                func.attr == "exists" or ast.unparse(func) == "os.open"):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_gate_finder_sees_each_way_past_the_gate():
    source = """
open(p)
open(p, "rb")
open(p, mode=m)
os.open(p, os.O_RDONLY)
Path(p).exists()
open(p, "w")
open(p, "wb")
open(p, mode="x")
Path(p).is_file()
"""
    assert [line.split(":")[0] for line in _reads_past_the_gate(source)] == ["2", "3", "4", "5",
                                                                            "6"]


_SOURCES = sorted(Path(manifest.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", [p for p in _SOURCES if p.name != "manifest.py"],
                         ids=lambda p: p.name)
def test_inputs_are_opened_only_by_manifest(path):
    # manifest.open_input is the one check an input passes before it is
    # read, and the one place that opens one: a read or a look-up of a path
    # elsewhere would skip it (a FIFO would hang there, a name too long end
    # in a traceback). An output's own check, such as is_file(), is no read.
    assert _reads_past_the_gate(path.read_text(encoding="utf-8")) == []
