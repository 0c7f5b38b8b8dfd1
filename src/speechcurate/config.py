"""Pipeline configuration: a single declarative YAML document per run."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .audio import command
from .manifest import (ABOVE_0, AT_LEAST_0, AT_LEAST_1, AT_MOST_0, FINITE, IN_FLOAT_RANGE,
                       INPUT_FAULTS, NO_NUL, SAMPLE_RATE, ConfigError, check_encodable,
                       field_problems, input_error, must, read_text, schema_of, type_problems)

# The stages that run as one pass over each chapter (pipeline._chapter_stages).
CHAPTER_STAGES = ("text", "audio", "bandwidth")
# Canonical stage execution order; enabled stages always run in this order.
STAGE_ORDER = (*CHAPTER_STAGES, "segment", "validate", "speakers")


def _command(*placeholders: str) -> tuple:
    """The condition that a value is a command its stage can run: it holds no
    NUL, and audio.command, which makes the argv the stage runs, makes one
    of at least one word from it with no placeholder but these."""
    def runnable(cmd: str) -> bool:
        if "\0" in cmd:  # no argument of a process can hold one
            return False
        try:  # the argv the stage would run, with each placeholder's value "x"
            return bool(command(cmd, **dict.fromkeys(placeholders, "x")))
        except (ValueError, LookupError, AttributeError, TypeError):
            return False

    # "{{input}}": the message is formatted with the value, which gives "{input}".
    names = " and ".join(f"{{{{{name}}}}}" for name in placeholders)
    return runnable, f"must be a command using no placeholder but {names}, got {{!r}}"


@dataclass
class PipelineConfig:
    # inputs
    utterances_manifest: str = must(NO_NUL, default="utterances.jsonl")
    chapters_manifest: str = must(NO_NUL, default="chapters.jsonl")
    # side inputs, JSONL keyed by utterance_id
    alignments_path: str | None = must(NO_NUL, default=None)
    asr_hypotheses_path: str | None = must(NO_NUL, default=None)  # {utterance_id, hyp_text}
    speaker_counts_path: str | None = must(NO_NUL, default=None)  # {utterance_id, num_speakers}
    predicted_pc_path: str | None = must(NO_NUL, default=None)    # {utterance_id, text}
    audio_root: str = must(NO_NUL, default=".")
    # outputs
    out_dir: str = must(NO_NUL, default="out")
    # stages (subset of STAGE_ORDER)
    stages: list[str] = field(default_factory=lambda: list(STAGE_ORDER))
    # thresholds, defaults per the published pipeline; the two windows that
    # become sample counts must be finite, and a value a stage turns into a
    # float must fit in one
    target_sample_rate_hz: int = must(ABOVE_0, IN_FLOAT_RANGE, SAMPLE_RATE, default=44100)
    trim_threshold_db: float = must(AT_LEAST_0, IN_FLOAT_RANGE, default=50.0)
    max_edge_silence_s: float = must(AT_LEAST_0, FINITE, default=0.5)
    bandwidth_threshold_db: float = must(AT_MOST_0, IN_FLOAT_RANGE, default=-50.0)
    bandwidth_analysis_s: float = must(ABOVE_0, FINITE, default=30.0)
    min_pause_s: float = must(AT_LEAST_0, IN_FLOAT_RANGE, default=0.08)
    max_cer_pct: float = must(AT_LEAST_0, default=100.0)
    # runtime
    workers: int = must(AT_LEAST_1, default=1)
    seed: int = 0
    # e.g. "ffmpeg -i {input} -f wav -" for MP3 input
    decoder_cmd: str | None = must(_command("input"), default=None)
    # e.g. "flac -s -f -o {output} {input}"
    encoder_cmd: str | None = must(_command("input", "output"), default=None)
    abbreviations_path: str | None = must(NO_NUL, default=None)
    rules_path: str | None = must(NO_NUL, default=None)

    @classmethod
    def from_yaml(cls, path: str | Path) -> "PipelineConfig":
        """The config the YAML file at path holds; each fault is a ConfigError.
        Its values are type-checked later, by validate_config."""
        text = read_text(path)
        try:
            data = yaml.safe_load(text) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: malformed YAML: {exc}") from exc
        except INPUT_FAULTS as exc:  # a number too long to convert, nesting too deep
            raise input_error(exc, path) from exc
        if not isinstance(data, dict):
            raise ConfigError(
                f"{path}: must be a mapping of config keys, got {type(data).__name__}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:  # YAML keys need not be strings
            raise ConfigError(f"unknown config keys: {sorted(unknown, key=str)}")
        # Walked after the key check, so an unknown key is named first; the
        # walk refuses a value a YAML alias repeats, which no later check
        # could walk.
        try:
            check_encodable(data)
        except INPUT_FAULTS as exc:  # a repeated value, a surrogate, nesting too deep
            raise input_error(exc, path) from exc
        return cls(**data)


_SCHEMA = schema_of(PipelineConfig)


def validate_config(config: PipelineConfig) -> list[str]:
    """Empty list iff every invariant holds; messages name field and constraint.
    A wrong type is listed alone; else each field that fails a condition it
    declares (manifest.field_problems), in field order, then the stages."""
    if problems := type_problems(vars(config), _SCHEMA):
        return problems
    problems = field_problems(config)
    if not isinstance(config.stages, list) or not all(
            isinstance(s, str) for s in config.stages):
        problems.append(f"stages: must be a list of stage names, got {config.stages!r}")
    else:
        unknown = [s for s in config.stages if s not in STAGE_ORDER]
        if unknown:
            problems.append(f"stages: unknown stage names {unknown}")
    return problems
