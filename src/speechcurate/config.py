"""Pipeline configuration: a single declarative YAML document per run."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from numbers import Integral, Real
from pathlib import Path

import yaml

# Canonical stage execution order; enabled stages always run in this order.
STAGE_ORDER = ("text", "audio", "bandwidth", "segment", "validate", "speakers")


@dataclass
class PipelineConfig:
    # inputs
    utterances_manifest: str = "utterances.jsonl"
    chapters_manifest: str = "chapters.jsonl"
    alignments_path: str | None = None       # JSONL keyed by utterance_id
    asr_hypotheses_path: str | None = None   # JSONL {utterance_id, hyp_text}
    speaker_counts_path: str | None = None   # JSONL {utterance_id, num_speakers}
    predicted_pc_path: str | None = None     # JSONL {utterance_id, text}
    audio_root: str = "."
    # outputs
    out_dir: str = "out"
    # stages (subset of STAGE_ORDER)
    stages: list[str] = field(default_factory=lambda: list(STAGE_ORDER))
    # thresholds, defaults per the published pipeline
    target_sample_rate_hz: int = 44100
    trim_threshold_db: float = 50.0
    max_edge_silence_s: float = 0.5
    bandwidth_threshold_db: float = -50.0
    bandwidth_analysis_s: float = 30.0
    min_pause_s: float = 0.08
    max_cer_pct: float = 100.0
    # runtime
    workers: int = 1
    seed: int = 0
    decoder_cmd: str | None = None  # e.g. "ffmpeg -i {input} -f wav -" for MP3 input
    encoder_cmd: str | None = None  # e.g. "flac -s -f -o {output} {input}"
    abbreviations_path: str | None = None
    rules_path: str | None = None

    @classmethod
    def from_yaml(cls, path: str | Path) -> "PipelineConfig":
        data = yaml.safe_load(Path(path).read_text(encoding="utf-8")) or {}
        if not isinstance(data, dict):
            raise ValueError(
                f"{path}: must be a mapping of config keys, got {type(data).__name__}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def to_yaml(self, path: str | Path) -> None:
        Path(path).write_text(
            yaml.safe_dump(asdict(self), sort_keys=False), encoding="utf-8"
        )


_INT_FIELDS = ("target_sample_rate_hz", "workers", "seed")
_REAL_FIELDS = ("trim_threshold_db", "max_edge_silence_s", "bandwidth_threshold_db",
                "bandwidth_analysis_s", "min_pause_s", "max_cer_pct")
_STR_FIELDS = ("utterances_manifest", "chapters_manifest", "audio_root", "out_dir")
_OPTIONAL_STR_FIELDS = ("alignments_path", "asr_hypotheses_path", "speaker_counts_path",
                        "predicted_pc_path", "abbreviations_path", "rules_path",
                        "decoder_cmd", "encoder_cmd")


def validate_config(config: PipelineConfig) -> list[str]:
    """Empty list iff every invariant holds; messages name field and constraint."""
    problems = []
    # A bool is an int to Python, but `workers: true` is a mistake. NaN passes
    # every bound below (each comparison is false), so it is not a number here.
    for names, kind, what in ((_INT_FIELDS, Integral, "an integer"),
                              (_REAL_FIELDS, Real, "a number"),
                              (_STR_FIELDS, str, "a string"),
                              (_OPTIONAL_STR_FIELDS, (str, type(None)), "a string or null")):
        for name in names:
            value = getattr(config, name)
            if (not isinstance(value, kind) or isinstance(value, bool)
                    or kind is Real and math.isnan(value)):
                problems.append(f"{name}: must be {what}, got {value!r}")
    if problems:
        return problems
    for name in ("trim_threshold_db", "max_edge_silence_s", "min_pause_s", "max_cer_pct"):
        value = getattr(config, name)
        if value < 0:
            problems.append(f"{name}: must be >= 0, got {value}")
    for name in ("target_sample_rate_hz", "bandwidth_analysis_s"):
        value = getattr(config, name)
        if value <= 0:
            problems.append(f"{name}: must be > 0, got {value}")
    if config.bandwidth_threshold_db > 0:
        problems.append(
            f"bandwidth_threshold_db: must be <= 0, got {config.bandwidth_threshold_db}")
    if config.workers < 1:
        problems.append(f"workers: must be >= 1, got {config.workers}")
    if not isinstance(config.stages, list) or not all(
            isinstance(s, str) for s in config.stages):
        problems.append(f"stages: must be a list of stage names, got {config.stages!r}")
    else:
        unknown = [s for s in config.stages if s not in STAGE_ORDER]
        if unknown:
            problems.append(f"stages: unknown stage names {unknown}")
    return problems
