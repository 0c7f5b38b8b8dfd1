"""Output checks against the generator's plan.

`check(plan, inputs, out, exit_code)` returns a Verdict: the violations found
(any one fails the benchmark), how many input records failed (lost, or
quarantined for a reason the plan did not plant) and the share of planted
pauses whose cut missed the pause. The last two are metrics, not
violations: a known defect stays visible without blocking the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
import wave
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BANDWIDTH_TOL_HZ = 300.0   # estimate vs planted cutoff
TRIM_TOL_S = 0.03          # trimmed duration vs planted speech plus kept edges
LENGTH_TOL_S = 1.5e-4      # WAV length vs durations rounded to 4 decimals, twice
MAX_EDGE_SILENCE_S = 0.5


@dataclass
class Verdict:
    violations: list[str] = field(default_factory=list)
    failed: int = 0
    planted_cuts: int = 0
    misplaced_cuts: int = 0

    @property
    def misplaced_cut_frac(self) -> float:
        return self.misplaced_cuts / self.planted_cuts if self.planted_cuts else 0.0


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def file_hashes(root: Path) -> dict[str, str]:
    """sha256 of every file under root, by relative path."""
    out = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _wav_seconds(path: Path) -> float:
    with wave.open(str(path), "rb") as fh:
        return fh.getnframes() / fh.getframerate()


def _origin(uid: str, inputs: set[str]) -> str:
    return uid if uid in inputs or uid[-2:] not in ("_a", "_b") else uid[:-2]


def check(plan: dict, inputs: Path, out: Path, exit_code: int) -> Verdict:
    """Check one run's outputs in `out`, made from the generated `inputs`."""
    try:
        if plan["workload"] == "curate_manifest":
            return _check_curate(plan, Path(inputs) / "final.jsonl", Path(out), exit_code)
        return _check_pipeline(plan, Path(out), exit_code)
    except (OSError, ValueError, KeyError) as exc:
        # unreadable, malformed or incomplete output fails every record
        failed = plan["input_records"]
        return Verdict([f"output unreadable: {exc.__class__.__name__}: {exc}"], failed)


def _check_pipeline(plan: dict, out: Path, exit_code: int) -> Verdict:
    v = Verdict()
    inputs = plan["inputs"]
    input_set = set(inputs)
    if exit_code != plan["expected_exit"]:
        v.violations.append(f"exit code {exit_code}, expected {plan['expected_exit']}")
        v.failed = len(inputs)
        return v
    failed: set[str] = set()
    prev = inputs
    manifests: dict[str, dict[str, dict]] = {}   # stage -> output records by id
    reached: dict[str, set[str]] = {}            # stage -> ids of its input records
    for index, stage in enumerate(plan["stages"]):
        man_path = out / f"manifest.{index:02d}_{stage}.jsonl"
        report_path = out / f"report.{stage}.json"
        if not man_path.exists() or not report_path.exists():
            v.violations.append(f"{stage}: manifest or report missing")
            v.failed = len(inputs)
            return v
        kept = read_jsonl(man_path)
        rejects_path = out / f"rejects.{stage}.jsonl"
        rejected = {r["utterance_id"] for r in read_jsonl(rejects_path)} \
            if rejects_path.exists() else set()
        report = json.loads(report_path.read_text(encoding="utf-8"))
        split_parents = report.get("extras", {}).get("split_parents", 0)
        if (report["records_in"] != len(prev) or report["records_out"] != len(kept)
                or report["records_dropped"] != len(rejected)):
            v.violations.append(f"{stage}: report counts disagree with the files")
        if report["records_out"] != (report["records_in"] - report["records_dropped"]
                                     + split_parents):
            v.violations.append(f"{stage}: records_out != records_in - dropped + split_parents")
        kept_ids = [r["utterance_id"] for r in kept]
        if kept_ids != sorted(kept_ids):
            v.violations.append(f"{stage}: manifest not sorted by utterance_id")
        kept_set = set(kept_ids)

        planted = {}
        for uid in prev:
            for exp in (plan["records"].get(uid, {}), plan["finals"].get(uid, {})):
                if exp.get("reject", [None])[0] == stage:
                    planted[uid] = exp["reject"][1]
        for uid, reason in sorted(planted.items()):
            if uid not in rejected:
                v.violations.append(f"{stage}: {uid} not rejected as {reason}")
        for reason, n in Counter(planted.values()).items():
            if report["drop_reasons"].get(reason, 0) < n:
                v.violations.append(f"{stage}: fewer than {n} records dropped as {reason}")
        for uid in rejected - set(planted):
            failed.add(_origin(uid, input_set))
        for uid in prev:
            if uid not in rejected and uid not in kept_set and not (
                    stage == "segment" and {uid + "_a", uid + "_b"} <= kept_set):
                v.violations.append(f"{stage}: {uid} lost")
                failed.add(_origin(uid, input_set))
        manifests[stage] = {r["utterance_id"]: r for r in kept}
        reached[stage] = set(prev)
        prev = kept_ids

    _check_text(plan, manifests, v)
    _check_audio(plan, manifests, out, v)
    _check_segment(plan, manifests, reached.get("segment", set()), out, v)
    _check_finals(plan, manifests, v)
    if plan["workload"] == "full_corpus":
        final = out / f"manifest.{len(plan['stages']) - 1:02d}_{plan['stages'][-1]}.jsonl"
        _check_tail(plan, final, out, v)
    v.failed = len(failed)
    return v


def _check_text(plan, manifests, v: Verdict) -> None:
    for uid, rec in manifests.get("text", {}).items():
        exp = plan["records"][uid]
        if rec.get("text_source") != exp["text_source"]:
            v.violations.append(f"text: {uid} text_source {rec.get('text_source')}")
        if rec.get("text") != exp["text"]:
            v.violations.append(f"text: {uid} restored text differs from the book")


def _check_audio(plan, manifests, out: Path, v: Verdict) -> None:
    for uid, rec in manifests.get("audio", {}).items():
        exp = plan["records"][uid]
        path = out / rec["audio_path"]
        if not path.exists():
            v.violations.append(f"audio: {uid} file missing")
            continue
        if abs(_wav_seconds(path) - rec["duration_s"]) > LENGTH_TOL_S:
            v.violations.append(f"audio: {uid} file length differs from duration_s")
        want = (min(exp["lead_s"], MAX_EDGE_SILENCE_S) + exp["speech_s"]
                + min(exp["trail_s"], MAX_EDGE_SILENCE_S))
        if abs(rec["duration_s"] - want) > TRIM_TOL_S:
            v.violations.append(f"audio: {uid} trimmed to {rec['duration_s']} s, "
                                f"expected {want:.4f} s")
    for uid, rec in manifests.get("bandwidth", {}).items():
        cutoff = plan["chapters"][rec["chapter_id"]]["cutoff_hz"]
        if abs(rec["bandwidth_hz"] - cutoff) > BANDWIDTH_TOL_HZ:
            v.violations.append(f"bandwidth: {uid} estimated {rec['bandwidth_hz']} Hz, "
                                f"planted {cutoff} Hz")


def _check_segment(plan, manifests, reached: set[str], out: Path, v: Verdict) -> None:
    if "segment" not in manifests:
        return
    after = manifests["segment"]
    trimmed = "audio" in manifests
    for uid, exp in plan["records"].items():
        if uid not in reached:
            continue
        a, b = after.get(uid + "_a"), after.get(uid + "_b")
        split = exp.get("split")
        if split is None:
            if a or b:
                v.violations.append(f"segment: {uid} split without a planted pause")
            continue
        v.planted_cuts += 1
        if uid in after:
            v.violations.append(f"segment: {uid} not split at its planted pause")
        if not (a and b):
            v.misplaced_cuts += 1
            continue
        if [a.get("text"), b.get("text")] != split["texts"]:
            v.violations.append(f"segment: {uid} split texts differ from the plan")
        # the pause in the output audio's time base: trimming removed
        # everything but MAX_EDGE_SILENCE_S of the leading silence
        shift = max(0.0, exp["lead_s"] - MAX_EDGE_SILENCE_S) if trimmed else 0.0
        cut = a["duration_s"]
        p0, p1 = split["pause"]
        if not p0 - shift <= cut <= p1 - shift:
            v.misplaced_cuts += 1
    if trimmed:
        by_file: dict[str, list[dict]] = {}
        for rec in after.values():
            by_file.setdefault(rec["audio_path"], []).append(rec)
        for path, recs in by_file.items():
            recs.sort(key=lambda r: r["offset_s"])
            ends = [r["offset_s"] + r["duration_s"] for r in recs]
            starts = [r["offset_s"] for r in recs]
            if (abs(starts[0]) > LENGTH_TOL_S or any(abs(e - s) > LENGTH_TOL_S for e, s
                                                     in zip(ends, starts[1:]))
                    or abs(ends[-1] - _wav_seconds(out / path)) > LENGTH_TOL_S):
                v.violations.append(f"segment: records on {path} do not tile the file")


def _check_finals(plan, manifests, v: Verdict) -> None:
    for uid, rec in manifests.get("validate", {}).items():
        exp = plan["finals"][uid]
        if rec.get("wer_pct") != exp["wer_pct"] or not rec.get("cer_pct", 1e9) < 100.0:
            v.violations.append(f"validate: {uid} wer {rec.get('wer_pct')}, "
                                f"expected {exp['wer_pct']}")
    for uid, rec in manifests.get("speakers", {}).items():
        if rec.get("num_speakers") != plan["finals"][uid]["num_speakers"]:
            v.violations.append(f"speakers: {uid} num_speakers {rec.get('num_speakers')}")


def _passes(rec: dict, spec: dict) -> bool:
    return (rec["bandwidth_hz"] >= spec["min_bandwidth_hz"]
            and rec["cer_pct"] < spec["max_cer_pct"]
            and rec["num_speakers"] <= spec["max_num_speakers"])


def _check_tail(plan, manifest: Path, out: Path, v: Verdict) -> list[dict]:
    """stats.json and subset.jsonl against the manifest they were made from."""
    lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
    records = [json.loads(line) for line in lines]
    want = "".join(line for line, rec in zip(lines, records)
                   if _passes(rec, plan["subset_spec"]))
    subset = out / "subset.jsonl"
    if not subset.exists() or subset.read_text(encoding="utf-8") != want:
        v.violations.append("subset.jsonl differs from the filtered manifest")
    try:
        stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        v.violations.append("stats.json missing or unreadable")
        return records
    hours = sum(r["duration_s"] for r in records) / 3600.0
    if (stats["utterance_count"] != len(records)
            or stats["speaker_count"] != len({r["speaker_id"] for r in records})
            or not math.isclose(stats["total_hours"], hours, rel_tol=1e-6, abs_tol=1e-6)):
        v.violations.append("stats.json totals differ from the manifest")
    return records


def _check_curate(plan: dict, manifest: Path, out: Path, exit_code: int) -> Verdict:
    v = Verdict()
    if exit_code != plan["expected_exit"]:
        v.violations.append(f"exit code {exit_code}, expected {plan['expected_exit']}")
        v.failed = plan["input_records"]
        return v
    records = _check_tail(plan, manifest, out, v)
    if len(records) != plan["input_records"]:
        v.violations.append("input manifest changed")
        v.failed = plan["input_records"]
        return v
    try:
        splits = json.loads((out / "splits.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        v.violations.append("splits.json missing or unreadable")
        return v
    by_id = {r["utterance_id"]: r for r in records}
    dev, test = splits.get("dev_seen", []), splits.get("test_seen", [])
    held = set(dev) | set(test)
    if len(dev) != 1000 or len(test) != 1000 or len(held) != 2000:
        v.violations.append("dev_seen/test_seen are not two disjoint sets of 1000")
    for name, ids in (("dev_seen", dev), ("test_seen", test)):
        per_speaker = Counter(by_id[i]["speaker_id"] for i in ids if i in by_id)
        if len(per_speaker) != 50 or set(per_speaker.values()) != {20}:
            v.violations.append(f"{name}: not 20 utterances from each of 50 speakers")
        if not all(i in by_id and by_id[i]["bandwidth_hz"] >= 13000
                   and by_id[i]["wer_pct"] == 0.0 and by_id[i]["num_speakers"] == 1
                   for i in ids):
            v.violations.append(f"{name}: holds an ineligible utterance")
    if splits.get("train") != [r["utterance_id"] for r in records
                               if r["utterance_id"] not in held]:
        v.violations.append("train is not every other utterance in input order")
    return v
