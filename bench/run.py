"""speechcurate benchmark: seeded synthetic corpora, checked outputs, metrics.

    python3 bench/run.py --workload book_text --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --seconds 50        # every workload, one after another

A run generates the workload's inputs from the seed, makes one untimed
reference run at the other worker count, then repeats the workload in
fresh interpreters for --seconds. Every repetition must exit with the
expected code and write byte-identical outputs to the reference run, whose
outputs are checked against the generator's plan (see check.py).

--trace 0 reports the end-to-end metrics (medians over repetitions).
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics from the traced ones (see tracer.py).

The last line of standard output is one JSON object: correct, attempted
and failed (input records over all runs; a record fails when it is lost or
quarantined for a reason the generator did not plant) and the metrics.
The exit code is 0 when every check passed, 1 when one failed, 2 when the
source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import check
import gen
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_TIMED_REPS = 3
MIN_SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 60.0

END_TO_END = [  # name, unit, better
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("audio_s_per_cpu_s", "s/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("kept_frac", "frac", "higher"),
]


def _per_layer() -> list[tuple[str, str, str]]:
    rows = []
    for stage in gen.STAGE_ORDER:
        rows += [(f"pipeline.stage.{stage}.s", "s", "lower"),
                 (f"pipeline.stage.{stage}.busy_frac", "frac", "higher")]
    rows.append(("pipeline.other.s", "s", "lower"))
    stats = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
             "matched_frac": ("frac", "higher"), "chapter_chars": ("count", "lower"),
             "cells": ("count", "lower"), "bytes": ("B", "lower"),
             "samples_in": ("count", "lower"), "removed_s": ("s", "higher"),
             "frames": ("count", "lower"), "split_frac": ("frac", "higher"),
             "records": ("count", "higher")}
    for fn, names in LAYER_STATS.items():
        rows += [(f"{fn}.{stat}", *stats[stat]) for stat in names]
    rows += [("setup.import_s", "s", "lower"), ("setup.config_s", "s", "lower"),
             ("trace.overhead_frac", "frac", "lower"),
             ("failed_frac", "frac", "lower"), ("misplaced_cut_frac", "frac", "lower")]
    return rows


LAYER_STATS = {
    "textproc.match_transcript": ["calls", "self_s", "matched_frac", "chapter_chars"],
    "textproc.strip_pc": ["self_s"],
    "textproc.levenshtein": ["calls", "self_s", "cells"],
    "textproc.normalize_spoken": ["self_s"],
    "textproc.clean_formatting": ["self_s"],
    "audio.load_pcm": ["calls", "self_s", "bytes"],
    "audio.mixdown": ["self_s"],
    "audio.resample": ["calls", "self_s", "samples_in"],
    "audio.trim_silence": ["self_s", "removed_s"],
    "audio.save_pcm": ["self_s", "bytes"],
    "bandwidth.mean_power_spectrum": ["calls", "self_s", "frames"],
    "segmentation.load_alignments_jsonl": ["self_s"],
    "segmentation.find_candidate_pauses": ["self_s"],
    "segmentation.apply_split": ["split_frac"],
    "manifest.read_manifest": ["self_s", "records"],
    "manifest.write_manifest": ["self_s", "records", "bytes"],
    "curation.apply_speaker_counts": ["self_s"],
    "curation.corpus_stats": ["self_s"],
    "curation.build_subset": ["self_s"],
    "curation.sample_eval_splits": ["self_s"],
}
PER_LAYER = _per_layer()
# ratio stats: the count summed over calls, divided by the number of calls
_RATIOS = {"matched_frac": "matched", "split_frac": "split"}


@dataclass
class Rep:
    exit_code: int
    setup_s: float | None
    result: dict | None
    hashes: dict[str, str]
    traced: bool
    summary: dict | None = None


def _run_child(work: Path, name: str, job: dict) -> Rep:
    """Run child.py on `job` in a fresh interpreter, from the generated inputs."""
    rep_dir = work / name
    rep_dir.mkdir()
    job = {**job, "out": str(rep_dir / "out"), "result": str(rep_dir / "result.json"),
           "spans": str(rep_dir / "spans.jsonl")}
    if job.get("pipeline_config"):
        config = {**job.pop("pipeline_config"), "out_dir": job["out"]}
        job["config"] = str(rep_dir / "config.yaml")
        Path(job["config"]).write_text(json.dumps(config) + "\n", encoding="utf-8")
    job_path = rep_dir / "job.json"
    job_path.write_text(json.dumps(job) + "\n", encoding="utf-8")
    with open(rep_dir / "stderr.txt", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(job_path)],
                                stdout=subprocess.DEVNULL, stderr=err, cwd=work / "in")
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = -9
    result_path = Path(job["result"])
    result = json.loads(result_path.read_text()) if result_path.exists() else None
    setup_s = result["ready_at"] - spawned if result else None
    hashes = check.file_hashes(rep_dir / "out") if (rep_dir / "out").exists() else {}
    summary = None
    if job["trace"] and Path(job["spans"]).exists():
        summary = tracer.summarize(tracer.load(job["spans"]))
    return Rep(code, setup_s, result, hashes, job["trace"], summary)


def _jobs(name: str, plan: dict, inputs: Path) -> dict:
    spec = gen.WORKLOADS[name]
    job = {"src": str(SRC), "config": None, "setup_only": False, "trace": False,
           "tail": spec["tail"], "manifest": None, "split_seed": None,
           "spec": str(inputs / "subset_spec.json") if spec["tail"] else None}
    if spec["kind"] == "pipeline":
        job["pipeline_config"] = gen.pipeline_config(name)
    else:
        job.update(manifest=str(inputs / "final.jsonl"), split_seed=plan["split_seed"])
    return job


def _layer_metrics(rep: Rep, untraced_wall: float, workers: int) -> dict[str, float]:
    s = rep.summary or {}
    wall = rep.result["wall_s"]
    out: dict[str, float] = {}
    covered = 0.0
    for stage in gen.STAGE_ORDER:
        row = s.get(f"pipeline.stage.{stage}", {})
        dur = row.get("total_s", 0.0)
        covered += dur
        out[f"pipeline.stage.{stage}.s"] = dur
        out[f"pipeline.stage.{stage}.busy_frac"] = (
            row["child_cpu_s"] / (dur * workers) if dur else 0.0)
    out["pipeline.other.s"] = wall - covered
    for fn, stats in LAYER_STATS.items():
        row = s.get(fn, {})
        for stat in stats:
            if stat in _RATIOS:
                calls = row.get("calls", 0)
                out[f"{fn}.{stat}"] = row.get(_RATIOS[stat], 0) / calls if calls else 0.0
            else:
                out[f"{fn}.{stat}"] = row.get(stat, 0.0)
    out["trace.overhead_frac"] = wall / untraced_wall - 1.0
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = gen.WORKLOADS[name]
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(name, spec, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def _measure(name, spec, seed, seconds, trace, work: Path) -> dict:
    inputs = work / "in"
    plan = gen.generate(name, seed, inputs)
    os.sync()  # write the inputs back now rather than during the timed window
    base = _jobs(name, plan, inputs)
    violations: list[str] = []

    # Reference run at the other worker count: untimed, it also warms the
    # bytecode and page caches. Its outputs are the ones checked in depth.
    other = {**base}
    if "pipeline_config" in other:
        other["pipeline_config"] = {**other["pipeline_config"],
                                    "workers": 1 if spec["workers"] > 1 else 2}
    ref = _run_child(work, "ref", other)
    verdict = check.check(plan, inputs, work / "ref" / "out", ref.exit_code)
    violations += verdict.violations
    shutil.rmtree(work / "ref" / "out", ignore_errors=True)

    # Repetitions fill the window: a new one starts while at least half of
    # one more (as long as the last) still fits, so on average the run ends
    # on time, and past the window while the minimum count is missing,
    # until a hung child would push the run past its deadline.
    reps: list[Rep] = []
    start, last_s = time.monotonic(), 0.0
    min_plain = 1 if trace else MIN_TIMED_REPS
    while True:
        elapsed = time.monotonic() - start
        missing = (sum(not r.traced for r in reps) < min_plain
                   or (trace and not any(r.traced for r in reps)))
        if not (missing and elapsed < seconds + CHILD_TIMEOUT_S
                or elapsed + last_s / 2 <= seconds):
            break
        began = time.monotonic()
        traced = trace and len(reps) % 2 == 1
        rep = _run_child(work, f"rep{len(reps)}", {**base, "trace": traced})
        shutil.rmtree(work / f"rep{len(reps)}" / "out", ignore_errors=True)
        reps.append(rep)
        last_s = time.monotonic() - began
    setups = [r.setup_s for r in reps if r.setup_s is not None]
    while len(setups) < MIN_SETUP_SAMPLES:
        rep = _run_child(work, f"setup{len(setups)}", {**base, "setup_only": True})
        if rep.exit_code != 0 or rep.setup_s is None:
            violations.append(f"set-up run exited with {rep.exit_code}")
            break
        setups.append(rep.setup_s)

    n_inputs = plan["input_records"]
    attempted = n_inputs * (1 + len(reps))
    failed = verdict.failed
    for i, rep in enumerate(reps):
        if rep.exit_code != plan["expected_exit"] or rep.result is None:
            violations.append(f"repetition {i} exited with {rep.exit_code}, "
                              f"expected {plan['expected_exit']}")
            failed += n_inputs
            continue
        failed += verdict.failed
        if rep.hashes != ref.hashes:
            diff = sorted(k for k in set(rep.hashes) | set(ref.hashes)
                          if rep.hashes.get(k) != ref.hashes.get(k))
            violations.append(f"repetition {i} outputs differ from the reference run "
                              f"(workers {spec['workers']} vs other): {diff[:3]}")

    done = [r for r in reps if r.result is not None and "wall_s" in r.result]
    plain = [r for r in done if not r.traced]
    if not plain or (trace and len(plain) == len(done)):
        _print_violations(name, violations + ["no repetition completed"])
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
    wall = statistics.median(r.result["wall_s"] for r in plain)
    if trace:
        layers = [_layer_metrics(r, wall, spec["workers"]) for r in done if r.traced]
        values = {metric: statistics.median(row[metric] for row in layers)
                  for metric in layers[0]}
        values.update({
            "setup.import_s": statistics.median(r.result["import_s"] for r in done),
            "setup.config_s": statistics.median(r.result["config_s"] for r in done),
            "failed_frac": verdict.failed / n_inputs,
            "misplaced_cut_frac": verdict.misplaced_cut_frac,
        })
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "audio_s_per_cpu_s": plan["input_audio_s"]
            / statistics.median(r.result["cpu_s"] for r in plain),
            "peak_rss_mb": statistics.median(r.result["peak_rss_mb"] for r in plain),
            "kept_frac": 1.0 - verdict.failed / n_inputs,
        }
        units = END_TO_END
    metrics = {metric: {"value": values[metric], "unit": unit} for metric, unit, _ in units}
    _print_violations(name, violations)
    walls = sorted(round(r.result["wall_s"], 3) for r in plain)
    print(f"{name}: seed {seed}, {len(plain)} timed repetitions (wall_s {walls}), "
          f"{len(done) - len(plain)} traced, {len(setups)} set-up samples "
          f"(median of {[round(x, 3) for x in sorted(setups)]})", file=sys.stderr)
    return {"correct": not violations, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _print_violations(name: str, violations: list[str]) -> None:
    for message in violations[:20]:
        print(f"{name}: CHECK FAILED: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(gen.WORKLOADS),
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "speechcurate" / "__init__.py").is_file():
        print(f"source tree not found: {SRC / 'speechcurate'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(gen.WORKLOADS)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:<16} {metric:<44} {m['value']:>14.6g} {m['unit']}")
    if args.workload:
        summary = results[args.workload]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": m for name, r in results.items()
                        for metric, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
