"""One repetition of a workload, in a fresh interpreter.

    python3 child.py JOB.json

The job names the source tree, the workload's config files, the output
directory, whether to trace, and where to write the result. The child
imports speechcurate, loads and validates the config, and records the
moment it is ready (on the system-wide monotonic clock, so the parent can
time set-up from the spawn). It then runs the workload through the library
API and exits with the pipeline's exit code: 0 ok, 1 config error, 2 stage
failure, 3 partial.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _usage() -> tuple[float, int]:
    """CPU seconds of this process and its children, and peak RSS in KiB
    (this process plus the largest child)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, own.ru_maxrss + kids.ru_maxrss


def _tail(manifest, curation, records, spec, out: Path, split_seed) -> None:
    """What `speechcurate stats`, `subset` and (given a seed) `splits` write."""
    stats = curation.corpus_stats(records)
    (out / "stats.json").write_text(
        json.dumps(stats.to_json_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    manifest.write_manifest(curation.build_subset(records, spec), out / "subset.jsonl")
    if split_seed is not None:
        plans = curation.sample_eval_splits(records, rng_seed=split_seed)
        payload = {name: list(plan.utterance_ids) for name, plan in plans.items()}
        (out / "splits.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    t0 = time.perf_counter()
    from speechcurate import config as configlib
    from speechcurate import curation, manifest, pipeline
    t1 = time.perf_counter()
    config = None
    if job["config"]:
        config = configlib.PipelineConfig.from_yaml(job["config"])
        problems = configlib.validate_config(config)
        if problems:
            print("config error: " + "; ".join(problems), file=sys.stderr)
            return pipeline.EXIT_CONFIG_ERROR
    spec = None
    if job["spec"]:
        spec = manifest.SubsetSpec.from_json_dict(
            json.loads(Path(job["spec"]).read_text(encoding="utf-8")))
    t2 = time.perf_counter()
    ready_at = time.monotonic()
    setup = {"import_s": t1 - t0, "config_s": t2 - t1, "ready_at": ready_at}
    if job["setup_only"]:
        Path(job["result"]).write_text(json.dumps(setup) + "\n", encoding="utf-8")
        return 0

    tracer = None
    if job["trace"]:
        import tracer as tracerlib

        tracer = tracerlib.Tracer()
        tracerlib.install(tracer)
    out = Path(job["out"])
    out.mkdir(parents=True, exist_ok=True)
    cpu0, _ = _usage()
    w0 = time.perf_counter()
    exit_code = pipeline.EXIT_OK
    try:
        if config is not None:
            result = pipeline.run_pipeline(config)
            exit_code = result.exit_code
            if job["tail"]:
                records = manifest.read_manifest(result.final_manifest)
                _tail(manifest, curation, records, spec, out, None)
        else:
            records = manifest.read_manifest(job["manifest"])
            _tail(manifest, curation, records, spec, out, job["split_seed"])
    except pipeline.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        exit_code = pipeline.EXIT_CONFIG_ERROR
    except pipeline.StageError as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        exit_code = pipeline.EXIT_STAGE_FAILURE
    w1 = time.perf_counter()
    cpu1, peak_kib = _usage()
    if tracer is not None:
        tracer.restore()
        tracer.dump(job["spans"])
    Path(job["result"]).write_text(json.dumps({
        **setup, "wall_s": w1 - w0, "cpu_s": cpu1 - cpu0, "peak_rss_mb": peak_kib / 1024.0,
    }) + "\n", encoding="utf-8")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
