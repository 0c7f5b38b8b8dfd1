"""Command-line entry points.

Exit codes: 0 success, 1 config or usage error, 2 stage failure, 3 partial
(rejected records present); `_Main` maps errors to 1 and 2.
"""

from __future__ import annotations

import json
import logging
import sys
import tempfile
from pathlib import Path

import click

from . import curation
from .config import STAGE_ORDER, PipelineConfig
from .manifest import (INPUT_FAULTS, ConfigError, SubsetSpec, input_error, read_manifest,
                       read_text, replacing, write_manifest, writing)
from .pipeline import EXIT_CONFIG_ERROR, EXIT_STAGE_FAILURE, StageError, run_pipeline


_IN_FILE = click.Path(exists=True, dir_okay=False)
_OUT_FILE = click.Path(dir_okay=False)


def _writable(ctx, param, path: str | None) -> str | None:
    """The output path, once a file can be made in its directory and removed
    again: checked as the options are parsed, before any manifest is read."""
    if path is not None:
        with writing(path), tempfile.TemporaryFile(dir=Path(path).parent):
            pass
    return path


class _Main(click.Group):
    def make_context(self, *args, **kwargs):
        try:  # the group's own arguments
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = EXIT_CONFIG_ERROR
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:  # a command's arguments, or an unknown command
            exc.exit_code = EXIT_CONFIG_ERROR
            raise
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            ctx.exit(EXIT_CONFIG_ERROR)
        except (StageError, curation.CurationError) as exc:
            click.echo(f"stage failure: {exc}", err=True)
            ctx.exit(EXIT_STAGE_FAILURE)


@click.group(cls=_Main)
@click.pass_context
def main(ctx):
    """Deterministic speech-corpus curation pipeline."""
    # Stage summaries and warnings go to stderr while a command runs; library
    # callers configure logging themselves.
    log = logging.getLogger("speechcurate")
    handler, level = logging.StreamHandler(sys.stderr), log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)

    def restore():
        log.removeHandler(handler)
        log.setLevel(level)

    ctx.call_on_close(restore)


@main.command()
@click.option("--config", "config_path", required=True, type=_IN_FILE)
@click.option("--stages", "stages_csv", default=None,
              help=f"Comma-separated subset of: {','.join(STAGE_ORDER)}")
@click.option("--seed", type=int, default=None, help="Override the global RNG seed.")
@click.option("--workers", type=int, default=None, help="Override the worker count.")
def run(config_path, stages_csv, seed, workers):
    """Run the pipeline stages described by a YAML config."""
    config = PipelineConfig.from_yaml(config_path)
    if stages_csv is not None:
        config.stages = [s.strip() for s in stages_csv.split(",") if s.strip()]
    if seed is not None:
        config.seed = seed
    if workers is not None:
        config.workers = workers
    result = run_pipeline(config)
    if result.final_manifest is not None:
        click.echo(f"final manifest: {result.final_manifest}")
    sys.exit(result.exit_code)


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=_IN_FILE)
@click.option("--json", "as_json", is_flag=True, help="Emit the report as JSON.")
@click.option("--csv", "csv_path", default=None, type=_OUT_FILE, callback=_writable,
              help="Also write histogram bins as CSV.")
def stats(manifest_path, as_json, csv_path):
    """Corpus statistics and histograms for a manifest."""
    records = read_manifest(manifest_path)
    report = curation.corpus_stats(records)
    if csv_path:
        report.write_csv(csv_path)
    if as_json:
        click.echo(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    else:
        click.echo(report.render_table())


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=_IN_FILE)
@click.option("--spec", "spec_path", required=True, type=_IN_FILE,
              help="JSON file with subset thresholds.")
@click.option("--out", "out_path", required=True, type=_OUT_FILE, callback=_writable)
def subset(manifest_path, spec_path, out_path):
    """Filter a manifest through a SubsetSpec gate file."""
    text = read_text(spec_path)
    try:
        spec = SubsetSpec.from_json_dict(json.loads(text))
    except INPUT_FAULTS as exc:
        raise input_error(exc, spec_path) from exc
    records = read_manifest(manifest_path)
    kept = curation.build_subset(records, spec)
    write_manifest(kept, out_path)
    click.echo(f"kept {len(kept)} of {len(records)} records")


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=_IN_FILE)
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_path", required=True, type=_OUT_FILE, callback=_writable,
              help="JSON file receiving the split plans.")
def splits(manifest_path, seed, out_path):
    """Sample seen-speaker dev/test split plans from a manifest."""
    records = read_manifest(manifest_path)
    plans = curation.sample_eval_splits(records, rng_seed=seed)
    payload = {name: list(plan.utterance_ids) for name, plan in plans.items()}
    with replacing(out_path) as tmp:
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for name in sorted(payload):
        click.echo(f"{name}: {len(payload[name])} utterances")


if __name__ == "__main__":
    main()
