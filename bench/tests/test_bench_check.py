import json
import os
import shutil

import pytest

import check
import gen


def _run(workload, inputs, out):
    """The workload's run, in process, from the generated directory."""
    from speechcurate import config as configlib
    from speechcurate import curation, manifest, pipeline

    plan = json.loads((inputs / "plan.json").read_text())
    spec = manifest.SubsetSpec.from_json_dict(gen.SUBSET_SPEC)
    cwd = os.getcwd()
    os.chdir(inputs)
    try:
        out.mkdir(parents=True)
        if workload == "curate_manifest":
            records = manifest.read_manifest("final.jsonl")
            exit_code = 0
        else:
            config = configlib.PipelineConfig(**gen.pipeline_config(workload), out_dir=str(out))
            exit_code = pipeline.run_pipeline(config).exit_code
            records = None
        if records is not None:
            (out / "stats.json").write_text(
                json.dumps(curation.corpus_stats(records).to_json_dict()))
            manifest.write_manifest(curation.build_subset(records, spec), out / "subset.jsonl")
            plans = curation.sample_eval_splits(records, rng_seed=plan["split_seed"])
            (out / "splits.json").write_text(
                json.dumps({k: list(p.utterance_ids) for k, p in plans.items()}))
    finally:
        os.chdir(cwd)
    return plan, exit_code


@pytest.fixture(scope="module")
def book_text(tmp_path_factory):
    root = tmp_path_factory.mktemp("book_text")
    gen.generate("book_text", 3, root / "in")
    plan, exit_code = _run("book_text", root / "in", root / "out")
    return root, plan, exit_code


@pytest.fixture(scope="module")
def curated(tmp_path_factory):
    root = tmp_path_factory.mktemp("curate")
    gen.generate("curate_manifest", 3, root / "in")
    plan, exit_code = _run("curate_manifest", root / "in", root / "out")
    return root, plan, exit_code


def _copy(root, tmp_path):
    shutil.copytree(root / "out", tmp_path / "out")
    return tmp_path / "out"


def _flip(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] = ord("q") if data[offset] != ord("q") else ord("z")
    path.write_bytes(bytes(data))


def test_clean_runs_pass(book_text, curated):
    for root, plan, exit_code in (book_text, curated):
        verdict = check.check(plan, root / "in", root / "out", exit_code)
        assert verdict.violations == []
        assert verdict.failed == 0


def test_flipped_byte_in_restored_text_is_caught(book_text, tmp_path):
    root, plan, exit_code = book_text
    out = _copy(root, tmp_path)
    manifest = out / "manifest.00_text.jsonl"
    data = manifest.read_bytes()
    offset = data.index(b'"text":"', len(data) // 2) + len(b'"text":"')
    while not chr(data[offset]).isascii() or not chr(data[offset]).isalpha():
        offset += 1                              # an ASCII letter, not a quote's bytes
    _flip(manifest, offset)
    verdict = check.check(plan, root / "in", out, exit_code)
    assert any("restored text differs" in v for v in verdict.violations)
    assert check.file_hashes(out) != check.file_hashes(root / "out")


@pytest.mark.parametrize("offset", [0, 1000, 123457, 2345679, -2])
def test_any_flipped_byte_in_subset_is_caught(curated, tmp_path, offset):
    root, plan, exit_code = curated
    out = _copy(root, tmp_path)
    subset = out / "subset.jsonl"
    _flip(subset, offset % subset.stat().st_size)
    verdict = check.check(plan, root / "in", out, exit_code)
    assert "subset.jsonl differs from the filtered manifest" in verdict.violations


def test_dropped_record_is_caught(book_text, curated, tmp_path):
    root, plan, exit_code = book_text
    out = _copy(root, tmp_path / "book")
    manifest = out / "manifest.02_validate.jsonl"
    lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
    manifest.write_text("".join(lines[:10] + lines[11:]), encoding="utf-8")
    verdict = check.check(plan, root / "in", out, exit_code)
    assert any("report counts disagree" in v for v in verdict.violations)
    assert any(" lost" in v for v in verdict.violations)
    assert verdict.failed == 1

    root, plan, exit_code = curated
    out = _copy(root, tmp_path / "curate")
    subset = out / "subset.jsonl"
    lines = subset.read_text(encoding="utf-8").splitlines(keepends=True)
    subset.write_text("".join(lines[1:]), encoding="utf-8")
    assert check.check(plan, root / "in", out, exit_code).violations


def test_wrong_exit_code_fails_every_record(book_text):
    root, plan, _ = book_text
    verdict = check.check(plan, root / "in", root / "out", 1)
    assert verdict.violations and verdict.failed == plan["input_records"]
