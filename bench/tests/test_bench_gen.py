import check
import gen


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    for workload in ("book_text", "audio_hours"):
        a = check.file_hashes(_generate(workload, 7, tmp_path / f"{workload}-a"))
        b = check.file_hashes(_generate(workload, 7, tmp_path / f"{workload}-b"))
        c = check.file_hashes(_generate(workload, 8, tmp_path / f"{workload}-c"))
        assert a == b
        assert set(a) == set(c)
        # everything the seed decides differs; chapters.jsonl only lists ids and paths
        changed = {name for name in a if a[name] != c[name]}
        assert changed >= {"utterances.jsonl", "plan.json"}, workload
        assert all(name in changed for name in a if name.endswith((".wav", ".txt")))


def _generate(workload, seed, root):
    gen.generate(workload, seed, root)
    return root


def test_benchmark_json_lists_what_the_runner_reports():
    import json
    from pathlib import Path

    import run

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(gen.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
