import json
import math
import random

import pytest
from click.testing import CliRunner

from speechcurate import cli, curation
from speechcurate.curation import (
    CurationError,
    SpeakerCountRecord,
    apply_speaker_counts,
    build_subset,
    build_triplets,
    corpus_stats,
    sample_eval_splits,
)
from speechcurate.cli import main
from speechcurate.manifest import ManifestError, SubsetSpec, UtteranceRecord, write_manifest
from speechcurate.pipeline import _load_jsonl_map


def make_record(utterance_id, speaker_id="s1", duration_s=10.0, bandwidth_hz=14000,
                wer_pct=0.0, cer_pct=1.0, num_speakers=1, gender="f", **overrides):
    fields = dict(
        utterance_id=utterance_id,
        book_id="b1",
        chapter_id="c1",
        speaker_id=speaker_id,
        audio_path=f"{utterance_id}.wav",
        offset_s=0.0,
        duration_s=duration_s,
        raw_text="words here",
        text="Words here.",
        text_source="book_match",
        bandwidth_hz=bandwidth_hz,
        wer_pct=wer_pct,
        cer_pct=cer_pct,
        num_speakers=num_speakers,
        gender=gender,
    )
    fields.update(overrides)
    return UtteranceRecord(**fields)


class TestSpeakerCounts:
    def test_single_speaker_tagged(self):
        records = [make_record("u1", num_speakers=None)]
        out = apply_speaker_counts(records, {"u1": 1})
        assert out[0].num_speakers == 1

    def test_multi_speaker_retained_but_gated(self):
        records = [make_record("u1", num_speakers=None)]
        out = apply_speaker_counts(records, {"u1": 2})
        assert out[0].num_speakers == 2
        gated = build_subset(out, SubsetSpec(max_num_speakers=1))
        assert gated == []

    def test_empty_counts_leaves_unchanged(self):
        records = [make_record("u1", num_speakers=None)]
        assert apply_speaker_counts(records, {}) == records

    def test_record_without_count_unchanged(self):
        records = [make_record("u1", num_speakers=None), make_record("u2", num_speakers=None)]
        assert apply_speaker_counts(records, {"u2": 3}) == [
            records[0], records[1].with_fields(num_speakers=3)]

    def test_duplicate_counts_rejected(self, tmp_path):
        path = tmp_path / "counts.jsonl"
        path.write_text('{"utterance_id": "u1", "num_speakers": 1}\n'
                        '{"utterance_id": "u1", "num_speakers": 2}\n')
        with pytest.raises(ManifestError, match=":2: duplicate utterance_id 'u1'"):
            _load_jsonl_map(path, SpeakerCountRecord, "num_speakers")

    def test_jsonl_loader(self, tmp_path):
        path = tmp_path / "counts.jsonl"
        path.write_text('{"utterance_id": "u1", "num_speakers": 2}\n')
        assert _load_jsonl_map(path, SpeakerCountRecord, "num_speakers") == {"u1": 2}


class TestBuildSubset:
    def test_44k_subset_of_22k(self):
        records = [make_record(f"u{i}", bandwidth_hz=4000 + i * 37) for i in range(500)]
        sub22 = build_subset(records, SubsetSpec(min_bandwidth_hz=11000))
        sub44 = build_subset(records, SubsetSpec(min_bandwidth_hz=13000))
        ids22 = {r.utterance_id for r in sub22}
        ids44 = {r.utterance_id for r in sub44}
        assert ids44 <= ids22

    def test_boundaries_inclusive(self):
        records = [make_record("u1", bandwidth_hz=11000),
                   make_record("u2", bandwidth_hz=13000)]
        assert len(build_subset(records, SubsetSpec(min_bandwidth_hz=11000))) == 2
        assert [r.utterance_id for r in
                build_subset(records, SubsetSpec(min_bandwidth_hz=13000))] == ["u2"]

    def test_multi_speaker_dropped(self):
        records = [make_record("u1", num_speakers=2)]
        assert build_subset(records, SubsetSpec(max_num_speakers=1)) == []

    def test_extreme_gates_identity(self):
        records = [make_record(f"u{i}") for i in range(5)]
        spec = SubsetSpec(min_bandwidth_hz=0, max_cer_pct=math.inf,
                          max_num_speakers=math.inf)
        assert build_subset(records, spec) == records

    def test_missing_field_names_stage(self):
        records = [make_record("u1", cer_pct=None)]
        with pytest.raises(CurationError, match="validation stage"):
            build_subset(records, SubsetSpec(max_cer_pct=50))

    @pytest.mark.parametrize("missing,spec,stage", [
        ("bandwidth_hz", SubsetSpec(min_bandwidth_hz=1), "bandwidth stage"),
        ("num_speakers", SubsetSpec(max_num_speakers=1), "speaker stage"),
    ])
    def test_missing_field_names_its_stage(self, missing, spec, stage):
        with pytest.raises(CurationError, match=f"u1: {missing} missing; run the {stage} first"):
            build_subset([make_record("u1", **{missing: None})], spec)

    def test_order_preserved(self):
        records = [make_record(f"u{i}", bandwidth_hz=20000 - i) for i in range(10)]
        out = build_subset(records, SubsetSpec(min_bandwidth_hz=19995))
        assert [r.utterance_id for r in out] == [f"u{i}" for i in range(6)]

    def test_tightening_never_grows(self):
        records = [make_record(f"u{i}", bandwidth_hz=4000 + 40 * i,
                               cer_pct=i * 0.5, num_speakers=1 + i % 3)
                   for i in range(200)]
        base = SubsetSpec(min_bandwidth_hz=8000, max_cer_pct=50, max_num_speakers=2)
        tighter = [
            SubsetSpec(min_bandwidth_hz=9000, max_cer_pct=50, max_num_speakers=2),
            SubsetSpec(min_bandwidth_hz=8000, max_cer_pct=20, max_num_speakers=2),
            SubsetSpec(min_bandwidth_hz=8000, max_cer_pct=50, max_num_speakers=1),
        ]
        base_ids = {r.utterance_id for r in build_subset(records, base)}
        for spec in tighter:
            assert {r.utterance_id for r in build_subset(records, spec)} <= base_ids


class TestTriplets:
    def _pair(self, cer, sim):
        records = [
            make_record("ctx", duration_s=5.0),
            make_record("tgt", cer_pct=cer),
        ]
        sims = {("ctx", "tgt"): sim, ("tgt", "ctx"): sim}
        triplets, _ = build_triplets(records, sims)
        return [t for t in triplets if t.target_utterance_id == "tgt"]

    def test_cer_boundary(self):
        assert len(self._pair(3.0, 0.9)) == 1
        assert len(self._pair(3.01, 0.9)) == 0
        assert len(self._pair(3.5, 0.9)) == 0

    def test_similarity_boundary(self):
        assert len(self._pair(1.0, 0.60)) == 1
        assert len(self._pair(1.0, 0.599)) == 0

    def test_single_utterance_speaker_no_triplets(self):
        triplets, skipped = build_triplets([make_record("only")], {})
        assert triplets == []
        assert skipped["no_context"] == 1

    def test_missing_similarity_counted(self):
        records = [make_record("a", duration_s=5.0), make_record("b")]
        triplets, skipped = build_triplets(records, {})
        assert triplets == []
        assert skipped["missing_similarity"] == 2

    def test_context_near_5s_preferred(self):
        records = [
            make_record("short", duration_s=2.0),
            make_record("five", duration_s=5.1),
            make_record("long", duration_s=12.0),
            make_record("tgt", duration_s=8.0),
        ]
        sims = {(c, t): 0.9 for c in "short five long tgt".split()
                for t in "short five long tgt".split()}
        triplets, _ = build_triplets(records, sims)
        by_target = {t.target_utterance_id: t for t in triplets}
        assert by_target["tgt"].context_utterance_id == "five"
        assert by_target["tgt"].context_duration_s == pytest.approx(5.1)

    def test_long_context_cropped_to_5s(self):
        records = [make_record("long", duration_s=12.0), make_record("tgt", duration_s=2.0)]
        sims = {("long", "tgt"): 0.9, ("tgt", "long"): 0.9}
        triplets, _ = build_triplets(records, sims)
        tgt = [t for t in triplets if t.target_utterance_id == "tgt"][0]
        assert tgt.context_duration_s == pytest.approx(5.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_per_target_scan(self, seed):
        # The reference is the earlier algorithm, which scanned the speaker's
        # utterances again for each target.
        def pick_context(candidates, target_id):
            pool = [c for c in candidates if c.utterance_id != target_id]
            if not pool:
                return None
            near = [c for c in pool if 4.5 <= c.duration_s <= 5.5]
            if near:
                best = min(near, key=lambda c: (abs(c.duration_s - 5.0), c.utterance_id))
                return best.utterance_id, best.duration_s
            best = max(pool, key=lambda c: (c.duration_s, c.utterance_id))
            return best.utterance_id, min(5.0, best.duration_s)

        def reference(records, sims):
            by_speaker = {}
            for rec in records:
                by_speaker.setdefault(rec.speaker_id, []).append(rec)
            triplets = []
            skipped = {"cer": 0, "similarity": 0, "missing_similarity": 0, "no_context": 0}
            for speaker_id in sorted(by_speaker):
                group = by_speaker[speaker_id]
                for target in group:
                    if target.cer_pct is not None and target.cer_pct > 3.0:
                        skipped["cer"] += 1
                        continue
                    picked = pick_context(group, target.utterance_id)
                    if picked is None:
                        skipped["no_context"] += 1
                        continue
                    context_id, context_dur = picked
                    sim = sims.get((context_id, target.utterance_id))
                    if sim is None:
                        skipped["missing_similarity"] += 1
                        continue
                    if sim < 0.6:
                        skipped["similarity"] += 1
                        continue
                    triplets.append(curation.Triplet(context_id, target.transcript,
                                                     target.utterance_id, context_dur))
            return triplets, skipped

        rng = random.Random(seed)
        # The edges of the near window, values just outside it, and ties.
        durations = [4.4999, 4.5, 4.75, 5.0, 5.25, 5.5, 5.5001, 0.5, 3.0, 7.0, 12.0]
        for _ in range(750):
            ids = [f"u{rng.randrange(12)}" for _ in range(rng.randrange(1, 9))]
            records = [make_record(uid, speaker_id=f"s{rng.randrange(2)}",
                                   duration_s=rng.choice(durations + [rng.uniform(0.1, 9)]),
                                   cer_pct=rng.choice([None, 1.0, 5.0]))
                       for uid in ids]  # an id may repeat
            sims = {(a, b): rng.choice([0.3, 0.9]) for a in ids for b in ids
                    if rng.random() < 0.8}
            assert build_triplets(records, sims) == reference(records, sims)

    def test_same_speaker_distinct_ids(self):
        records = [make_record(f"u{i}", speaker_id=f"s{i % 3}", duration_s=5.0)
                   for i in range(9)]
        sims = {(a.utterance_id, b.utterance_id): 0.9
                for a in records for b in records}
        triplets, _ = build_triplets(records, sims)
        by_id = {r.utterance_id: r for r in records}
        for t in triplets:
            assert t.context_utterance_id != t.target_utterance_id
            assert (by_id[t.context_utterance_id].speaker_id
                    == by_id[t.target_utterance_id].speaker_id)


def eval_fixture(n_eligible=50, n_ineligible=10, utts_per_speaker=40):
    """Speakers with ~30 min of eligible audio; ineligible ones have ~10 min."""
    records = []
    for s in range(n_eligible + n_ineligible):
        eligible = s < n_eligible
        per_utt = (30 * 60 / utts_per_speaker) if eligible else (10 * 60 / utts_per_speaker)
        gender = "m" if s % 2 == 0 else "f"
        for u in range(utts_per_speaker):
            records.append(make_record(
                f"s{s:03d}_u{u:03d}",
                speaker_id=f"s{s:03d}",
                duration_s=round(per_utt + (u % 9) - 4, 4),
                bandwidth_hz=13000 + 200 * (u % 9),
                wer_pct=0.0,
                num_speakers=1,
                gender=gender,
            ))
    return records


@pytest.mark.parametrize("command", ["stats", "subset", "splits"])
def test_output_in_missing_directory_is_config_error(tmp_path, command):
    manifest = tmp_path / "m.jsonl"
    write_manifest(eval_fixture(), manifest)
    (tmp_path / "spec.json").write_text("{}")
    out = tmp_path / "nodir" / "x.out"
    args = {"stats": ["--csv", str(out)],
            "subset": ["--spec", str(tmp_path / "spec.json"), "--out", str(out)],
            "splits": ["--out", str(out)]}[command]
    result = CliRunner().invoke(main, [command, "--manifest", str(manifest), *args])
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert f"config error: {out}: cannot write: No such file or directory" in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.jsonl", "spec.json"]


@pytest.mark.parametrize("command", ["stats", "subset", "splits"])
def test_output_checked_before_manifest_is_read(tmp_path, monkeypatch, command):
    def unread(path):
        raise AssertionError("the manifest was read before the output was checked")

    monkeypatch.setattr(cli, "read_manifest", unread)
    manifest = tmp_path / "m.jsonl"
    write_manifest(eval_fixture(), manifest)
    (tmp_path / "spec.json").write_text("{}")
    out = tmp_path / "nodir" / "x.out"
    args = {"stats": ["--csv", str(out)],
            "subset": ["--spec", str(tmp_path / "spec.json"), "--out", str(out)],
            "splits": ["--out", str(out)]}[command]
    result = CliRunner().invoke(main, [command, "--manifest", str(manifest), *args])
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert f"config error: {out}: cannot write: No such file or directory" in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.jsonl", "spec.json"]


@pytest.mark.parametrize("name", ["max_cer_pct", "max_num_speakers"])
def test_spec_integer_beyond_float_is_config_error(tmp_path, monkeypatch, name):
    def unread(path):
        raise AssertionError("the manifest was read before the spec was checked")

    monkeypatch.setattr(cli, "read_manifest", unread)
    manifest = tmp_path / "m.jsonl"
    write_manifest(eval_fixture(), manifest)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({name: 10**400}))
    result = CliRunner().invoke(main, ["subset", "--manifest", str(manifest), "--spec", str(spec),
                                       "--out", str(tmp_path / "s.jsonl")])
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.output == (
        f"config error: {spec}: {name}: must be within the float range, got {10**400}\n")
    assert not (tmp_path / "s.jsonl").exists()



def _lines(path, *objs):
    """path holding one manifest line per object, each value as given."""
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
    return path


def test_subset_refuses_a_value_invalid_as_written(tmp_path):
    manifest = _lines(tmp_path / "m.jsonl",
                      {**make_record("u1").to_json_dict(), "duration_s": 4e-05})
    (tmp_path / "spec.json").write_text("{}")
    out = tmp_path / "s.jsonl"
    result = CliRunner().invoke(main, ["subset", "--manifest", str(manifest), "--spec",
                                       str(tmp_path / "spec.json"), "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.output == f"config error: {manifest}:1: duration_s: must be > 0, got 0.0\n"
    assert not out.exists()


def test_subset_of_its_own_output_is_itself(tmp_path):
    # 2.99996 % is 3.0 as written, which a 3.0 % gate drops; 2.99994 % is 2.9999.
    manifest = _lines(tmp_path / "m.jsonl",
                      {**make_record("u1").to_json_dict(), "cer_pct": 2.99996},
                      {**make_record("u2").to_json_dict(), "cer_pct": 2.99994})
    (tmp_path / "spec.json").write_text('{"max_cer_pct": 3.0}')
    outputs = []
    for out in (tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"):
        result = CliRunner().invoke(main, ["subset", "--manifest", str(manifest), "--spec",
                                           str(tmp_path / "spec.json"), "--out", str(out)])
        assert result.exit_code == 0, result.output
        outputs.append((result.output, out.read_bytes()))
        manifest = out
    assert [output for output, _ in outputs] == ["kept 1 of 2 records\n", "kept 1 of 1 records\n"]
    assert outputs[0][1] == outputs[1][1]
    assert [json.loads(line)["cer_pct"] for line in outputs[0][1].splitlines()] == [2.9999]


def test_stats_bins_a_value_as_written(tmp_path):
    manifest = _lines(tmp_path / "m.jsonl",
                      {**make_record("u1").to_json_dict(), "duration_s": 0.49996})
    result = CliRunner().invoke(main, ["stats", "--manifest", str(manifest), "--json"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["duration_hist"] == {"0.5": 1}


def _seen_draw_by_equality(records, rng_seed):
    """The seen-speaker draw as the sampler first wrote it: after the dev draw,
    the records left for the test draw are found by dataclass equality."""
    by_speaker = {}
    for r in records:
        if (r.bandwidth_hz >= curation.ELIGIBLE_MIN_BANDWIDTH_HZ and r.wer_pct == 0.0
                and r.num_speakers == 1):
            by_speaker.setdefault(r.speaker_id, []).append(r)
    qualified = {spk: utts for spk, utts in by_speaker.items()
                 if curation.SPEAKER_MIN_TRAIN_S <= sum(u.duration_s for u in utts)
                 <= curation.SPEAKER_MAX_TRAIN_S}
    rng = curation._Rng(rng_seed)
    dev_ids, test_ids = [], []
    for spk in curation._select_speakers(qualified, rng):
        utts = sorted(qualified[spk], key=lambda u: u.utterance_id)
        dev = curation._stratified_draw(utts, curation.UTTERANCES_PER_SPEAKER_PER_SPLIT, rng)
        remaining = [u for u in utts if u not in dev]
        test = curation._stratified_draw(
            remaining, curation.UTTERANCES_PER_SPEAKER_PER_SPLIT, rng)
        dev_ids += [u.utterance_id for u in dev]
        test_ids += [u.utterance_id for u in test]
    return tuple(dev_ids), tuple(test_ids)


class TestEvalSplits:
    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_plans_match_equality_reference(self, seed):
        # 60 utterances per speaker, so the test draw picks 20 of the 40 left.
        fixture = eval_fixture(utts_per_speaker=60)
        plans = sample_eval_splits(fixture, rng_seed=seed)
        assert (plans["dev_seen"].utterance_ids, plans["test_seen"].utterance_ids) == \
            _seen_draw_by_equality(fixture, seed)

    def test_counts_and_disjointness(self):
        plans = sample_eval_splits(eval_fixture(), rng_seed=5)
        dev, test = plans["dev_seen"], plans["test_seen"]
        assert len(dev.utterance_ids) == 1000
        assert len(test.utterance_ids) == 1000
        assert set(dev.utterance_ids).isdisjoint(test.utterance_ids)
        held = set(dev.utterance_ids) | set(test.utterance_ids)
        assert held.isdisjoint(plans["train"].utterance_ids)

    def test_exactly_50_speakers_20_each(self):
        plans = sample_eval_splits(eval_fixture(), rng_seed=5)
        for name in ("dev_seen", "test_seen"):
            speakers = {}
            for uid in plans[name].utterance_ids:
                speakers.setdefault(uid.split("_")[0], []).append(uid)
            assert len(speakers) == 50
            assert all(len(v) == 20 for v in speakers.values())

    def test_short_speakers_never_selected(self):
        plans = sample_eval_splits(eval_fixture(), rng_seed=5)
        held = set(plans["dev_seen"].utterance_ids) | set(plans["test_seen"].utterance_ids)
        short_speakers = {f"s{s:03d}" for s in range(50, 60)}
        assert all(uid.split("_")[0] not in short_speakers for uid in held)

    def test_deterministic_under_seed(self):
        fixture = eval_fixture()
        a = sample_eval_splits(fixture, rng_seed=9)
        b = sample_eval_splits(fixture, rng_seed=9)
        assert {k: v.utterance_ids for k, v in a.items()} == {
            k: v.utterance_ids for k, v in b.items()}

    def test_shortfall_reported(self):
        with pytest.raises(CurationError, match="shortfall"):
            sample_eval_splits(eval_fixture(n_eligible=40), rng_seed=1)

    def test_gender_balance(self):
        plans = sample_eval_splits(eval_fixture(), rng_seed=3)
        speakers = {uid.split("_")[0] for uid in plans["dev_seen"].utterance_ids}
        n_m = sum(1 for s in speakers if int(s[1:]) % 2 == 0)
        n_f = len(speakers) - n_m
        assert abs(n_m - n_f) <= 2

    @pytest.mark.parametrize("seed,unknown", [
        (3, ["s045", "s050", "s051", "s052", "s053", "s054"]),
        (4, ["s044", "s045", "s048", "s049", "s050", "s055"]),
    ])
    def test_unknown_gender_backfills(self, seed, unknown):
        # 44 qualified speakers are m or f, 12 unknown: every m and f speaker is
        # selected, then 6 unknown ones fill the set to 50.
        fixture = [r.with_fields(gender="unknown") if int(r.speaker_id[1:]) >= 44 else r
                   for r in eval_fixture(n_eligible=56, n_ineligible=4)]
        plans = sample_eval_splits(fixture, rng_seed=seed)
        for name in ("dev_seen", "test_seen"):
            speakers = sorted({uid.split("_")[0] for uid in plans[name].utterance_ids})
            assert speakers == [f"s{s:03d}" for s in range(44)] + unknown

    def test_cli_writes_plans(self, tmp_path):
        fixture = eval_fixture()
        manifest = tmp_path / "m.jsonl"
        write_manifest(fixture, manifest)
        out = tmp_path / "plans.json"
        result = CliRunner().invoke(main, ["splits", "--manifest", str(manifest),
                                           "--seed", "7", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert result.output == ("dev_seen: 1000 utterances\ntest_seen: 1000 utterances\n"
                                 "train: 400 utterances\n")
        plans = sample_eval_splits(fixture, rng_seed=7)
        assert out.read_text() == json.dumps(
            {name: list(plan.utterance_ids) for name, plan in plans.items()},
            indent=2, sort_keys=True) + "\n"


class TestCorpusStats:
    def test_empty_corpus(self):
        report = corpus_stats([])
        assert report.total_hours == 0.0
        assert report.utterance_count == 0
        assert report.speaker_count == 0
        assert report.duration_hist == {}

    def test_two_records_arithmetic(self):
        records = [make_record("u1", duration_s=10.0), make_record("u2", duration_s=10.0)]
        report = corpus_stats(records)
        assert report.total_hours == pytest.approx(20 / 3600)
        assert report.duration_hist == {"10.0": 2}

    def test_histogram_conservation(self):
        records = [
            make_record(f"u{i}", duration_s=0.5 + (i % 37),
                        bandwidth_hz=4000 + i * 53,
                        wer_pct=i % 140, cer_pct=(i * 7) % 220)
            for i in range(300)
        ]
        report = corpus_stats(records)
        for hist in (report.duration_hist, report.bandwidth_hist,
                     report.wer_hist, report.cer_hist):
            assert sum(hist.values()) == len(records)

    def test_multi_speaker_hours(self):
        records = [make_record("u1", num_speakers=2, duration_s=3600.0)]
        assert corpus_stats(records).multi_speaker_hours == pytest.approx(1.0)

    STATS_RECORDS = [
        make_record("u1", duration_s=1.24, bandwidth_hz=13999, wer_pct=0.0, cer_pct=0.5),
        make_record("u2", speaker_id="s2", duration_s=10.0, bandwidth_hz=4000, wer_pct=12.5,
                    cer_pct=150.0, num_speakers=2, text_source="predicted_pc"),
        make_record("u3", speaker_id="s2", duration_s=0.3, bandwidth_hz=None, wer_pct=None,
                    cer_pct=100.0, text_source=None),
        make_record("u4", duration_s=2.75, bandwidth_hz=20250, wer_pct=100.0, cer_pct=9.99),
    ]

    def test_table_bytes(self):
        assert corpus_stats(self.STATS_RECORDS).render_table() == (
            "total hours                 0.00\n"
            "utterances                     4\n"
            "speakers                       2\n"
            "multi-speaker hours         0.00\n"
            "-- duration [s] --\n"
            "0.0                            1\n"
            "1.0                            1\n"
            "2.5                            1\n"
            "10.0                           1\n"
            "-- bandwidth [Hz] --\n"
            "4000                           1\n"
            "13750                          1\n"
            "20250                          1\n"
            "-- WER [%] --\n"
            "0                              1\n"
            "12                             1\n"
            ">=100                          1\n"
            "-- CER [%] --\n"
            "0                              1\n"
            "9                              1\n"
            ">=100                          2")

    def test_table_omits_empty_histograms(self):
        records = [make_record("u1", bandwidth_hz=None, wer_pct=None, cer_pct=None)]
        assert corpus_stats(records).render_table() == (
            "total hours                 0.00\n"
            "utterances                     1\n"
            "speakers                       1\n"
            "multi-speaker hours         0.00\n"
            "-- duration [s] --\n"
            "10.0                           1")

    def test_csv_bytes(self, tmp_path):
        corpus_stats(self.STATS_RECORDS).write_csv(tmp_path / "hist.csv")
        assert (tmp_path / "hist.csv").read_bytes() == (
            b"histogram,bin,count\r\n"
            b"duration_s,0.0,1\r\nduration_s,1.0,1\r\nduration_s,2.5,1\r\n"
            b"duration_s,10.0,1\r\n"
            b"bandwidth_hz,4000,1\r\nbandwidth_hz,13750,1\r\nbandwidth_hz,20250,1\r\n"
            b"wer_pct,0,1\r\nwer_pct,12,1\r\nwer_pct,>=100,1\r\n"
            b"cer_pct,0,1\r\ncer_pct,9,1\r\ncer_pct,>=100,2\r\n")

    def test_json_dict(self):
        payload = corpus_stats(self.STATS_RECORDS).to_json_dict()
        assert list(payload.items()) == [
            ("total_hours", 0.003969),
            ("utterance_count", 4),
            ("speaker_count", 2),
            ("duration_hist", {"1.0": 1, "10.0": 1, "0.0": 1, "2.5": 1}),
            ("bandwidth_hist", {"13750": 1, "4000": 1, "20250": 1}),
            ("wer_hist", {"0": 1, "12": 1, ">=100": 1}),
            ("cer_hist", {"0": 1, ">=100": 2, "9": 1}),
            ("text_source_counts", {"book_match": 2, "predicted_pc": 1}),
            ("multi_speaker_hours", 0.002778),
        ]
        assert [list(v) for v in payload.values() if isinstance(v, dict)] == [
            ["1.0", "10.0", "0.0", "2.5"], ["13750", "4000", "20250"], ["0", "12", ">=100"],
            ["0", ">=100", "9"], ["book_match", "predicted_pc"]]

    def test_cli_table_json_and_csv(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        write_manifest(self.STATS_RECORDS, manifest)
        report = corpus_stats(self.STATS_RECORDS)
        runner = CliRunner()
        table = runner.invoke(main, ["stats", "--manifest", str(manifest)])
        assert table.exit_code == 0, table.output
        assert table.output == report.render_table() + "\n"
        as_json = runner.invoke(main, ["stats", "--manifest", str(manifest), "--json",
                                       "--csv", str(tmp_path / "hist.csv")])
        assert as_json.exit_code == 0, as_json.output
        assert as_json.output == json.dumps(report.to_json_dict(), indent=2,
                                            sort_keys=True) + "\n"
        report.write_csv(tmp_path / "expected.csv")
        assert (tmp_path / "hist.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_json_and_csv_outputs(self, tmp_path):
        records = [make_record("u1"), make_record("u2", text_source="predicted_pc")]
        report = corpus_stats(records)
        payload = report.to_json_dict()
        assert payload["text_source_counts"] == {"book_match": 1, "predicted_pc": 1}
        csv_path = tmp_path / "hist.csv"
        report.write_csv(csv_path)
        assert "duration_s" in csv_path.read_text()
        assert report.render_table()
