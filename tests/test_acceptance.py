"""Acceptance suite: one test per release criterion, one PASS line each.

Each criterion is exercised on synthetic fixtures against independent
oracles (full-matrix DP for edit distance, constructed spectra for
bandwidth, planted pauses for segmentation) rather than against the
implementation's own intermediate values.
"""

import json
import random
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from speechcurate.audio import AudioBuffer, resample, trim_silence
from speechcurate.bandwidth import estimate_bandwidth, mean_power_spectrum
from speechcurate.curation import (
    _tercile,
    build_subset,
    build_triplets,
    corpus_stats,
    sample_eval_splits,
)
from speechcurate.manifest import SubsetSpec, UtteranceRecord, read_manifest
from speechcurate.pipeline import run_pipeline
from speechcurate.segmentation import (
    AlignmentToken,
    apply_split,
    choose_split,
    find_candidate_pauses,
    load_default_abbreviations,
    utterance_seed,
)
from speechcurate.textproc import (
    EditStats,
    clean_formatting,
    default_rules,
    edit_stats,
    levenshtein,
    match_transcript,
    passes_cer_gate,
    strip_pc,
)

from conftest import lowpassed_noise, sine
from corpus_harness import build_corpus, make_config

ABBREVS = load_default_abbreviations()


def _verdict(number, title):
    print(f"PASS criterion {number}: {title}")


def make_rec(uid, duration_s, speaker="spk0", **overrides):
    fields = dict(
        utterance_id=uid,
        book_id="b0",
        chapter_id="c0",
        speaker_id=speaker,
        audio_path="a.wav",
        offset_s=0.0,
        duration_s=duration_s,
        raw_text="some words",
        text="Some words.",
        text_source="book_match",
    )
    fields.update(overrides)
    return UtteranceRecord(**fields)


# --------------------------------------------------------------------------
# 1. Bandwidth oracle


def test_criterion_1_bandwidth_oracle():
    start = time.monotonic()
    bin_hz = 44100.0 / 2048.0
    for cutoff in (4000, 8000, 11000, 13000, 16000, 20000):
        noise = lowpassed_noise(cutoff, 4.0, 48000, seed=cutoff)
        buf = resample(AudioBuffer(noise, 48000), 44100)
        est = estimate_bandwidth(mean_power_spectrum(buf))
        assert abs(est.f_max_hz - cutoff) <= 3 * bin_hz, cutoff
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _verdict(1, "bandwidth estimate within 3 FFT bins of planted cutoffs, "
                f"{elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. Subset nesting


def _manifest_500():
    records = []
    for i in range(500):
        bw = 4000 + round(i * 18000 / 499)
        if i < 6:
            bw = (10999, 11000, 11001, 12999, 13000, 13001)[i]
        records.append(make_rec(
            f"utt{i:04d}", duration_s=2.0 + (i % 37) * 0.5,
            speaker=f"spk{i % 23:02d}", bandwidth_hz=bw,
            wer_pct=float(i % 7), cer_pct=(i % 211) * 0.5,
            num_speakers=1 + (i % 50 == 0)))
    return records


def test_criterion_2_subset_nesting():
    records = _manifest_500()
    sub11 = build_subset(records, SubsetSpec(min_bandwidth_hz=11000))
    sub13 = build_subset(records, SubsetSpec(min_bandwidth_hz=13000))
    ids11 = {r.utterance_id for r in sub11}
    ids13 = {r.utterance_id for r in sub13}
    assert ids13 <= ids11
    assert ids13 < ids11  # strictly smaller on this fixture
    by_bw = {r.bandwidth_hz: r.utterance_id for r in records[:6]}
    assert by_bw[11000] in ids11 and by_bw[10999] not in ids11
    assert by_bw[13000] in ids13 and by_bw[12999] not in ids13
    _verdict(2, "13 kHz subset nested in 11 kHz subset, inclusive boundaries")


# --------------------------------------------------------------------------
# 3. Trim contract


def test_criterion_3_trim_contract():
    sr = 44100
    hop_s = 0.0125
    rng = np.random.default_rng(3)
    for _ in range(20):
        lead = float(rng.uniform(0.0, 2.0))
        tone_s = float(rng.uniform(1.0, 5.0))
        trail = float(rng.uniform(0.0, 2.0))
        signal = np.concatenate([
            np.zeros(int(round(lead * sr))),
            sine(1000, tone_s, sr, amplitude=0.3),
            np.zeros(int(round(trail * sr))),
        ])
        result = trim_silence(AudioBuffer(signal, sr))
        kept_lead = lead - result.leading_removed_s
        kept_trail = trail - result.trailing_removed_s
        assert abs(kept_lead - min(lead, 0.5)) <= 2 * hop_s, (lead, tone_s, trail)
        assert abs(kept_trail - min(trail, 0.5)) <= 2 * hop_s, (lead, tone_s, trail)
        assert result.trimmed.duration_s >= tone_s - 1e-9
        again = trim_silence(result.trimmed)
        assert again.trimmed.num_frames == result.trimmed.num_frames
    _verdict(3, "20 random silence-tone-silence layouts keep <= 0.5 s per "
                "edge within 2 hops; trimming is idempotent")


# --------------------------------------------------------------------------
# 4. Segmentation trace


WORD_S = 0.25
SMALL_GAP = 0.015625  # binary-exact, below the 0.08 s pause floor


def _track(words, gap_after, t0=0.125):
    """Tokens back to back; gap_after overrides the gap following a word."""
    tokens = []
    t = t0
    for k, word in enumerate(words):
        tokens.append(AlignmentToken(strip_pc(word), t, t + WORD_S))
        t += WORD_S + gap_after.get(k, SMALL_GAP)
    return tokens, t + 0.1


def _midpoint(tokens, word_index):
    return (tokens[word_index].end_s + tokens[word_index + 1].start_s) / 2.0


def _segmentation_fixture(n=200):
    cases = []
    for i in range(n):
        uid = f"utt{i:04d}"
        kind = i % 4
        if kind == 0:
            text = "Alpha bravo charlie delta. Echo foxtrot golf hotel"
            pause = 0.25 + (i // 4 % 16) * SMALL_GAP
            tokens, dur = _track(text.split(), {3: pause})
            expected = _midpoint(tokens, 3)
        elif kind == 1:
            abbr = "Mr." if i % 8 == 1 else "Dr."
            text = f"{abbr} Smith spoke. Then more words"
            tokens, dur = _track(text.split(), {0: 0.5, 2: 0.3})
            expected = _midpoint(tokens, 2)
        elif kind == 2:
            # sentence 1 ends at exactly 1.0 s so the planted gap is not
            # nudged below the threshold by float accumulation
            text = "One two. Three four"
            tokens, dur = _track(text.split(), {1: 0.08}, t0=0.484375)
            expected = _midpoint(tokens, 1)
        else:
            text = "One two. Three four"
            tokens, dur = _track(text.split(), {1: 0.079}, t0=0.484375)
            expected = None
        rec = make_rec(uid, duration_s=round(dur, 4), raw_text=strip_pc(text),
                       text=text)
        cases.append((rec, tokens, expected))
    return cases


def _segment_one(case, seed=0):
    rec, tokens, _ = case
    pauses = find_candidate_pauses(tokens, rec.text, abbreviations=ABBREVS)
    return apply_split(rec, choose_split(pauses, utterance_seed(rec.utterance_id, seed)))


def test_criterion_4_segmentation_trace():
    cases = _segmentation_fixture()
    outputs = [_segment_one(case) for case in cases]
    for (rec, tokens, expected), children in zip(cases, outputs):
        if expected is None:
            assert children == [rec]
            continue
        assert len(children) == 2, rec.utterance_id
        a, b = children
        assert abs(a.duration_s - expected) < 1e-9, rec.utterance_id
        assert a.duration_s + b.duration_s == rec.duration_s  # exact
        if rec.text.startswith(("Mr.", "Dr.")):
            # the abbreviation period never becomes the split point
            assert a.text == f"{rec.text.split()[0]} Smith spoke."
    serialized = [json.dumps([c.to_json_dict() for c in out]) for out in outputs]
    rerun = [json.dumps([c.to_json_dict() for c in _segment_one(case)])
             for case in cases]
    assert rerun == serialized
    for workers in (2, 8):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parallel = list(pool.map(_segment_one, cases))
        assert [json.dumps([c.to_json_dict() for c in out])
                for out in parallel] == serialized
    _verdict(4, "200 planted splits land on longest-pause midpoints, "
                "abbreviations never split, 0.08/0.079 boundary honored, "
                "durations partition exactly, stable across worker counts")


# --------------------------------------------------------------------------
# 5. Edit-distance oracle


def _oracle_distance(ref, hyp):
    n, m = len(ref), len(hyp)
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        d[i][0] = i
    for j in range(m + 1):
        d[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]))
    return d[n][m]


def _all_strings(alphabet, max_len):
    out = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [s + ch for s in frontier for ch in alphabet]
        out.extend(frontier)
    return out


def test_criterion_5_edit_distance_oracle():
    short = _all_strings("abc", 4)
    for ref in short:
        for hyp in short:
            assert levenshtein(ref, hyp) == _oracle_distance(ref, hyp), (ref, hyp)
    rng = random.Random(5)
    for _ in range(2000):
        ref = "".join(rng.choice("abc") for _ in range(rng.randint(0, 12)))
        hyp = "".join(rng.choice("abc") for _ in range(rng.randint(0, 12)))
        assert levenshtein(ref, hyp) == _oracle_distance(ref, hyp), (ref, hyp)
    vocab = ["aa", "bb", "cc"]
    for _ in range(2000):
        ref = [rng.choice(vocab) for _ in range(rng.randint(0, 5))]
        hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 5))]
        assert levenshtein(ref, hyp) == _oracle_distance(ref, hyp), (ref, hyp)
    assert passes_cer_gate(EditStats(0, 1, 9999, 10000), 100.0)      # 99.99
    assert not passes_cer_gate(EditStats(0, 1, 10000, 10000), 100.0)  # 100.0
    # the same boundary through real strings
    stats = edit_stats("a" * 10000, "b" * 9999 + "a")
    assert stats.cer_pct == pytest.approx(99.99)
    assert passes_cer_gate(stats)
    assert not passes_cer_gate(edit_stats("ab", "xy"))
    _verdict(5, "edit distance matches the full-matrix oracle (exhaustive to "
                "length 4, sampled to length 12, word-level to 5 tokens); "
                "CER gate passes 99.99 and rejects 100.0")


# --------------------------------------------------------------------------
# 6. PC restoration


_VOCAB = ("time", "river", "stone", "garden", "evening", "letter", "voice",
          "window", "summer", "doctor", "weather", "journey", "quiet",
          "morning", "harbor", "don't", "it's", "candle", "shadow", "bright")


def _chapter_text(rng):
    sentences = []
    for _ in range(rng.randint(6, 12)):
        words = [rng.choice(_VOCAB) for _ in range(rng.randint(4, 9))]
        if rng.random() < 0.5:
            words.insert(rng.randrange(1, len(words)), rng.choice(words) + ",")
        if rng.random() < 0.3:
            k = rng.randrange(len(words))
            words[k] = f'"{words[k]}"'
        sentences.append(" ".join(words).capitalize() + rng.choice(".!?."))
    body = " ".join(sentences)
    return f"<h1>Chapter</h1>\n<p>nbsp {body} p p</p>"


def test_criterion_6_pc_restoration():
    rng = random.Random(6)
    rules = default_rules()
    matched = 0
    total = 0
    for _ in range(100):
        clean = clean_formatting(_chapter_text(rng), rules)
        words = clean.split()
        for _ in range(5):
            i = rng.randrange(0, len(words) - 3)
            j = i + rng.randint(3, min(8, len(words) - i))
            query = strip_pc(" ".join(words[i:j]))
            if not query:
                continue
            total += 1
            m = match_transcript(query, clean)
            assert m.matched, query
            assert strip_pc(m.restored_text) == query
            matched += 1
            miss = match_transcript(query + " zzzz", clean)
            assert not miss.matched
    assert matched == total and total >= 450
    _verdict(6, f"{matched}/{total} exact normalized substrings matched and "
                "restored; non-substrings rejected")


# --------------------------------------------------------------------------
# 7. Triplet gates


def test_criterion_7_triplet_gates():
    records = []
    sims = {}
    plan = [
        ("cer_pass", 3.0, 0.9, True),
        ("cer_fail", 3.01, 0.9, False),
        ("sim_pass", 0.0, 0.60, True),
        ("sim_fail", 0.0, 0.599, False),
    ]
    for name, cer, sim, _ in plan:
        target = make_rec(f"{name}_tgt", 6.0, speaker=name, cer_pct=cer)
        context = make_rec(f"{name}_ctx", 5.0, speaker=name, cer_pct=0.0)
        records += [target, context]
        sims[(context.utterance_id, target.utterance_id)] = sim
        sims[(target.utterance_id, context.utterance_id)] = 0.9
    triplets, skipped = build_triplets(records, sims)
    made = {t.target_utterance_id for t in triplets}
    for name, _, _, expect in plan:
        assert (f"{name}_tgt" in made) == expect, name
    assert skipped["cer"] == 1
    assert skipped["similarity"] == 1
    _verdict(7, "triplet thresholds inclusive at CER 3.0 and similarity 0.60; "
                "3.01 and 0.599 rejected")


# --------------------------------------------------------------------------
# 8. Split sampler


def _splits_fixture():
    records = []
    for s in range(60):
        speaker = f"spk{s:03d}"
        gender = "m" if s % 2 == 0 else "f"
        n = 45 if s < 50 else 10  # late speakers fall below 15 eligible minutes
        for i in range(n):
            dur = (30.0, 40.0, 50.0)[i % 3]
            bw = (13500, 14500, 15500)[(i // 3) % 3]
            records.append(make_rec(
                f"{speaker}_{i:03d}", dur, speaker=speaker, bandwidth_hz=bw,
                wer_pct=0.0, cer_pct=0.0, num_speakers=1, gender=gender))
    return records


def test_criterion_8_split_sampler():
    records = _splits_fixture()
    plans = sample_eval_splits(records, rng_seed=8)
    dev = plans["dev_seen"].utterance_ids
    test = plans["test_seen"].utterance_ids
    assert len(dev) == 1000 and len(test) == 1000
    assert set(dev).isdisjoint(test)
    assert set(dev).isdisjoint(plans["train"].utterance_ids)
    assert set(test).isdisjoint(plans["train"].utterance_ids)

    by_id = {r.utterance_id: r for r in records}
    for split in (dev, test):
        per_speaker = {}
        for uid in split:
            per_speaker.setdefault(by_id[uid].speaker_id, []).append(by_id[uid])
        assert len(per_speaker) == 50
        assert all(len(utts) == 20 for utts in per_speaker.values())
        genders = {spk: utts[0].gender for spk, utts in per_speaker.items()}
        n_m = sum(1 for g in genders.values() if g == "m")
        assert abs(n_m - (50 - n_m)) <= 2
        for spk, picked in per_speaker.items():
            pool = [r for r in records if r.speaker_id == spk]
            durations = sorted(r.duration_s for r in pool)
            bandwidths = sorted(r.bandwidth_hz for r in pool)
            for axis, key in (("duration", lambda r: _tercile(r.duration_s, durations)),
                              ("bandwidth", lambda r: _tercile(r.bandwidth_hz, bandwidths))):
                counts = [0, 0, 0]
                for r in picked:
                    counts[key(r)] += 1
                assert min(counts) >= 5, (spk, axis, counts)

    again = sample_eval_splits(records, rng_seed=8)
    assert again["dev_seen"] == plans["dev_seen"]
    assert again["test_seen"] == plans["test_seen"]
    _verdict(8, "50 speakers x 20 utterances per split, 1000 dev / 1000 test, "
                "disjoint, gender balanced, every tercile stratum >= 5, "
                "deterministic under the seed")


# --------------------------------------------------------------------------
# 9. End-to-end determinism


def test_criterion_9_end_to_end_determinism(tmp_path):
    start = time.monotonic()
    corpus = build_corpus(tmp_path / "corpus")
    outs = []
    for name, workers in (("run1_w1", 1), ("run2_w1", 1), ("run3_w8", 8)):
        out = tmp_path / name
        result = run_pipeline(make_config(corpus, out, workers=workers))
        assert result.final_manifest is not None
        outs.append(out)
    names = sorted(p.name for p in outs[0].glob("manifest.*.jsonl"))
    assert len(names) == 6
    for other in outs[1:]:
        for name in names:
            assert (outs[0] / name).read_bytes() == (other / name).read_bytes(), name
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _verdict(9, "20-utterance corpus produced byte-identical manifests across "
                f"reruns and workers 1 vs 8 in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 10. Stats conservation


def test_criterion_10_stats_conservation():
    records = _manifest_500()
    report = corpus_stats(records)
    assert report.utterance_count == 500
    for hist in (report.duration_hist, report.bandwidth_hist,
                 report.wer_hist, report.cer_hist):
        assert sum(hist.values()) == 500
    assert sum(report.text_source_counts.values()) == 500
    exact = sum(r.duration_s for r in records) / 3600.0
    assert abs(report.total_hours - exact) <= 1e-6 * exact
    _verdict(10, "all histograms sum to the record count; total hours match "
                 "summed durations within 1e-6 relative")
