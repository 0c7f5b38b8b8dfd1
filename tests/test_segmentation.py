import random

import pytest

from speechcurate.manifest import InvariantError, ManifestError, UtteranceRecord
from speechcurate.segmentation import (
    AlignmentError,
    AlignmentToken,
    Pause,
    _exact_partition,
    apply_split,
    choose_split,
    find_candidate_pauses,
    load_alignments_jsonl,
    load_ctm,
    load_default_abbreviations,
    utterance_seed,
)

ABBREVS = load_default_abbreviations()


def track_for(words_with_times):
    return [AlignmentToken(w, s, e) for w, s, e in words_with_times]


def make_record(duration_s=15.0, text="It ended. Then more", **overrides):
    fields = dict(
        utterance_id="ch1_0001",
        book_id="b1",
        chapter_id="ch1",
        speaker_id="s1",
        audio_path="a.wav",
        offset_s=2.0,
        duration_s=duration_s,
        raw_text="it ended then more",
        text=text,
        text_source="book_match",
        wer_pct=1.0,
        cer_pct=0.5,
    )
    fields.update(overrides)
    return UtteranceRecord(**fields)


class TestFindCandidatePauses:
    def test_period_then_pause(self):
        track = track_for([("it", 0.0, 0.4), ("ended", 0.5, 1.0),
                           ("then", 1.2, 1.5), ("more", 1.6, 2.0)])
        pauses = find_candidate_pauses(track, "It ended. Then more", abbreviations=ABBREVS)
        assert pauses == [Pause(1.0, 1.2, 1)]

    def test_abbreviation_period_ignored(self):
        track = track_for([("mr", 0.0, 0.3), ("smith", 0.6, 1.0), ("spoke", 1.1, 1.6)])
        pauses = find_candidate_pauses(track, "Mr. Smith spoke", abbreviations=ABBREVS)
        assert pauses == []

    def test_below_threshold_ignored(self):
        track = track_for([("over", 0.0, 1.0), ("next", 1.07, 2.0)])
        assert find_candidate_pauses(track, "over. next", abbreviations=ABBREVS) == []

    def test_exact_threshold_included(self):
        track = track_for([("over", 0.0, 1.0), ("next", 1.08, 2.0)])
        pauses = find_candidate_pauses(track, "over. next", abbreviations=ABBREVS)
        assert len(pauses) == 1

    def test_no_period_no_candidates(self):
        track = track_for([("a", 0.0, 0.2), ("b", 1.0, 1.2)])
        assert find_candidate_pauses(track, "a b", abbreviations=ABBREVS) == []

    def test_default_abbreviations_when_none_given(self):
        track = track_for([("mr", 0.0, 0.3), ("smith", 0.6, 1.0), ("left", 1.1, 1.6),
                           ("then", 2.0, 2.4)])
        transcript = "Mr. Smith left. Then"
        pauses = find_candidate_pauses(track, transcript)
        assert pauses == find_candidate_pauses(track, transcript, abbreviations=ABBREVS)
        assert pauses == [Pause(1.6, 2.0, 2)]

    def test_token_count_mismatch(self):
        track = track_for([("a", 0.0, 0.2)])
        with pytest.raises(AlignmentError, match="words"):
            find_candidate_pauses(track, "a b", abbreviations=ABBREVS)

    def test_period_with_closing_quote(self):
        track = track_for([("stop", 0.0, 0.5), ("then", 1.0, 1.4)])
        pauses = find_candidate_pauses(track, 'stop." Then', abbreviations=ABBREVS)
        assert len(pauses) == 1


class TestChooseSplit:
    def test_empty_no_split(self):
        assert choose_split([], rng_seed=1) is None

    def test_longest_wins(self):
        pauses = [Pause(1.0, 1.1, 0), Pause(5.0, 5.3, 3)]
        pause = choose_split(pauses, rng_seed=1)
        assert pause is pauses[1]
        assert pause.midpoint_s == pytest.approx(5.15)

    def test_tie_break_deterministic(self):
        pauses = [Pause(1.0, 1.25, 0), Pause(5.0, 5.25, 3)]
        seed = utterance_seed("some_utt", 42)
        picks = {choose_split(pauses, seed) for _ in range(10)}
        assert len(picks) == 1

    def test_tie_break_depends_on_seed(self):
        pauses = [Pause(1.0, 1.25, 0), Pause(5.0, 5.25, 3)]
        picks = {choose_split(pauses, utterance_seed(f"utt{i}", 0)) for i in range(64)}
        assert picks == set(pauses)  # both sides reachable over many utterances

    def test_tie_break_picks_are_fixed(self):
        # The pause each seed picks among three tied ones and a shorter one:
        # the same picks give the same cuts, run after run and release after release.
        pauses = [Pause(0.0, 0.25, 0), Pause(1.0, 1.1, 1), Pause(2.0, 2.25, 2),
                  Pause(3.0, 3.25, 3)]
        picks = [choose_split(pauses, seed).word_index for seed in range(16)]
        assert picks == [2, 3, 2, 0, 2, 3, 3, 0, 2, 2, 2, 0, 0, 2, 3, 3]

    def test_midpoint(self):
        pause = choose_split([Pause(2.0, 2.5, 1)], rng_seed=0)
        assert pause.midpoint_s == pytest.approx(2.25)


class TestApplySplit:
    def test_no_split_identity(self):
        rec = make_record()
        assert apply_split(rec, choose_split([], 0)) == [rec]

    def test_two_children_partition_duration(self):
        rec = make_record(duration_s=15.0)
        track = track_for([("it", 0.0, 2.0), ("ended", 2.5, 7.0),
                           ("then", 7.2, 9.0), ("more", 9.5, 15.0)])
        pause = choose_split(
            find_candidate_pauses(track, rec.text, abbreviations=ABBREVS), 7)
        a, b = apply_split(rec, pause)
        assert a.utterance_id == "ch1_0001_a"
        assert b.utterance_id == "ch1_0001_b"
        assert a.duration_s == pytest.approx(7.1)
        assert a.duration_s + b.duration_s == rec.duration_s  # exact
        assert b.offset_s == rec.offset_s + a.duration_s

    def test_transcript_partitioned_at_period(self):
        rec = make_record(text="A b. C d", raw_text="a b c d")
        track = track_for([("a", 0.0, 1.0), ("b", 1.0, 2.0),
                           ("c", 3.0, 4.0), ("d", 4.0, 5.0)])
        pause = choose_split(
            find_candidate_pauses(track, rec.text, abbreviations=ABBREVS), 0)
        a, b = apply_split(rec, pause)
        assert a.text == "A b."
        assert b.text == "C d"
        assert a.raw_text == "a b"
        assert b.raw_text == "c d"
        assert f"{a.text} {b.text}" == rec.text

    def test_raw_text_of_another_word_count_is_stripped_from_text(self):
        # raw_text has a word more than text, so it cannot be cut at the same
        # word: each child's raw_text is its text with punctuation stripped.
        rec = make_record(text="It ended. Then more", raw_text="it ended then more now")
        track = track_for([("it", 0.0, 2.0), ("ended", 2.5, 7.0),
                           ("then", 7.2, 9.0), ("more", 9.5, 15.0)])
        pause = choose_split(
            find_candidate_pauses(track, rec.text, abbreviations=ABBREVS), 0)
        a, b = apply_split(rec, pause)
        assert (a.text, a.raw_text) == ("It ended.", "it ended")
        assert (b.text, b.raw_text) == ("Then more", "then more")

    def test_metrics_cleared_and_metadata_copied(self):
        rec = make_record(bandwidth_hz=14000, num_speakers=1)
        track = track_for([("it", 0.0, 2.0), ("ended", 2.5, 7.0),
                           ("then", 7.2, 9.0), ("more", 9.5, 15.0)])
        pause = choose_split(
            find_candidate_pauses(track, rec.text, abbreviations=ABBREVS), 0)
        a, b = apply_split(rec, pause)
        for child in (a, b):
            assert child.wer_pct is None
            assert child.cer_pct is None
            assert child.bandwidth_hz == 14000
            assert child.num_speakers == 1
            assert child.speaker_id == rec.speaker_id

    def test_partition_fix_up(self):
        # The first part plus the parent minus it is not the parent here, so
        # the loop has to move the first part.
        assert 1.1107 + (6.0505 - 1.1107) != 6.0505
        a, b = _exact_partition(6.0505, 1.1107)
        assert a + b == 6.0505
        assert a == pytest.approx(1.1107, abs=1e-12) and b == pytest.approx(4.9398, abs=1e-12)

    @pytest.mark.parametrize("seed", range(2))
    def test_partition_sums_exactly(self, seed):
        rng = random.Random(seed)
        fixed = 0
        for _ in range(2000):
            total = round(rng.uniform(0.1, 3600), 4)
            first = round(rng.uniform(0.0001, total - 0.0001), 4)
            a, b = _exact_partition(total, first)
            assert a + b == total
            assert abs(a - first) <= 1e-9 * total
            fixed += first + (total - first) != total
        assert fixed  # some cuts need the fix-up loop

    def test_split_point_out_of_range(self):
        rec = make_record(duration_s=5.0)
        with pytest.raises(AlignmentError, match="outside"):
            apply_split(rec, Pause(6.9, 7.1, 1))

    def test_children_within_parent_span(self):
        rec = make_record(duration_s=12.0, offset_s=3.0)
        track = track_for([("it", 0.0, 2.0), ("ended", 2.5, 5.0),
                           ("then", 5.5, 9.0), ("more", 9.5, 12.0)])
        pause = choose_split(
            find_candidate_pauses(track, rec.text, abbreviations=ABBREVS), 0)
        a, b = apply_split(rec, pause)
        assert a.offset_s >= rec.offset_s
        assert b.offset_s + b.duration_s <= rec.offset_s + rec.duration_s + 1e-12


class TestReaders:
    def test_alignments_jsonl(self, tmp_path):
        path = tmp_path / "all.jsonl"
        path.write_text(
            '{"utterance_id": "u1", "tokens": [{"word": "a", "start": 0, "end": 1}]}\n'
            '{"utterance_id": "u2", "tokens": []}\n'
        )
        tracks = load_alignments_jsonl(path)
        assert set(tracks) == {"u1", "u2"}
        assert tracks["u1"][0].word == "a"

    def test_ctm(self, tmp_path):
        path = tmp_path / "all.ctm"
        path.write_text("u1 1 0.00 0.50 hello\nu1 1 0.60 0.40 world\n")
        tracks = load_ctm(path)
        assert [t.word for t in tracks["u1"]] == ["hello", "world"]
        assert tracks["u1"][1].end_s == pytest.approx(1.0)

    def test_ctm_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "all.ctm"
        path.write_text(";; a comment\nu1 1 0.00 0.50 hello\n;; another\n")
        assert load_ctm(path) == {"u1": [AlignmentToken("hello", 0.0, 0.5)]}

    # A fault a reader raises as a ManifestError keeps its class and gains
    # the file and line; any other fault is a ManifestError.
    @pytest.mark.parametrize("name,content,cls,message", [
        ("bad.ctm", "u1 1 0.5 -0.2 hello\n", AlignmentError, "token 'hello' has start > end"),
        ("bad.ctm", "u1 1 0.5 inf hello\n", InvariantError, "end: must be finite, got inf"),
        ("bad.ctm", "u1 1 0.5\n", ManifestError, "not enough values to unpack"),
        ("bad.ctm", "u1 1 zero 0.2 a\n", ManifestError, "could not convert"),
        ("bad.jsonl", '{"utterance_id": "u1", "tokens": [{"word": "a", "start": 1, "end": 0}]}\n',
         AlignmentError, "token 'a' has start > end"),
        ("bad.jsonl", '{"utterance_id": "u1"\n', ManifestError, "malformed JSON: "),
        ("bad.jsonl", '{"utterance_id": "u1"}\n', ManifestError, "missing key 'tokens'"),
        ("bad.jsonl", '{"utterance_id": "u1", "tokens": [5]}\n', AlignmentError,
         "token must be a JSON object, got 5"),
    ], ids=["ctm-start-after-end", "ctm-infinite", "ctm-short-line", "ctm-bad-time",
            "jsonl-start-after-end", "jsonl-malformed", "jsonl-missing-key",
            "jsonl-token-not-an-object"])
    def test_fault_keeps_its_class(self, tmp_path, name, content, cls, message):
        path = tmp_path / name
        path.write_text(content)
        load = load_ctm if name.endswith(".ctm") else load_alignments_jsonl
        with pytest.raises(ManifestError) as info:
            load(path)
        assert type(info.value) is cls
        assert str(info.value).startswith(f"{path}:1: {message}")

    def test_bad_token_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"utterance_id": "u1", "tokens": [{"word": "x", "start": 2.0, "end": 1.0}]}\n')
        with pytest.raises(AlignmentError, match="start > end"):
            load_alignments_jsonl(path)


def test_utterance_seed_stable():
    assert utterance_seed("u1", 7) == utterance_seed("u1", 7)
    assert utterance_seed("u1", 7) != utterance_seed("u2", 7)
    assert utterance_seed("u1", 7) != utterance_seed("u1", 8)
