import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speechcurate.textproc import (
    NormalizationRules,
    TextError,
    clean_formatting,
    default_rules,
    edit_stats,
    levenshtein,
    load_rules,
    match_transcript,
    normalize_spoken,
    passes_cer_gate,
    strip_pc,
    strip_pc_map,
)


class TestStripPc:
    def test_basic(self):
        assert strip_pc("Hello, World!") == "hello world"

    def test_empty(self):
        assert strip_pc("") == ""

    def test_commas_removed(self):
        text = "beautifully shaped and coloured glass, and saltcellars,"
        assert strip_pc(text) == "beautifully shaped and coloured glass and saltcellars"

    def test_quotes_and_backticks(self):
        assert strip_pc('`` `It is my purpose,\' " mister Allen') == (
            "it is my purpose mister allen")

    def test_whitespace_collapse(self):
        assert strip_pc("a\n\n  b\tc ") == "a b c"

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=80))
    def test_idempotent(self, text):
        once = strip_pc(text)
        assert strip_pc(once) == once


class TestMatchTranscript:
    def test_restores_punctuated_slice(self):
        chapter = "She said: Hello, world! Then she left."
        match = match_transcript("hello world", chapter)
        assert match.matched
        assert match.restored_text == "Hello, world!"
        assert strip_pc(match.restored_text) == "hello world"

    def test_absent_transcript(self):
        assert not match_transcript("not here", "some chapter text").matched

    def test_full_chapter_identity(self):
        chapter = "Only these words."
        match = match_transcript("only these words", chapter)
        assert match.matched
        assert match.restored_text == chapter

    def test_word_boundary_enforced(self):
        # "end" must not match inside "bend"
        assert not match_transcript("end", "they bend the rules").matched

    def test_first_occurrence_wins(self):
        chapter = "yes indeed. More words. Yes, indeed!"
        match = match_transcript("yes indeed", chapter)
        assert match.matched
        assert match.restored_text == "yes indeed."

    def test_leading_quote_included(self):
        chapter = 'He cried "Stop right there!" loudly.'
        match = match_transcript("stop right there", chapter)
        assert match.matched
        assert match.restored_text == '"Stop right there!"'

    def test_strip_property_holds_over_newlines(self):
        chapter = "First part.\nHello,\n  world! And more."
        match = match_transcript("hello world", chapter)
        assert match.matched
        assert strip_pc(match.restored_text) == "hello world"


_CHAPTER_WORDS = ("time", "river", "stone", "garden", "don't", "it's", "Mr.",
                  "voice", "window", "summer", "quiet", "morning")


@st.composite
def _chapter_and_queries(draw):
    """A punctuated, formatted chapter plus hits, near misses and random word runs."""
    words = []
    for _ in range(draw(st.integers(1, 8))):
        sentence = draw(st.lists(st.sampled_from(_CHAPTER_WORDS), min_size=1, max_size=9))
        if len(sentence) > 1 and draw(st.booleans()):
            k = draw(st.integers(0, len(sentence) - 2))
            sentence[k] += ","
        if draw(st.booleans()):
            k = draw(st.integers(0, len(sentence) - 1))
            sentence[k] = f'"{sentence[k]}"'
        sentence[0] = sentence[0].capitalize()
        sentence[-1] += draw(st.sampled_from(".!?"))
        words.extend(sentence)
    separators = draw(st.lists(st.sampled_from([" ", " ", "\n", "  "]),
                               min_size=len(words), max_size=len(words)))
    body = "".join(w + sep for w, sep in zip(words, separators))
    chapter = clean_formatting(f"<h1>Chapter</h1>\n<p>nbsp {body} p p</p>")
    queries = []
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, len(words) - 1))
        j = draw(st.integers(i + 1, len(words)))
        hit = " ".join(words[i:j])
        queries += [hit, strip_pc(hit), strip_pc(hit) + " zzzz"]
    queries.append(" ".join(draw(st.lists(st.sampled_from(_CHAPTER_WORDS), max_size=4))))
    return chapter, queries


class TestPrenormalizedChapter:
    @settings(max_examples=200, deadline=None)
    @given(_chapter_and_queries())
    def test_same_result_as_plain_call(self, case):
        chapter, queries = case
        chapter_norm = strip_pc_map(chapter)
        outcomes = set()
        for query in queries:
            expected = match_transcript(query, chapter)
            assert match_transcript(query, chapter, chapter_norm) == expected, query
            outcomes.add(expected.matched)
        assert True in outcomes  # every case contains at least one hit

    def test_map_points_at_source_characters(self):
        chapter = 'A "Quoted,"\n  word. End!'
        norm, omap = strip_pc_map(chapter)
        assert norm == strip_pc(chapter) == "a quoted word end"
        assert len(omap) == len(norm)
        for k, ch in enumerate(norm):
            source = chapter[omap[k]]
            assert source.isspace() if ch == " " else source.lower() == ch


class TestCleanFormatting:
    def test_nbsp_removed(self):
        assert clean_formatting("anxiety nbsp it is") == "anxiety it is"

    def test_p_p_removed(self):
        assert clean_formatting("calculations p p rather would") == (
            "calculations rather would")

    def test_html_tags_removed(self):
        assert clean_formatting("<i>word</i>") == "word"

    def test_identity_without_artifacts(self):
        assert clean_formatting("plain text here") == "plain text here"

    def test_idempotent(self):
        text = "<b>bold</b> nbsp and p p done"
        once = clean_formatting(text)
        assert clean_formatting(once) == once

    def test_nbsp_inside_word_untouched(self):
        assert clean_formatting("unbspx stays") == "unbspx stays"


class TestNormalizeSpoken:
    def test_mr_expansion_preserves_caps(self):
        assert normalize_spoken("Mr Allen read") == "Mister Allen read"

    def test_period_form_consumes_the_period(self):
        assert normalize_spoken("Mr. Allen read") == "Mister Allen read"
        assert normalize_spoken('"Dr. S. spoke,"') == '"Doctor S. spoke,"'

    def test_sentence_final_period_kept_for_non_titles(self):
        assert normalize_spoken("of gold, c.") == "of gold, et cetera."

    def test_mrs_lowercase(self):
        assert normalize_spoken("said mrs evangelina") == "said misses evangelina"

    def test_c_to_et_cetera(self):
        assert normalize_spoken("tankards c of gold") == "tankards et cetera of gold"

    def test_no_rule_hits_identity(self):
        assert normalize_spoken("nothing to expand here") == "nothing to expand here"

    def test_digits_pass_through(self):
        assert normalize_spoken("chapter 42 begins") == "chapter 42 begins"

    def test_idempotent(self):
        text = "Mr Allen c done"
        once = normalize_spoken(text)
        assert normalize_spoken(once) == once

    def test_rules_file_round_trip(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("mr\tmister\n! nbsp\n", encoding="utf-8")
        rules = load_rules(path)
        assert rules.abbreviation_expansions["mr"] == "mister"
        assert ("nbsp", "") in rules.artifact_patterns


def naive_levenshtein(a, b):
    """Full-matrix DP oracle."""
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            d[i][j] = min(
                d[i - 1][j] + 1,
                d[i][j - 1] + 1,
                d[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return d[m][n]


class TestEditStats:
    def test_equal_strings_zero(self):
        stats = edit_stats("a b c", "a b c")
        assert stats.wer_pct == 0.0
        assert stats.cer_pct == 0.0

    def test_single_word_deletion(self):
        stats = edit_stats("a b c", "a c")
        assert stats.wer_pct == pytest.approx(100 / 3)

    def test_cer_above_100(self):
        stats = edit_stats("ab", "xyz qq")
        assert stats.cer_pct > 100.0
        assert stats.char_edits == naive_levenshtein("ab", "xyz qq")

    def test_empty_reference_errors(self):
        with pytest.raises(TextError, match="empty reference"):
            edit_stats("...", "something")

    def test_strip_pc_applied_before_comparison(self):
        assert edit_stats("Hello, World!", "hello world").cer_pct == 0.0

    def test_matches_oracle_small_strings(self):
        alphabet = "abc"
        for la in range(0, 5):
            for lb in range(0, 5):
                for a in itertools.product(alphabet, repeat=la):
                    for b in itertools.product(alphabet, repeat=lb):
                        assert levenshtein(a, b) == naive_levenshtein(a, b)

    @settings(max_examples=200, deadline=None)
    @given(
        st.text(alphabet="abc", max_size=12),
        st.text(alphabet="abc", max_size=12),
    )
    def test_matches_oracle_property(self, a, b):
        assert levenshtein(a, b) == naive_levenshtein(a, b)

    @settings(max_examples=100, deadline=None)
    @given(
        st.text(alphabet="abcd", max_size=200),
        st.text(alphabet="abcd", max_size=200),
    )
    # lengths at and around multiples of a 64-bit machine word
    @example("ab" * 32, "ba" * 32)
    @example("abc" * 21, "abd" * 21 + "aa")
    @example("abcd" * 16 + "a", "abcd" * 16)
    @example("a" * 128, "a" * 64 + "b" + "a" * 63)
    @example("", "abcd" * 50)
    @example("abcd" * 50, "dcba" * 50)
    def test_matches_oracle_long_property(self, a, b):
        assert levenshtein(a, b) == naive_levenshtein(a, b)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.sampled_from(["the", "a", "river", "stone", "it's"]), max_size=200),
        st.lists(st.sampled_from(["the", "a", "river", "stone", "it's"]), max_size=200),
    )
    @example(["the"] * 64, ["a"] + ["the"] * 64)
    @example(("the", "a") * 32, ("a", "the") * 32)
    def test_matches_oracle_word_tokens(self, ref, hyp):
        assert levenshtein(ref, hyp) == naive_levenshtein(ref, hyp)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.sampled_from(["aa", "bb", "cc"]), max_size=5),
        st.lists(st.sampled_from(["aa", "bb", "cc"]), max_size=5),
    )
    def test_word_level_bound(self, ref, hyp):
        if not ref:
            return
        stats = edit_stats(" ".join(ref), " ".join(hyp))
        assert stats.word_edits <= len(ref) + len(hyp)
        assert stats.word_edits == naive_levenshtein(ref, hyp)


class TestCerGate:
    def test_just_below_passes(self):
        stats = edit_stats("aaaa aaaa", "bbbb")
        assert passes_cer_gate(stats, max_cer_pct=stats.cer_pct + 0.01)

    def test_boundary(self):
        class Fake:
            cer_pct = 100.0

        assert not passes_cer_gate(Fake())
        Fake.cer_pct = 99.9
        assert passes_cer_gate(Fake())
        Fake.cer_pct = 250.0
        assert not passes_cer_gate(Fake())
