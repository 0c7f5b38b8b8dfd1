"""Transcript text processing.

Punctuation-and-capitalization (PC) recovery by substring match against the
source book text, formatting cleanup, rule-based spoken normalization, and
WER/CER edit statistics.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

from .manifest import read_text


class TextError(Exception):
    pass


# Characters treated as punctuation for PC stripping: Unicode P* plus
# backtick and straight quotes (typographic quoting must not break matches).
_EXTRA_PUNCT = {"`", '"', "'"}


def _is_punct(ch: str) -> bool:
    return ch in _EXTRA_PUNCT or unicodedata.category(ch).startswith("P")


def strip_pc_map(text: str) -> tuple[str, list[int]]:
    """Normalize text and keep a per-character map back to original offsets.

    Returns ``(strip_pc(text), omap)`` where ``omap[k]`` is the index in
    ``text`` of the character that produced normalized character ``k``.
    """
    out: list[str] = []
    omap: list[int] = []
    pending_space = -1  # original index of the whitespace run head, -1 = none
    for i, ch in enumerate(text):
        if ch.isspace():
            if out and pending_space < 0:
                pending_space = i
            continue
        if _is_punct(ch):
            continue
        if pending_space >= 0:
            out.append(" ")
            omap.append(pending_space)
            pending_space = -1
        for low in ch.lower():
            out.append(low)
            omap.append(i)
    return "".join(out), omap


def strip_pc(text: str) -> str:
    """Lowercase, drop punctuation, collapse whitespace runs, trim edges."""
    return strip_pc_map(text)[0]


@dataclass(frozen=True)
class TranscriptMatch:
    matched: bool
    restored_text: str | None = None


def match_transcript(
    transcript: str,
    chapter_text: str,
    chapter_norm: tuple[str, list[int]] | None = None,
) -> TranscriptMatch:
    """Find the transcript's first occurrence as a word-boundary substring of the chapter.

    On success returns the original punctuated slice of the chapter, expanded
    over punctuation attached to the edge words. On failure the caller tags
    the utterance text_source = predicted_pc. Callers matching many
    transcripts against one chapter pass ``chapter_norm =
    strip_pc_map(chapter_text)``, computed once, so that each call costs one
    substring search instead of a pass over the whole chapter.
    """
    query = strip_pc(transcript)
    if not query:
        return TranscriptMatch(matched=False)
    norm, omap = strip_pc_map(chapter_text) if chapter_norm is None else chapter_norm
    hay = f" {norm} "
    needle = f" {query} "
    pos = hay.find(needle)
    if pos < 0:
        return TranscriptMatch(matched=False)
    n_start, n_end = pos, pos + len(query)  # span in norm
    o_start = omap[n_start]
    o_end = omap[n_end - 1] + 1
    # Pull in punctuation glued to the edge words (quotes, final period).
    while o_start > 0 and not chapter_text[o_start - 1].isspace() \
            and _is_punct(chapter_text[o_start - 1]):
        o_start -= 1
    while o_end < len(chapter_text) and not chapter_text[o_end].isspace() \
            and _is_punct(chapter_text[o_end]):
        o_end += 1
    return TranscriptMatch(matched=True, restored_text=chapter_text[o_start:o_end])


@dataclass(frozen=True)
class NormalizationRules:
    """Token expansions plus literal formatting artifacts to delete/replace."""

    abbreviation_expansions: dict[str, str] = field(default_factory=dict)
    artifact_patterns: tuple[tuple[str, str], ...] = ()


DEFAULT_ARTIFACTS: tuple[tuple[str, str], ...] = (
    ("nbsp", ""),
    ("p p", ""),
)

_TAG_RE = re.compile(r"<[^<>]+>")
_WS_RE = re.compile(r"[ \t\f\v]+")


def load_rules(path: str | Path) -> NormalizationRules:
    """Read `token<TAB>expansion` lines; lines starting `! ` define artifacts.

    A file that cannot be read, or is not UTF-8, is a ConfigError naming it.
    """
    expansions: dict[str, str] = {}
    artifacts: list[tuple[str, str]] = []
    for raw in read_text(path).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("! "):
            parts = line[2:].split("\t")
            artifacts.append((parts[0], parts[1] if len(parts) > 1 else ""))
            continue
        token, _, expansion = line.partition("\t")
        if token:
            expansions[token.strip().lower()] = expansion.strip()
    return NormalizationRules(
        abbreviation_expansions=expansions,
        artifact_patterns=tuple(artifacts) if artifacts else DEFAULT_ARTIFACTS,
    )


def default_rules() -> NormalizationRules:
    return load_rules(Path(__file__).parent / "data" / "normalization_rules.txt")


def clean_formatting(text: str, rules: NormalizationRules | None = None) -> str:
    """Remove HTML tags and literal layout artifacts; re-collapse whitespace."""
    rules = rules or NormalizationRules(artifact_patterns=DEFAULT_ARTIFACTS)
    out = _TAG_RE.sub(" ", text)
    for literal, replacement in rules.artifact_patterns or DEFAULT_ARTIFACTS:
        pattern = re.compile(
            r"(?<!\S)" + re.escape(literal) + r"(?!\S)")
        out = pattern.sub(replacement, out)
    out = "\n".join(_WS_RE.sub(" ", line).strip() for line in out.split("\n"))
    return re.sub(r"\n{2,}", "\n\n", out).strip()


_WORD_CORE_RE = re.compile(r"^(\W*)(.*?)(\W*)$", re.DOTALL)


def normalize_spoken(text: str, rules: NormalizationRules | None = None) -> str:
    """Expand abbreviations to spoken forms, preserving capitalization.

    Tokens containing digits or symbols with no covering rule pass through
    unchanged.
    """
    rules = rules or default_rules()
    out_tokens = []
    for token in text.split(" "):
        prefix, core, suffix = _WORD_CORE_RE.match(token).groups()
        expansion = None
        if core and suffix.startswith("."):
            # a "token." rule consumes the abbreviation period itself
            expansion = rules.abbreviation_expansions.get(core.lower() + ".")
            if expansion is not None:
                suffix = suffix[1:]
        if expansion is None:
            expansion = rules.abbreviation_expansions.get(core.lower())
        if expansion is not None and core:
            if core[0].isupper():
                expansion = expansion[:1].upper() + expansion[1:]
            out_tokens.append(prefix + expansion + suffix)
            continue
        out_tokens.append(token)
    return " ".join(out_tokens)


@dataclass(frozen=True)
class EditStats:
    word_edits: int
    ref_words: int
    char_edits: int
    ref_chars: int

    @property
    def wer_pct(self) -> float:
        return 100.0 * self.word_edits / self.ref_words

    @property
    def cer_pct(self) -> float:
        return 100.0 * self.char_edits / self.ref_chars


def levenshtein(ref, hyp) -> int:
    """Unit-cost edit distance between two sequences of hashable tokens.

    Bit-parallel algorithm of Myers (JACM 46(3), 1999) in the formulation of
    Hyyrö (2003): the shorter sequence is the pattern, one bit per token in
    a Python int, and each token of the longer sequence updates the whole
    column of vertical deltas with a few word operations, O(ceil(m/w) * n)
    for pattern length m, text length n and machine word size w. Works for
    characters (CER) and word lists (WER) alike.
    """
    if len(ref) < len(hyp):
        ref, hyp = hyp, ref
    m = len(hyp)
    if m == 0:
        return len(ref)
    peq: dict = {}  # token -> bitmask of its positions in the pattern
    for i, token in enumerate(hyp):
        peq[token] = peq.get(token, 0) | (1 << i)
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    pv, mv, score = mask, 0, m  # column 0: every vertical delta is +1
    for token in ref:
        eq = peq.get(token, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        # row 0 grows by one per text token: shift in a +1 horizontal delta
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
    return score


def edit_stats(ref: str, hyp: str) -> EditStats:
    """Word and character Levenshtein counts between PC-stripped texts.

    Character distance includes spaces. Rates are percentages of the
    reference length and may exceed 100.
    """
    ref_norm = strip_pc(ref)
    hyp_norm = strip_pc(hyp)
    if not ref_norm:
        raise TextError("empty reference")
    ref_words = ref_norm.split()
    hyp_words = hyp_norm.split()
    return EditStats(
        word_edits=levenshtein(ref_words, hyp_words),
        ref_words=len(ref_words),
        char_edits=levenshtein(ref_norm, hyp_norm),
        ref_chars=len(ref_norm),
    )


def passes_cer_gate(stats: EditStats, max_cer_pct: float = 100.0) -> bool:
    """True iff CER is strictly below the threshold (default: drop >= 100%)."""
    return stats.cer_pct < max_cer_pct
