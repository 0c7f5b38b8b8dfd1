"""Synthetic corpus generator for end-to-end pipeline tests.

Builds chapter WAVs, book texts, an input manifest, alignments, ASR
hypotheses, and diarization counts that are mutually consistent, so the
full pipeline can run unattended and deterministically.
"""

import json
from pathlib import Path

import numpy as np

from speechcurate.audio import AudioBuffer, save_pcm
from speechcurate.config import PipelineConfig
from speechcurate.manifest import ChapterRecord, UtteranceRecord, write_manifest
from speechcurate.textproc import strip_pc

from conftest import lowpassed_noise

SR = 48000
EDGE_SILENCE_S = 0.3   # below the 0.5 s trim allowance: audio stage keeps it
WORD_S = 0.25
GAP_S = 0.05
PAUSE_S = 0.4

# (chapter cutoff Hz, sentences per utterance). Two-sentence utterances get a
# qualifying pause planted between the sentences.
CHAPTER_SPECS = [
    ("ch0", 8000, "spk0"),
    ("ch1", 12000, "spk1"),
    ("ch2", 14000, "spk2"),
    ("ch3", 20000, "spk3"),
]

WORDS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
         "hotel", "india", "juliet", "kilo", "lima"]


def _sentence(idx, n_words):
    picked = [WORDS[(idx + k) % len(WORDS)] for k in range(n_words)]
    return " ".join(picked).capitalize() + "."


def build_utterance_plan(chapter_idx, utt_idx):
    """Return (book_sentences, has_split) for one utterance."""
    base = chapter_idx * 31 + utt_idx * 7
    if utt_idx % 2 == 0:
        return [_sentence(base, 4), _sentence(base + 3, 4)], True
    return [_sentence(base, 5)], False


def _word_track(sentences):
    """Token timings inside the utterance, pause planted between sentences."""
    tokens = []
    t = EDGE_SILENCE_S
    for si, sentence in enumerate(sentences):
        if si > 0:
            t += PAUSE_S
        for word in sentence.split():
            tokens.append({"word": strip_pc(word), "start": round(t, 4),
                           "end": round(t + WORD_S, 4)})
            t += WORD_S + GAP_S
    return tokens, t - GAP_S + EDGE_SILENCE_S


def build_corpus(root: Path, n_utts_per_chapter=5):
    root = Path(root)
    (root / "raw").mkdir(parents=True, exist_ok=True)
    (root / "text").mkdir(exist_ok=True)
    chapters = []
    utterances = []
    alignments = []
    hyps = []
    counts = []

    for ci, (chapter_id, cutoff, speaker) in enumerate(CHAPTER_SPECS):
        chapter_sentences = []
        offset = 0.0
        for ui in range(n_utts_per_chapter):
            utt_id = f"{chapter_id}_{ui:04d}"
            sentences, has_split = build_utterance_plan(ci, ui)
            tokens, utt_dur = _word_track(sentences)

            raw_text = strip_pc(" ".join(sentences))
            if ci == 0 and ui == 1:
                # deliberately not present in the book text: predicted_pc path
                raw_text = "zulu yankee xray whiskey victor"
                sentences = []
                tokens = [
                    {"word": w, "start": round(EDGE_SILENCE_S + k * (WORD_S + GAP_S), 4),
                     "end": round(EDGE_SILENCE_S + k * (WORD_S + GAP_S) + WORD_S, 4)}
                    for k, w in enumerate(raw_text.split())
                ]
                has_split = False
            chapter_sentences.extend(sentences)

            utterances.append(UtteranceRecord(
                utterance_id=utt_id,
                book_id="book0",
                chapter_id=chapter_id,
                speaker_id=speaker,
                audio_path=f"raw/{chapter_id}.wav",
                offset_s=round(offset, 4),
                duration_s=round(utt_dur, 4),
                raw_text=raw_text,
                gender="f" if ci % 2 else "m",
            ))
            alignments.append({"utterance_id": utt_id, "tokens": tokens})

            # ASR hypotheses and speaker counts are keyed by post-split ids.
            if has_split:
                first, second = sentences
                split_ids = [(f"{utt_id}_a", first), (f"{utt_id}_b", second)]
            else:
                split_ids = [(utt_id, " ".join(sentences) if sentences else raw_text)]
            for final_id, text in split_ids:
                hyp = strip_pc(text)
                if ci == 3 and ui == 3:
                    hyp = "totally unrelated gibberish words entirely"  # CER >= 100
                elif ci == 1 and ui == 1:
                    hyp = " ".join(hyp.split()[:-1])  # one deletion: WER > 0
                hyps.append({"utterance_id": final_id, "hyp_text": hyp})
                counts.append({"utterance_id": final_id,
                               "num_speakers": 2 if (ci == 2 and ui == 1) else 1})
            offset += utt_dur

        # Continuous band-limited noise: no silence/noise steps whose clicks
        # would raise the broadband floor above the -50 dB bandwidth threshold.
        chapter_audio = lowpassed_noise(cutoff, offset, SR, seed=ci) * 0.3
        save_pcm(AudioBuffer(chapter_audio, SR),
                 root / "raw" / f"{chapter_id}.wav", bit_depth=32)
        text_path = root / "text" / f"{chapter_id}.txt"
        body = " ".join(chapter_sentences)
        # formatting artifacts the text stage must strip
        text_path.write_text(f"<h1>Chapter</h1> nbsp {body} p p\n", encoding="utf-8")
        chapters.append(ChapterRecord(
            chapter_id=chapter_id, book_id="book0", speaker_id=speaker,
            audio_path=f"raw/{chapter_id}.wav", sample_rate_hz=SR,
            book_text_path=str(text_path),
        ))

    write_manifest(chapters, root / "chapters.jsonl")
    write_manifest(utterances, root / "utterances.jsonl")
    with open(root / "alignments.jsonl", "w") as fh:
        for obj in alignments:
            fh.write(json.dumps(obj) + "\n")
    with open(root / "hyps.jsonl", "w") as fh:
        for obj in hyps:
            fh.write(json.dumps(obj) + "\n")
    with open(root / "counts.jsonl", "w") as fh:
        for obj in counts:
            fh.write(json.dumps(obj) + "\n")
    return root


def make_config(root: Path, out_dir: Path, workers=1, seed=0) -> PipelineConfig:
    return PipelineConfig(
        utterances_manifest=str(root / "utterances.jsonl"),
        chapters_manifest=str(root / "chapters.jsonl"),
        alignments_path=str(root / "alignments.jsonl"),
        asr_hypotheses_path=str(root / "hyps.jsonl"),
        speaker_counts_path=str(root / "counts.jsonl"),
        audio_root=str(root),
        out_dir=str(out_dir),
        workers=workers,
        seed=seed,
    )
