"""Seeded synthetic corpora for the benchmark workloads.

`generate(workload, seed, root)` writes the program's inputs under `root`
and returns the plan: how every record must come out of the run. The
program only ever sees the input files; the plan stays with the benchmark.

Sizes are fixed per workload (durations are fixed quantiles, shuffled by
the seed; planted cases are fixed counts), so run time barely moves from
one seed to the next. The seed decides content: words, order, timings,
which records carry the planted cases.
"""

from __future__ import annotations

import json
import random
import wave
from pathlib import Path
from statistics import NormalDist

import numpy as np

STAGE_ORDER = ("text", "audio", "bandwidth", "segment", "validate", "speakers")

# stages and workers per workload; `tail` runs corpus_stats and build_subset
# on the final manifest, the way a user finishes a run.
WORKLOADS = {
    "book_text": {"kind": "pipeline", "stages": ["text", "segment", "validate", "speakers"],
                  "workers": 2, "tail": False},
    "audio_hours": {"kind": "pipeline", "stages": ["audio", "bandwidth"],
                    "workers": 2, "tail": False},
    "full_corpus": {"kind": "pipeline", "stages": list(STAGE_ORDER),
                    "workers": 1, "tail": True},
    "curate_manifest": {"kind": "curate", "stages": [], "workers": 1, "tail": True},
}

MIN_PAUSE_S = 0.08  # PipelineConfig.min_pause_s: shorter gaps are never cut
SUBSET_SPEC = {"min_bandwidth_hz": 11000, "max_cer_pct": 3.0, "max_num_speakers": 1}

RAMP_S = 0.02  # raised-cosine edge on every speech run

# Words that the default normalization rules or abbreviation list would
# rewrite; pseudo-words must never collide with them.
RESERVED = {"mr", "mrs", "dr", "st", "jr", "sr", "prof", "rev", "hon", "c", "etc",
            "vs", "no", "nbsp", "p"}
TITLES = [("Mr", "Mister"), ("Mrs", "Misses"), ("Dr", "Doctor"), ("St", "Saint"),
          ("Prof", "Professor"), ("Rev", "Reverend")]

_ONSETS = "b d f g h k l m n p r s t v z br dr gr kl pl st tr sk".split()
_VOWELS = "a e i o u ai ou ea".split()
_CODAS = ["", "", "", "n", "r", "s", "l"]


def _vocab(rng: random.Random, n: int) -> list[str]:
    words: set[str] = set()
    while len(words) < n:
        syllables = [rng.choice(_ONSETS) + rng.choice(_VOWELS)
                     for _ in range(rng.choice((2, 2, 3)))]
        word = "".join(syllables) + rng.choice(_CODAS)
        if word not in RESERVED:
            words.add(word)
    return sorted(words)


def _durations(rng: random.Random, n: int, median: float, sigma: float,
               lo: float, hi: float) -> list[float]:
    """n log-normal quantiles clipped to [lo, hi], in seeded order."""
    dist = NormalDist()
    out = [min(hi, max(lo, median * float(np.exp(sigma * dist.inv_cdf((i + 0.5) / n)))))
           for i in range(n)]
    rng.shuffle(out)
    return out


def _pick(rng: random.Random, candidates: list[int], share: float) -> set[int]:
    return set(rng.sample(candidates, min(len(candidates), round(share * len(candidates)))))


# --------------------------------------------------------------------------
# text


def _word_s(norm: str) -> float:
    return 0.12 + 0.045 * len(norm)


def _sentence(rng: random.Random, vocab: list[str], k: int, final: str) -> list[dict]:
    """k tokens: {book, spoken, norm}. `book` is the cleaned book form,
    `spoken` what normalize_spoken turns it into, `norm` its PC-stripped form."""
    title_at = rng.randrange(k - 1) if k >= 3 and rng.random() < 0.3 else -1
    tokens = []
    for i in range(k):
        if i == title_at:
            abbr, spoken = rng.choice(TITLES)
            tokens.append({"book": abbr + ".", "spoken": spoken, "norm": abbr.lower()})
            continue
        word = rng.choice(vocab)
        core = word.capitalize() if i == 0 or i == title_at + 1 else word
        suffix = final if i == k - 1 else ("," if rng.random() < 0.12 else "")
        tokens.append({"book": core + suffix, "spoken": core + suffix, "norm": word})
    if rng.random() < 0.2:
        for key in ("book", "spoken"):
            tokens[0][key] = "“" + tokens[0][key]
            tokens[-1][key] = tokens[-1][key] + "”"
    return tokens


def _sentences(rng, vocab, n: int, finals_dot: bool) -> list[list[dict]]:
    out, left = [], n
    while left:
        k = min(left, rng.randint(3, 12))
        if left - k in (1, 2):
            k = left
        final = "." if finals_dot or rng.random() < 0.8 else rng.choice("?!")
        out.append(_sentence(rng, vocab, k, final))
        left -= k
    return out


def _text_utterance(rng, vocab, speech_s: float, split: bool) -> dict:
    """Tokens, alignment gaps and (when split) the planted pause."""
    n = max(2, round(speech_s * 2.4))
    if split:
        # The pause follows token w, early enough that a cut shifted by the
        # longest planted leading silence still lands inside the utterance.
        w = rng.randint(2, max(2, int(0.45 * n)))
        head = _sentences(rng, vocab, w + 1, finals_dot=False)
        last = head[-1][-1]
        last["book"] = last["spoken"] = last["book"].rstrip(".?!”") + "."
        if head[-1][0]["book"].startswith("“"):
            last["book"] = last["spoken"] = last["book"] + "”"
        sentences = head + _sentences(rng, vocab, n - w - 1, finals_dot=False)
    else:
        w = -1
        sentences = _sentences(rng, vocab, n, finals_dot=False)
    tokens, gaps = [], []
    for si, sentence in enumerate(sentences):
        for ti, tok in enumerate(sentence):
            tokens.append(tok)
            if ti < len(sentence) - 1:
                gaps.append(rng.uniform(0.1, 0.25) if tok["book"].endswith(",")
                            else rng.uniform(0.02, 0.06))
            elif si < len(sentences) - 1:
                if not tok["book"].rstrip("”").endswith("."):
                    gaps.append(rng.uniform(0.2, 0.6))    # ?/! pause: never a cut
                elif split and rng.random() < 0.5:
                    gaps.append(rng.uniform(0.09, 0.2))   # shorter candidate pause
                else:
                    gaps.append(rng.uniform(0.02, 0.06))
    if split:
        gaps[w] = rng.uniform(0.3, 0.8)
    return {"tokens": tokens, "gaps": gaps, "split_at": w}


def _timeline(utt: dict, lead: float, trail: float) -> None:
    """Alignment track, speech runs and duration, relative to utterance start."""
    t, track = lead, []
    for i, tok in enumerate(utt["tokens"]):
        start, end = round(t, 4), round(t + _word_s(tok["norm"]), 4)
        track.append({"word": tok["norm"], "start": start, "end": end})
        if i < len(utt["gaps"]):
            t = end + utt["gaps"][i]
    runs = [[track[0]["start"], track[0]["end"]]]
    for tok in track[1:]:
        if tok["start"] - runs[-1][1] < MIN_PAUSE_S:
            runs[-1][1] = tok["end"]
        else:
            runs.append([tok["start"], tok["end"]])
    utt.update(track=track, runs=runs, lead=lead, trail=trail,
               duration=round(track[-1]["end"] + trail, 4))
    if utt["split_at"] >= 0:
        w = utt["split_at"]
        utt["pause"] = [track[w]["end"], track[w + 1]["start"]]


def _hyp(rng, vocab, spoken: list[str], kind: str) -> tuple[str, float | None]:
    """ASR hypothesis and its exact WER; gibberish always has CER >= 100."""
    words = [_strip(w) for w in spoken]
    if kind == "gibberish":
        # at least twice as long as the reference: CER >= 100 whatever the text
        junk: list[str] = []
        while len(" ".join(junk)) < 2 * len(" ".join(words)) + 5:
            junk.append("".join(rng.choice("qxzjkvw") for _ in range(rng.randint(3, 8))))
        return " ".join(junk), None
    if kind == "errors":
        # fresh substitutes and one deletion: the word distance is exactly
        # their count, since each fresh word needs an edit of its own
        fresh: list[str] = []
        while len(fresh) < 2:
            word = rng.choice(vocab)
            if word not in words and word not in fresh:
                fresh.append(word)
        subs = rng.sample(range(len(words)), 2 if len(words) >= 8 else 1)
        for j, pos in enumerate(subs):
            words[pos] = fresh[j]
        deleted = 0
        if len(words) >= 6:
            keep = [i for i in range(len(words)) if i not in subs]
            del words[rng.choice(keep)]
            deleted = 1
        return " ".join(words), round(100.0 * (len(subs) + deleted) / len(spoken), 4)
    return " ".join(words), 0.0


def _strip(word: str) -> str:
    return "".join(ch for ch in word if ch.isalpha()).lower()


def _text_chapter(rng, vocab, chapter_id: str, durations: list[float], *,
                  split_share: float, predicted_share: float, long_lead_share: float,
                  silent_count: int = 0) -> tuple[list[dict], str]:
    """Utterances of one chapter plus its raw (HTML) book text."""
    n = len(durations)
    splittable = [i for i, d in enumerate(durations) if d >= 4.5]
    split = _pick(rng, splittable, split_share)
    predicted = _pick(rng, [i for i in range(n) if i not in split], predicted_share)
    long_lead = _pick(rng, sorted(i for i in split if durations[i] >= 6.0), long_lead_share)
    silent = set(rng.sample([i for i in range(n) if i not in split | predicted],
                            silent_count))
    while True:
        utts = []
        for i, d in enumerate(durations):
            lead = rng.uniform(1.0, 1.5) if i in long_lead else rng.uniform(0.1, 0.45)
            trail = rng.uniform(0.1, 0.45)
            utt = _text_utterance(rng, vocab, max(0.6, d - lead - trail), i in split)
            _timeline(utt, lead, trail)
            utt.update(uid=f"{chapter_id}_{i:04d}", predicted=i in predicted,
                       silent=i in silent)
            utts.append(utt)
        preface = [tok for s in _sentences(rng, vocab, 300, False) for tok in s]
        hay = " " + " ".join(t["norm"] for t in preface) + " " + " ".join(
            t["norm"] for u in utts if not u["predicted"] for t in u["tokens"]) + " "
        if all(hay.count(" " + " ".join(t["norm"] for t in u["tokens"]) + " ")
               == (0 if u["predicted"] else 1) for u in utts):
            break
    # Layout: heading, an uncovered preface, then paragraphs of utterances.
    # Tags wrap whole plain tokens and artifacts sit between utterances, so
    # cleaning leaves each utterance's text as its tokens joined by spaces.
    lines = [f"<h1>Chapter {chapter_id}</h1>", "<p>" + _html(rng, preface) + "</p>"]
    book_utts = [u for u in utts if not u["predicted"]]
    i = 0
    while i < len(book_utts):
        group = book_utts[i:i + rng.randint(3, 8)]
        i += len(group)
        parts = [_html(rng, u["tokens"]) for u in group]
        glue = [" nbsp " if rng.random() < 0.1 else " " for _ in parts[1:]]
        body = parts[0] + "".join(g + p for g, p in zip(glue, parts[1:]))
        lines.append("<p>" + body + "</p>")
        if rng.random() < 0.05:
            lines.append("p p")
    return utts, "\n".join(lines) + "\n"


def _html(rng, tokens: list[dict]) -> str:
    return " ".join(f"<i>{t['book']}</i>" if t["book"].isalpha() and rng.random() < 0.03
                    else t["book"] for t in tokens)


def _write_text_inputs(rng, vocab, root: Path, chapters: list[dict], plan: dict,
                       gibberish_share: float, errors_share: float,
                       multi_share: float) -> None:
    """Utterance manifest, alignments, predicted PC, ASR hypotheses, speaker counts."""
    utt_lines, aligns, predicted, hyps, counts = [], [], [], [], []
    finals = []
    for ch in chapters:
        offset = 0.0
        for u in ch["utts"]:
            spoken = [t["spoken"] for t in u["tokens"]]
            raw = " ".join(t["norm"] for t in u["tokens"])
            rec = {"utterance_id": u["uid"], "book_id": ch["book_id"],
                   "chapter_id": ch["chapter_id"], "speaker_id": ch["speaker_id"],
                   "audio_path": ch["audio_path"], "offset_s": round(offset, 4),
                   "duration_s": u["duration"], "raw_text": raw, "gender": ch["gender"]}
            utt_lines.append(rec)
            aligns.append({"utterance_id": u["uid"], "tokens": u["track"]})
            exp = {}
            if u["predicted"]:
                words = raw.split()
                text = " ".join([words[0].capitalize()] + words[1:]) + "."
                predicted.append({"utterance_id": u["uid"], "text": text})
                exp.update(text_source="predicted_pc", text=text)
                spoken = text.split()
            else:
                exp.update(text_source="book_match", text=" ".join(spoken))
            exp["lead_s"], exp["trail_s"] = round(u["lead"], 4), round(u["trail"], 4)
            exp["speech_s"] = round(u["runs"][-1][1] - u["runs"][0][0], 4)
            if u["silent"]:
                exp["reject"] = ["audio", "empty_after_trim"]
            if u["split_at"] >= 0:
                w = u["split_at"]
                exp["split"] = {"pause": u["pause"],
                                "texts": [" ".join(spoken[:w + 1]), " ".join(spoken[w + 1:])]}
                finals += [(u["uid"] + "_a", spoken[:w + 1]),
                           (u["uid"] + "_b", spoken[w + 1:])]
            elif not u["silent"]:
                finals.append((u["uid"], spoken))
            plan["records"][u["uid"]] = exp
            offset += u["duration"]
        ch["seconds"] = round(offset, 4)
    order = list(range(len(finals)))
    gib = _pick(rng, order, gibberish_share)
    errs = _pick(rng, [i for i in order if i not in gib and len(finals[i][1]) >= 4],
                 errors_share)
    multi = _pick(rng, order, multi_share)
    for i, (fid, spoken) in enumerate(finals):
        kind = "gibberish" if i in gib else "errors" if i in errs else "clean"
        hyp, wer = _hyp(rng, vocab, spoken, kind)
        hyps.append({"utterance_id": fid, "hyp_text": hyp})
        n_spk = 2 if i in multi else 1
        counts.append({"utterance_id": fid, "num_speakers": n_spk})
        plan["finals"][fid] = ({"reject": ["validate", "cer_gate"]} if wer is None
                               else {"wer_pct": wer, "num_speakers": n_spk})
    _write_jsonl(root / "utterances.jsonl", [_manifest_obj(r) for r in utt_lines])
    _write_jsonl(root / "alignments.jsonl", aligns)
    _write_jsonl(root / "predicted.jsonl", predicted)
    _write_jsonl(root / "hyps.jsonl", hyps)
    _write_jsonl(root / "counts.jsonl", counts)


# --------------------------------------------------------------------------
# audio


def _noise_bank(nrng, sr: int, cutoff_hz: float, seconds: float = 4.0) -> np.ndarray:
    """Periodic white noise brick-walled at cutoff_hz, unit RMS."""
    n = int(sr * seconds)
    spec = nrng.standard_normal(n // 2 + 1) + 1j * nrng.standard_normal(n // 2 + 1)
    spec[np.fft.rfftfreq(n, 1.0 / sr) > cutoff_hz] = 0.0
    spec[0] = 0.0
    x = np.fft.irfft(spec, n)
    return x / np.sqrt(np.mean(x ** 2))


def _render(nrng, sr: int, seconds: float, channels: int, cutoff_hz: float,
            runs: list[tuple[float, float]]) -> np.ndarray:
    """int16 audio: band-limited noise on each (start, end) run, zeros elsewhere."""
    bank = _noise_bank(nrng, sr, cutoff_hz)
    out = np.zeros((int(round(seconds * sr)), channels))
    ramp_n = int(RAMP_S * sr)
    ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp_n) / ramp_n)
    for start, end in runs:
        a, b = int(round(start * sr)), int(round(end * sr))
        env = np.full(b - a, nrng.uniform(0.05, 0.2))
        env[:ramp_n] *= ramp
        env[-ramp_n:] *= ramp[::-1]
        for c in range(channels):
            idx = np.arange(a, b) + int(nrng.integers(len(bank)))
            out[a:b, c] = np.take(bank, idx, mode="wrap") * env
    return np.clip(np.round(out * 32767.0), -32768, 32767).astype("<i2")


def _write_wav(path: Path, sr: int, data: np.ndarray) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1 if data.ndim == 1 else data.shape[1])
        fh.setsampwidth(2)
        fh.setframerate(sr)
        fh.writeframes(data.tobytes())


def _chapter_runs(ch: dict) -> list[tuple[float, float]]:
    runs, offset = [], 0.0
    for u in ch["utts"]:
        if not u["silent"]:
            runs += [(offset + a, offset + b) for a, b in u["runs"]]
        offset += u["duration"]
    return runs


# --------------------------------------------------------------------------
# workloads


def _book_text(rng, nrng, root: Path, plan: dict) -> None:
    vocab = _vocab(rng, 8000)
    utts, html = _text_chapter(rng, vocab, "bk0", _durations(rng, 90, 4.0, 0.75, 1.0, 35.0),
                               split_share=0.4, predicted_share=0.04, long_lead_share=0.0)
    (root / "text").mkdir(exist_ok=True)
    (root / "text" / "bk0.txt").write_text(html, encoding="utf-8")
    chapters = [{"chapter_id": "bk0", "book_id": "book0", "speaker_id": "spk0", "gender": "f",
                 "audio_path": "raw/bk0.wav", "sample_rate_hz": 44100, "cutoff_hz": None,
                 "utts": utts, "book_text_path": "text/bk0.txt"}]
    _write_text_inputs(rng, vocab, root, chapters, plan, gibberish_share=0.04,
                       errors_share=0.25, multi_share=0.03)
    _finish_chapters(root, chapters, plan)


def _full_corpus(rng, nrng, root: Path, plan: dict) -> None:
    vocab = _vocab(rng, 6000)
    lengths = [50.0 + 50.0 * i / 6 for i in range(7)]
    rng.shuffle(lengths)
    narrow = set(rng.sample(range(7), 2))
    chapters = []
    for c, target in enumerate(lengths):
        cid = f"fc{c:02d}"
        n = round(target / 6.0)
        durations = [d * target / (6.0 * n) for d in _durations(rng, n, 5.0, 0.5, 1.5, 20.0)]
        utts, html = _text_chapter(rng, vocab, cid, durations, split_share=0.45,
                                   predicted_share=0.05, long_lead_share=0.5,
                                   silent_count=1 if c % 4 == 0 else 0)
        (root / "text").mkdir(exist_ok=True)
        (root / "text" / f"{cid}.txt").write_text(html, encoding="utf-8")
        spk = c % 5
        cutoff = rng.uniform(7000, 10500) if c in narrow else rng.uniform(13500, 19000)
        chapters.append({"chapter_id": cid, "book_id": f"book{spk}",
                         "speaker_id": f"spk{spk}", "gender": "mf"[spk % 2],
                         "audio_path": f"raw/{cid}.wav", "sample_rate_hz": 44100,
                         "cutoff_hz": round(cutoff), "utts": utts,
                         "book_text_path": f"text/{cid}.txt"})
    _write_text_inputs(rng, vocab, root, chapters, plan, gibberish_share=0.03,
                       errors_share=0.25, multi_share=0.03)
    for ch in chapters:
        _write_wav(root / ch["audio_path"], 44100,
                   _render(nrng, 44100, ch["seconds"], 1, ch["cutoff_hz"], _chapter_runs(ch))[:, 0])
    _finish_chapters(root, chapters, plan)


def _audio_hours(rng, nrng, root: Path, plan: dict) -> None:
    sr, chapters, lines = 48000, [], []
    for c in range(3):
        cid = f"ah{c}"
        utts, offset = [], 0.0
        durations = _durations(rng, 9, 8.0, 0.6, 2.0, 20.0)
        silent = rng.randrange(len(durations))
        for i, d in enumerate(durations):
            lead, trail = rng.uniform(0.1, 1.5), rng.uniform(0.1, 1.5)
            speech = max(1.0, d - lead - trail)
            runs, t = [], lead
            while t < lead + speech - 0.3:
                end = min(lead + speech, t + rng.uniform(0.5, 4.0))
                runs.append([round(t, 4), round(end, 4)])
                t = end + rng.uniform(0.1, 0.6)
            u = {"uid": f"{cid}_{i:04d}", "runs": runs, "silent": i == silent,
                 "duration": round(runs[-1][1] + trail, 4)}
            exp = {"lead_s": round(lead, 4), "trail_s": round(trail, 4),
                   "speech_s": round(runs[-1][1] - runs[0][0], 4)}
            if u["silent"]:
                exp["reject"] = ["audio", "empty_after_trim"]
            plan["records"][u["uid"]] = exp
            utts.append(u)
            lines.append({"utterance_id": u["uid"], "book_id": "book0", "chapter_id": cid,
                          "speaker_id": f"spk{c}", "audio_path": f"raw/{cid}.wav",
                          "offset_s": round(offset, 4), "duration_s": u["duration"],
                          "raw_text": "", "gender": "mf"[c % 2]})
            offset += u["duration"]
        past = f"{cid}_{len(durations):04d}"
        plan["records"][past] = {"reject": ["audio", "offset_past_end"]}
        lines.append({"utterance_id": past, "book_id": "book0", "chapter_id": cid,
                      "speaker_id": f"spk{c}", "audio_path": f"raw/{cid}.wav",
                      "offset_s": round(offset + 5.0, 4), "duration_s": 4.0,
                      "raw_text": "", "gender": "mf"[c % 2]})
        ch = {"chapter_id": cid, "book_id": "book0", "speaker_id": f"spk{c}",
              "audio_path": f"raw/{cid}.wav", "sample_rate_hz": sr,
              "cutoff_hz": round(rng.uniform(12000, 19000)), "utts": utts,
              "seconds": round(offset, 4), "book_text_path": None}
        _write_wav(root / ch["audio_path"], sr,
                   _render(nrng, sr, ch["seconds"], 2, ch["cutoff_hz"], _chapter_runs(ch)))
        chapters.append(ch)
    _write_jsonl(root / "utterances.jsonl", [_manifest_obj(r) for r in lines])
    _finish_chapters(root, chapters, plan)


def _curate_manifest(rng, nrng, root: Path, plan: dict) -> None:
    """A final manifest: 60 speakers, each with 18-50 min of eligible audio."""
    vocab = _vocab(rng, 4000)
    minutes = [18.0 + 32.0 * i / 59 for i in range(60)]
    rng.shuffle(minutes)
    pool = _durations(rng, 97, 5.0, 0.5, 1.5, 15.0)
    records = []
    for s, target in enumerate(minutes):
        spk = f"spk{s:03d}"
        bws = [rng.choice(range(13500, 20001, 250)) for _ in range(3)]
        total, i = 0.0, 0
        while total < 60.0 * target:
            d = pool[(s * 31 + i) % len(pool)]
            kind = ("eligible" if i % 5 else
                    ("narrow", "errors", "multi", "narrow")[(i // 5) % 4])
            total += d if kind == "eligible" else 0.0
            records.append(_curated_record(rng, vocab, spk, "mf"[s % 2], i, d, kind,
                                           rng.choice(bws)))
            i += 1
    records.sort(key=lambda r: r["utterance_id"])
    _write_jsonl(root / "final.jsonl", records)
    plan["input_records"] = len(records)
    plan["input_audio_s"] = round(sum(r["duration_s"] for r in records), 4)
    plan["split_seed"] = rng.randrange(2 ** 32)


def _curated_record(rng, vocab, spk, gender, i, d, kind, bw) -> dict:
    words = [rng.choice(vocab) for _ in range(max(2, round(d * 2.4)))]
    text = " ".join([words[0].capitalize()] + words[1:]) + "."
    wer, cer, n_spk = 0.0, 0.0, 1
    if kind == "narrow":
        bw = rng.choice(range(6000, 12001, 250))
    elif kind == "errors":
        wer, cer = round(rng.uniform(2.0, 40.0), 4), round(rng.uniform(0.5, 12.0), 4)
    elif kind == "multi":
        n_spk = 2
    return _manifest_obj({
        "utterance_id": f"{spk}_{i // 40:02d}_{i:05d}", "book_id": f"book_{spk}",
        "chapter_id": f"{spk}_{i // 40:02d}", "speaker_id": spk,
        "audio_path": f"audio/{spk}_{i:05d}.wav", "offset_s": 0.0, "duration_s": round(d, 4),
        "text": text, "text_source": "book_match" if i % 9 else "predicted_pc",
        "raw_text": " ".join(words), "bandwidth_hz": bw, "wer_pct": wer, "cer_pct": cer,
        "num_speakers": n_spk, "gender": gender})


# --------------------------------------------------------------------------
# files


_UTT_FIELDS = ("utterance_id", "book_id", "chapter_id", "speaker_id", "audio_path",
               "offset_s", "duration_s", "text", "text_source", "raw_text", "bandwidth_hz",
               "wer_pct", "cer_pct", "num_speakers", "gender")


def _manifest_obj(rec: dict) -> dict:
    """Keys in the manifest's serialization order, so lines are canonical."""
    return {k: rec[k] for k in _UTT_FIELDS if rec.get(k) is not None}


def _write_jsonl(path: Path, objs: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n")


def _finish_chapters(root: Path, chapters: list[dict], plan: dict) -> None:
    _write_jsonl(root / "chapters.jsonl", [
        {k: ch[k] for k in ("chapter_id", "book_id", "speaker_id", "audio_path",
                            "sample_rate_hz", "book_text_path") if ch[k] is not None}
        for ch in chapters])
    plan["chapters"] = {ch["chapter_id"]: {"cutoff_hz": ch["cutoff_hz"], "seconds": ch["seconds"]}
                        for ch in chapters}
    lines = (root / "utterances.jsonl").read_text(encoding="utf-8").splitlines()
    plan["inputs"] = [json.loads(line)["utterance_id"] for line in lines]
    plan["input_records"] = len(lines)
    plan["input_audio_s"] = round(sum(json.loads(line)["duration_s"] for line in lines), 4)


def pipeline_config(workload: str) -> dict:
    """The PipelineConfig fields the workload sets; the rest stay at their defaults.

    Input paths are relative: the pipeline runs from the generated directory.
    """
    spec = WORKLOADS[workload]
    cfg = {"utterances_manifest": "utterances.jsonl", "chapters_manifest": "chapters.jsonl",
           "audio_root": ".", "stages": spec["stages"], "workers": spec["workers"]}
    for stage, key, name in (("text", "predicted_pc_path", "predicted.jsonl"),
                             ("segment", "alignments_path", "alignments.jsonl"),
                             ("validate", "asr_hypotheses_path", "hyps.jsonl"),
                             ("speakers", "speaker_counts_path", "counts.jsonl")):
        if stage in spec["stages"]:
            cfg[key] = name
    return cfg


def generate(workload: str, seed: int, root: Path) -> dict:
    """Write the workload's inputs under root; return the plan (also root/plan.json)."""
    spec = WORKLOADS[workload]
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    plan = {"workload": workload, "seed": seed, "stages": spec["stages"],
            "workers": spec["workers"], "subset_spec": SUBSET_SPEC,
            "records": {}, "finals": {}, "chapters": {}}
    rng = random.Random(f"{workload}:{seed}")
    nrng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    {"book_text": _book_text, "audio_hours": _audio_hours, "full_corpus": _full_corpus,
     "curate_manifest": _curate_manifest}[workload](rng, nrng, root, plan)
    planted = [exp["reject"] for exp in list(plan["records"].values())
               + list(plan["finals"].values()) if "reject" in exp]
    plan["expected_exit"] = 3 if planted else 0
    if spec["tail"]:
        (root / "subset_spec.json").write_text(json.dumps(SUBSET_SPEC) + "\n",
                                               encoding="utf-8")
    (root / "plan.json").write_text(json.dumps(plan, sort_keys=True) + "\n", encoding="utf-8")
    return plan
