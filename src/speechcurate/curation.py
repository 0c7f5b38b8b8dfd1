"""Subset gating, speaker-count tagging, training triplets, eval splits, stats."""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .manifest import AT_LEAST_0, SubsetSpec, UtteranceRecord, must, replacing
from .segmentation import _splitmix64


class CurationError(Exception):
    pass


@dataclass(frozen=True)
class SpeakerCountRecord:
    utterance_id: str
    num_speakers: int = must(AT_LEAST_0)


@dataclass(frozen=True)
class Triplet:
    context_utterance_id: str
    transcript: str
    target_utterance_id: str
    context_duration_s: float


@dataclass(frozen=True)
class SplitPlan:
    split_name: str  # train | dev_seen | test_seen
    utterance_ids: tuple[str, ...]


def apply_speaker_counts(
    records: list[UtteranceRecord], counts: dict[str, int]
) -> list[UtteranceRecord]:
    """Stamp {utterance_id: speaker count} onto records; a record without one is kept as is."""
    return [rec.with_fields(num_speakers=counts[rec.utterance_id])
            if rec.utterance_id in counts else rec for rec in records]


def build_subset(records: list[UtteranceRecord], spec: SubsetSpec) -> list[UtteranceRecord]:
    """Keep records passing every gate in spec; order preserved.

    Tightening any threshold can only shrink the output, so a subset built
    with a higher bandwidth floor is always contained in one with a lower
    floor.
    """
    spec.validate()
    out = []
    for rec in records:
        if spec.min_bandwidth_hz > 0 and rec.bandwidth_hz is None:
            raise CurationError(
                f"{rec.utterance_id}: bandwidth_hz missing; run the bandwidth stage first"
            )
        if math.isfinite(spec.max_cer_pct) and rec.cer_pct is None:
            raise CurationError(
                f"{rec.utterance_id}: cer_pct missing; run the validation stage first"
            )
        if math.isfinite(spec.max_num_speakers) and rec.num_speakers is None:
            raise CurationError(
                f"{rec.utterance_id}: num_speakers missing; run the speaker stage first"
            )
        if rec.bandwidth_hz is not None and rec.bandwidth_hz < spec.min_bandwidth_hz:
            continue
        if rec.cer_pct is not None and not rec.cer_pct < spec.max_cer_pct:
            continue
        if rec.num_speakers is not None and rec.num_speakers > spec.max_num_speakers:
            continue
        out.append(rec)
    return out


def _ranked_contexts(group: list[UtteranceRecord]) -> list[UtteranceRecord]:
    """The group's context candidates, best first: those within 4.5-5.5 s,
    closest to 5 s first, then every one, longest first; ties by id."""
    near = sorted((c for c in group if 4.5 <= c.duration_s <= 5.5),
                  key=lambda c: (abs(c.duration_s - 5.0), c.utterance_id))
    return near + sorted(group, key=lambda c: (c.duration_s, c.utterance_id), reverse=True)


def build_triplets(
    records: list[UtteranceRecord],
    sims: dict[tuple[str, str], float],
    max_cer_pct: float = 3.0,
    min_speaker_sim: float = 0.6,
) -> tuple[list[Triplet], dict]:
    """(context, transcript, target) triplets for voice-cloning training.

    Context is a distinct same-speaker utterance close to 5 s (longer ones
    are cropped); its duration is the record's, as a manifest holds it.
    Pairs with target CER above max_cer_pct or similarity
    below min_speaker_sim are dropped; pairs with no similarity score are
    skipped and counted.
    """
    by_speaker: dict[str, list[UtteranceRecord]] = {}
    for rec in records:
        by_speaker.setdefault(rec.speaker_id, []).append(rec)
    triplets: list[Triplet] = []
    skipped = {"cer": 0, "similarity": 0, "missing_similarity": 0, "no_context": 0}
    for speaker_id in sorted(by_speaker):
        group = by_speaker[speaker_id]
        ranked = _ranked_contexts(group)  # once per speaker, not once per target
        for target in group:
            if target.cer_pct is not None and target.cer_pct > max_cer_pct:
                skipped["cer"] += 1
                continue
            # The best-ranked candidate other than the target. One beyond 5.5 s
            # ranks after every one within 4.5-5.5 s, and is cropped to 5 s.
            context = next((c for c in ranked if c.utterance_id != target.utterance_id), None)
            if context is None:
                skipped["no_context"] += 1
                continue
            sim = sims.get((context.utterance_id, target.utterance_id))
            if sim is None:
                skipped["missing_similarity"] += 1
                continue
            if sim < min_speaker_sim:
                skipped["similarity"] += 1
                continue
            triplets.append(
                Triplet(
                    context_utterance_id=context.utterance_id,
                    transcript=target.transcript,
                    target_utterance_id=target.utterance_id,
                    context_duration_s=(context.duration_s
                                        if context.duration_s <= 5.5 else 5.0),
                )
            )
    return triplets, skipped


def _tercile(value: float, sorted_values: list[float]) -> int:
    n = len(sorted_values)
    lo = sorted_values[n // 3]
    hi = sorted_values[(2 * n) // 3]
    if value < lo:
        return 0
    if value < hi:
        return 1
    return 2


class _Rng:
    """Deterministic splitmix64-backed generator for sampling."""

    def __init__(self, seed: int):
        self._state = seed & 0xFFFFFFFFFFFFFFFF

    def next(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        return _splitmix64(self._state)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.next() % (i + 1)
            items[i], items[j] = items[j], items[i]


ELIGIBLE_MIN_BANDWIDTH_HZ = 13000
SPEAKER_MIN_TRAIN_S = 15 * 60
SPEAKER_MAX_TRAIN_S = 60 * 60
N_EVAL_SPEAKERS = 50
UTTERANCES_PER_SPEAKER_PER_SPLIT = 20


def sample_eval_splits(
    records: list[UtteranceRecord],
    rng_seed: int = 0,
) -> dict[str, SplitPlan]:
    """Sample seen-speaker dev/test plans of 1000 utterances each.

    Eligibility: bandwidth >= 13 kHz, zero WER, single speaker. Selects 50
    speakers with 15-60 minutes of eligible audio, balancing gender, then
    draws 20 dev + 20 test utterances per speaker, stratified over duration
    and bandwidth terciles. The remaining records form the train plan.
    """
    eligible = [
        r for r in records
        if r.bandwidth_hz is not None and r.bandwidth_hz >= ELIGIBLE_MIN_BANDWIDTH_HZ
        and r.wer_pct == 0.0
        and r.num_speakers == 1
    ]
    by_speaker: dict[str, list[UtteranceRecord]] = {}
    for rec in eligible:
        by_speaker.setdefault(rec.speaker_id, []).append(rec)
    qualified = {
        spk: utts for spk, utts in by_speaker.items()
        if SPEAKER_MIN_TRAIN_S <= sum(u.duration_s for u in utts) <= SPEAKER_MAX_TRAIN_S
    }
    if len(qualified) < N_EVAL_SPEAKERS:
        raise CurationError(
            f"need {N_EVAL_SPEAKERS} eligible speakers, found {len(qualified)} "
            f"(shortfall {N_EVAL_SPEAKERS - len(qualified)})"
        )
    rng = _Rng(rng_seed)
    selected = _select_speakers(qualified, rng)

    dev_ids: list[str] = []
    test_ids: list[str] = []
    for spk in selected:
        utts = sorted(qualified[spk], key=lambda u: u.utterance_id)
        dev = _stratified_draw(utts, UTTERANCES_PER_SPEAKER_PER_SPLIT, rng)
        drawn = {u.utterance_id for u in dev}
        remaining = [u for u in utts if u.utterance_id not in drawn]
        test = _stratified_draw(remaining, UTTERANCES_PER_SPEAKER_PER_SPLIT, rng)
        dev_ids += [u.utterance_id for u in dev]
        test_ids += [u.utterance_id for u in test]

    held_out = set(dev_ids) | set(test_ids)
    train_ids = [r.utterance_id for r in records if r.utterance_id not in held_out]
    return {
        "train": SplitPlan("train", tuple(train_ids)),
        "dev_seen": SplitPlan("dev_seen", tuple(dev_ids)),
        "test_seen": SplitPlan("test_seen", tuple(test_ids)),
    }


def _select_speakers(qualified: dict[str, list[UtteranceRecord]], rng: _Rng) -> list[str]:
    # Gender balance: pick alternately from m and f pools, then backfill.
    def gender_of(spk: str) -> str:
        return qualified[spk][0].gender

    pools: dict[str, list[str]] = {"m": [], "f": [], "unknown": []}
    for spk in sorted(qualified):
        pools[gender_of(spk)].append(spk)
    for pool in pools.values():
        rng.shuffle(pool)
    selected: list[str] = []
    while len(selected) < N_EVAL_SPEAKERS and (pools["m"] or pools["f"]):
        n_m = sum(1 for s in selected if gender_of(s) == "m")
        n_f = sum(1 for s in selected if gender_of(s) == "f")
        if pools["m"] and (n_m <= n_f or not pools["f"]):
            selected.append(pools["m"].pop())
        elif pools["f"]:
            selected.append(pools["f"].pop())
    while len(selected) < N_EVAL_SPEAKERS and pools["unknown"]:
        selected.append(pools["unknown"].pop())
    return sorted(selected)


def _stratified_draw(utts: list[UtteranceRecord], k: int, rng: _Rng) -> list[UtteranceRecord]:
    """Draw k utterances spread over duration x bandwidth tercile cells."""
    if len(utts) <= k:
        return list(utts)
    durations = sorted(u.duration_s for u in utts)
    bandwidths = sorted(u.bandwidth_hz for u in utts)
    cells: dict[tuple[int, int], list[UtteranceRecord]] = {}
    for u in utts:
        key = (_tercile(u.duration_s, durations), _tercile(u.bandwidth_hz, bandwidths))
        cells.setdefault(key, []).append(u)
    for cell in cells.values():
        rng.shuffle(cell)
    # More utterances than k, so each round over the cells picks at least one.
    picked: list[UtteranceRecord] = []
    order = sorted(cells)
    while len(picked) < k:
        for key in order:
            if len(picked) < k and cells[key]:
                picked.append(cells[key].pop())
    return picked


@dataclass
class StatsReport:
    total_hours: float
    utterance_count: int
    speaker_count: int
    duration_hist: dict[str, int] = field(default_factory=dict)   # 0.5 s bins
    bandwidth_hist: dict[str, int] = field(default_factory=dict)  # 250 Hz bins
    wer_hist: dict[str, int] = field(default_factory=dict)        # 1% bins
    cer_hist: dict[str, int] = field(default_factory=dict)        # 1% bins
    text_source_counts: dict[str, int] = field(default_factory=dict)
    multi_speaker_hours: float = 0.0

    def to_json_dict(self) -> dict:
        """The fields in order, the two hour totals rounded to 6 digits."""
        return {**asdict(self), "total_hours": round(self.total_hours, 6),
                "multi_speaker_hours": round(self.multi_speaker_hours, 6)}

    def _histograms(self):
        """(CSV name, table heading, [(bin, count)] in bin order) for each histogram."""
        for name, csv_name, heading in _HISTOGRAMS:
            hist = getattr(self, name)
            yield csv_name, heading, sorted(hist.items(), key=lambda item: _bin_sort_key(item[0]))

    def render_table(self) -> str:
        lines = [
            f"{'total hours':<20}{self.total_hours:>12.2f}",
            f"{'utterances':<20}{self.utterance_count:>12d}",
            f"{'speakers':<20}{self.speaker_count:>12d}",
            f"{'multi-speaker hours':<20}{self.multi_speaker_hours:>12.2f}",
        ]
        for _, heading, bins in self._histograms():
            if bins:  # an empty histogram has no section
                lines.append(f"-- {heading} --")
                for label, count in bins:
                    lines.append(f"{label:<20}{count:>12d}")
        return "\n".join(lines)

    def write_csv(self, path: str | Path) -> None:
        with replacing(path) as tmp, open(tmp, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["histogram", "bin", "count"])
            for csv_name, _, bins in self._histograms():
                writer.writerows([csv_name, label, count] for label, count in bins)


# The histograms of a StatsReport in output order: (field, CSV name, table heading).
_HISTOGRAMS = (("duration_hist", "duration_s", "duration [s]"),
               ("bandwidth_hist", "bandwidth_hz", "bandwidth [Hz]"),
               ("wer_hist", "wer_pct", "WER [%]"),
               ("cer_hist", "cer_pct", "CER [%]"))


def _bin_sort_key(label: str):
    try:
        return (0, float(label))
    except ValueError:
        return (1, label)


def _bump(hist: dict[str, int], label: str) -> None:
    hist[label] = hist.get(label, 0) + 1


def _rate_bin(value: float) -> str:
    # 1% bins; every value of 100% or more falls in the ">=100" bucket.
    if value >= 100.0:
        return ">=100"
    return str(int(value))


def corpus_stats(records: list[UtteranceRecord]) -> StatsReport:
    """Fixed-bin histograms plus totals; every histogram sums to its input count."""
    report = StatsReport(
        total_hours=sum(r.duration_s for r in records) / 3600.0,
        utterance_count=len(records),
        speaker_count=len({r.speaker_id for r in records}),
    )
    for rec in records:
        _bump(report.duration_hist, f"{math.floor(rec.duration_s / 0.5) * 0.5:.1f}")
        if rec.bandwidth_hz is not None:
            _bump(report.bandwidth_hist, str(int(rec.bandwidth_hz // 250) * 250))
        if rec.wer_pct is not None:
            _bump(report.wer_hist, _rate_bin(rec.wer_pct))
        if rec.cer_pct is not None:
            _bump(report.cer_hist, _rate_bin(rec.cer_pct))
        if rec.text_source is not None:
            _bump(report.text_source_counts, rec.text_source)
        if rec.num_speakers is not None and rec.num_speakers > 1:
            report.multi_speaker_hours += rec.duration_s / 3600.0
    return report
