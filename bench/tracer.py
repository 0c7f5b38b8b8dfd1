"""Outside-in span tracer for speechcurate.

The tracer replaces public functions with timing wrappers at the place the
caller looks them up (a module attribute, or an entry of
`pipeline._STAGE_FNS`), so the program itself is not edited. Each thread
keeps its own span stack, because pipeline workers are threads; a span
opened on a thread whose stack is empty takes the innermost open span of
the installing thread as its parent, which ties worker spans to their
stage. Spans stay in memory until `dump`.

A span's self time is its duration minus the part of it that its child
spans cover (the union of their intervals, clipped to the parent).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict

# span tuple fields
ID, PARENT, NAME, THREAD, T0, T1, CPU0, CPU1, COUNTS = range(9)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack = self._stack()
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        try:
            return self._root_stack[-1]
        except IndexError:
            return 0

    def wrap(self, name: str, fn, count=None):
        """fn with a span named `name` around each call.

        `count(result, args, kwargs)` returns a dict of counts recorded on
        the span; it runs outside the timed interval.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id, parent = next(self._ids), self._parent(stack)
            stack.append(span_id)
            cpu0, t0 = time.thread_time(), time.perf_counter()
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1, cpu1 = time.perf_counter(), time.thread_time()
                stack.pop()
                counts = count(result, args, kwargs) if ok and count else None
                self.spans.append((span_id, parent, name, threading.get_ident(),
                                   t0, t1, cpu0, cpu1, counts))

        return traced

    def patch(self, owner, key: str, name: str, count=None) -> None:
        """Wrap owner.key (a module attribute, or a dict entry when owner is a dict)."""
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = self.wrap(name, original, count)
        else:
            original = getattr(owner, key)
            setattr(owner, key, self.wrap(name, original, count))
        self._patches.append((owner, key, original))

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s, self_s, cpu_s, child_cpu_s and summed counts.

    child_cpu_s is the thread CPU time of the name's direct child spans, on
    whatever thread they ran: for a stage span, the work its layers did.
    """
    children: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        children[span[PARENT]].append(span)
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        kids = children.get(span[ID], [])
        dur = span[T1] - span[T0]
        row = out.setdefault(span[NAME], defaultdict(float))
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - _covered([(k[T0], k[T1]) for k in kids], span[T0], span[T1])
        row["cpu_s"] += span[CPU1] - span[CPU0]
        row["child_cpu_s"] += sum(k[CPU1] - k[CPU0] for k in kids)
        for key, value in (span[COUNTS] or {}).items():
            row[key] += value
    return {name: dict(row) for name, row in out.items()}


# --------------------------------------------------------------------------
# speechcurate


def _frames(result, args, kwargs) -> dict:
    """Frame count of mean_power_spectrum, framed the way it frames its input."""
    from speechcurate import bandwidth

    buf = args[0]
    sr = buf.sample_rate_hz
    n_fft = max(2, int(round(kwargs.get("window_s", bandwidth.DEFAULT_WINDOW_S) * sr)))
    hop = max(1, int(round(kwargs.get("hop_s", bandwidth.DEFAULT_HOP_S) * sr)))
    return {"frames": (len(buf.samples) - n_fft) // hop + 1}


def _written(result, args, kwargs) -> dict:
    return {"records": len(args[0]), "bytes": os.path.getsize(args[1])}


COUNTERS = {
    "textproc.match_transcript": lambda r, a, k: {
        "matched": int(r.matched), "chapter_chars": len(a[1])},
    "textproc.levenshtein": lambda r, a, k: {"cells": len(a[0]) * len(a[1])},
    "audio.load_pcm": lambda r, a, k: {"bytes": r.samples.nbytes},
    "audio.resample": lambda r, a, k: {"samples_in": a[0].num_frames},
    "audio.trim_silence": lambda r, a, k: {
        "removed_s": r.leading_removed_s + r.trailing_removed_s},
    "audio.save_pcm": lambda r, a, k: {"bytes": os.path.getsize(a[1])},
    "bandwidth.mean_power_spectrum": _frames,
    "segmentation.apply_split": lambda r, a, k: {"split": int(len(r) > 1)},
    "manifest.read_manifest": lambda r, a, k: {"records": len(r)},
    "manifest.write_manifest": _written,
}

LAYERS = {
    "textproc": ["match_transcript", "strip_pc", "levenshtein", "normalize_spoken",
                 "clean_formatting"],
    "audio": ["load_pcm", "mixdown", "resample", "trim_silence", "save_pcm"],
    "bandwidth": ["mean_power_spectrum"],
    "segmentation": ["load_alignments_jsonl", "find_candidate_pauses", "apply_split"],
    "curation": ["apply_speaker_counts", "corpus_stats", "build_subset",
                 "sample_eval_splits"],
    "manifest": ["read_manifest", "write_manifest"],
}


def install(tracer: Tracer) -> None:
    """Wrap every traced speechcurate function where its callers look it up."""
    import importlib

    from speechcurate import pipeline

    for module_name, functions in LAYERS.items():
        module = importlib.import_module(f"speechcurate.{module_name}")
        for fn in functions:
            name = f"{module_name}.{fn}"
            tracer.patch(module, fn, name, COUNTERS.get(name))
    # pipeline binds the manifest functions by name at import
    for fn in ("read_manifest", "write_manifest"):
        name = f"manifest.{fn}"
        tracer.patch(pipeline, fn, name, COUNTERS.get(name))
    for stage in list(pipeline._STAGE_FNS):
        tracer.patch(pipeline._STAGE_FNS, stage, f"pipeline.stage.{stage}")
