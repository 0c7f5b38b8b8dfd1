"""The benchmark's tracer (bench/tracer.py) wraps functions of the package by
the names its callers look them up under. Each name it patches must exist in
the tree under test, or a traced benchmark run fails."""

import importlib.util
from pathlib import Path

import pytest

from speechcurate import audio, pipeline
from speechcurate.config import CHAPTER_STAGES, STAGE_ORDER

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _patched_by_install() -> list[tuple]:
    """(owner, key) of each patch bench/tracer.py's install() applies; every
    patch is undone before this returns or raises."""
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    tracerlib = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracerlib)
    tracer = tracerlib.Tracer()
    try:
        tracerlib.install(tracer)
        return [(owner, key) for owner, key, _ in tracer._patches]
    finally:
        tracer.restore()


def test_every_name_the_tracer_patches_exists():
    patched = _patched_by_install()
    assert (audio, "save_pcm") in patched
    # Every stage that runs after the chapter pass has its span.
    assert ({key for owner, key in patched if owner is pipeline._STAGE_FNS}
            == set(STAGE_ORDER) - set(CHAPTER_STAGES))
    assert not hasattr(audio.save_pcm, "__wrapped__")
    assert not any(hasattr(fn, "__wrapped__") for fn in pipeline._STAGE_FNS.values())


def test_a_missing_name_is_named(monkeypatch):
    monkeypatch.delattr(audio, "save_pcm")
    with pytest.raises(AttributeError, match="'save_pcm'"):
        _patched_by_install()
    assert not hasattr(audio.load_pcm, "__wrapped__")  # patched before save_pcm, and undone
