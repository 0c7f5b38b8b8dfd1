import threading
import time
from types import SimpleNamespace

import tracer


def test_self_time_nested_calls_on_two_threads():
    lib = SimpleNamespace()
    lib.inner = lambda: time.sleep(0.06)

    def outer():
        time.sleep(0.03)
        lib.inner()             # looked up on lib at call time, like a module global

    def stage():
        threads = [threading.Thread(target=lib.outer) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)

    lib.outer, lib.stage = outer, stage
    tr = tracer.Tracer()
    for name in ("inner", "outer", "stage"):
        tr.patch(lib, name, name)
    lib.stage()
    tr.restore()
    assert lib.inner is not None and not hasattr(lib.inner, "__wrapped__")

    by_name = {}
    for span in tr.spans:
        by_name.setdefault(span[tracer.NAME], []).append(span)
    (stage_span,) = by_name["stage"]
    outers, inners = by_name["outer"], by_name["inner"]
    assert len(outers) == len(inners) == 2
    # worker threads start with empty stacks: their spans hang off the stage
    assert {s[tracer.PARENT] for s in outers} == {stage_span[tracer.ID]}
    assert {s[tracer.THREAD] for s in outers} == {s[tracer.THREAD] for s in inners}
    outer_by_thread = {s[tracer.THREAD]: s[tracer.ID] for s in outers}
    for s in inners:
        assert s[tracer.PARENT] == outer_by_thread[s[tracer.THREAD]]

    summary = tracer.summarize(tr.spans)
    assert summary["outer"]["calls"] == 2
    assert 0.05 <= summary["outer"]["self_s"] <= 0.15      # 2 x 0.03 s
    assert 0.11 <= summary["inner"]["self_s"] <= 0.25      # 2 x 0.06 s
    # the two workers overlap, so the stage's self time is only the gaps
    assert summary["stage"]["self_s"] < 0.05


def test_self_time_is_duration_minus_union_of_children():
    spans = [
        (1, 0, "parent", 1, 0.0, 10.0, 0.0, 1.0, None),
        (2, 1, "child", 2, 1.0, 3.0, 0.0, 0.5, {"n": 2}),
        (3, 1, "child", 3, 2.0, 5.0, 0.0, 0.25, {"n": 3}),   # overlaps span 2
        (4, 1, "child", 1, 9.0, 12.0, 0.0, 0.25, None),      # runs past the parent
    ]
    summary = tracer.summarize(spans)
    assert summary["parent"]["self_s"] == 10.0 - (4.0 + 1.0)
    assert summary["parent"]["child_cpu_s"] == 1.0
    assert summary["child"]["calls"] == 3
    assert summary["child"]["self_s"] == 2.0 + 3.0 + 3.0
    assert summary["child"]["n"] == 5
