"""Span recorder: parents, self-time arithmetic, and the JSON-lines dump."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import pytest  # noqa: E402
from spans import Recorder, Span, self_times, subtree  # noqa: E402


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, None, 1),   # 0
        Span("a", 1.0, 4.0, 0, 1),          # 1
        Span("a.x", 1.5, 2.0, 1, 1),        # 2
        Span("a.y", 1.8, 3.0, 1, 1),        # 3: overlaps a.x by 0.2
        Span("b", 5.0, 9.0, 0, 1),          # 4
        Span("b.z", 8.0, 11.0, 4, 1),       # 5: runs past its parent
        Span("other", 20.0, 21.0, None, 1),  # 6: separate root
    ]
    own = self_times(spans)
    # a.x and a.y cover [1.5, 3.0] of a; b.z covers [8, 9] of b
    assert own == pytest.approx([10 - 3 - 4, 3 - 1.5, 0.5, 1.2, 4 - 1, 3, 1])
    # the a.x/a.y overlap and b.z's overhang are counted in both children
    assert sum(own[i] for i in subtree(spans, 0)) == pytest.approx(10 + 0.2 + 2)
    assert subtree(spans, 1) == [1, 2, 3]
    assert subtree(spans, 6) == [6]


def test_self_times_of_nested_recording_sum_to_the_root():
    ticks = iter(range(100))
    rec = Recorder(run_id=3, clock=lambda: float(next(ticks)))
    with rec.span("total"):
        with rec.span("stage"):
            with rec.span("layer"):
                pass
            with rec.span("layer"):
                pass
        with rec.span("stage2"):
            pass
    names = [s.name for s in rec.spans]
    assert names == ["total", "stage", "layer", "layer", "stage2"]
    assert [s.parent for s in rec.spans] == [None, 0, 1, 1, 0]
    assert {s.run_id for s in rec.spans} == {3}
    own = self_times(rec.spans)
    assert sum(own) == pytest.approx(rec.spans[0].duration)
    assert own == [3.0, 3.0, 1.0, 1.0, 1.0]


def test_span_closes_when_the_body_raises():
    rec = Recorder(run_id=0)
    with pytest.raises(RuntimeError):
        with rec.span("boom"):
            raise RuntimeError
    with rec.span("after"):
        pass
    assert rec.spans[0].end >= rec.spans[0].start
    assert rec.spans[1].parent is None


def test_write_appends_json_lines(tmp_path):
    rec = Recorder(run_id=2)
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    path = tmp_path / "spans.jsonl"
    rec.write(path)
    rec.write(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in rows] == ["outer", "inner"] * 2
    assert rows[1]["parent"] == 0 and rows[1]["run_id"] == 2
    assert rows[0]["self"] == pytest.approx(rows[0]["end"] - rows[0]["start"]
                                            - (rows[1]["end"] - rows[1]["start"]))
