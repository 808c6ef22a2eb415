"""Span recording and self-time arithmetic."""

import threading

import pytest

from spans import Tracer, self_time_columns


def test_self_time_subtracts_merged_and_clipped_children():
    # root [0, 10]; a [1, 3] and b [2, 5] overlap, so [1, 5] counts once;
    # c [8, 12] reaches past the root and is clipped to 10; d [2.5, 3.5]
    # is b's child, so only b loses it.
    own = self_time_columns(
        ids=[1, 2, 3, 4, 5],
        parents=[0, 1, 1, 1, 3],
        starts=[0.0, 1.0, 2.0, 8.0, 2.5],
        ends=[10.0, 3.0, 5.0, 12.0, 3.5],
    )
    assert own == pytest.approx([10.0 - 4.0 - 2.0, 2.0, 3.0 - 1.0, 4.0, 1.0])


def test_self_times_of_a_tree_add_up_to_the_root():
    own = self_time_columns(
        ids=[1, 2, 3, 4],
        parents=[0, 1, 2, 1],
        starts=[0.0, 1.0, 1.5, 5.0],
        ends=[9.0, 4.0, 2.5, 7.0],
    )
    assert sum(own) == pytest.approx(9.0)


def test_calls_nest_under_one_request():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda value: value + 1)

    def outer(value):
        return inner(value) * 2

    assert tracer.call("root", outer, 1) == 4
    assert tracer.call("root", outer, 2) == 6
    first_inner, first_root, second_inner, second_root = tracer.spans
    assert first_root.parent == 0 and first_root.request == first_root.id
    assert first_inner.parent == first_root.id
    assert first_inner.request == first_root.id
    assert second_inner.parent == second_root.id != first_root.id


def test_spans_from_two_threads_never_mix_parents():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)
    roots = {}

    def leaf():
        barrier.wait()  # both threads are inside their roots here
        return threading.get_ident()

    def root():
        roots[threading.get_ident()] = tracer.call("leaf", leaf)

    threads = [
        threading.Thread(target=tracer.call, args=("root", root)) for _ in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    spans = tracer.spans
    assert len(roots) == 2 and len(spans) == 4
    by_id = {span.id: span for span in spans}
    leaves = [span for span in spans if span.name == "leaf"]
    assert {by_id[leaf.parent].name for leaf in leaves} == {"root"}
    assert len({leaf.parent for leaf in leaves}) == 2
    for leaf in leaves:
        assert leaf.request == leaf.parent
        parent = by_id[leaf.parent]
        assert parent.start <= leaf.start and leaf.end <= parent.end


def test_budget_and_keep():
    tracer = Tracer(max_spans=3)
    for _ in range(5):
        tracer.call("root", lambda: None)
    assert len(tracer) == 3 and tracer.full
    tracer.keep({tracer.spans[1].id})
    assert [span.id for span in tracer.spans] == [2]


def test_write_emits_one_json_line_per_span(tmp_path):
    tracer = Tracer()
    tracer.call("root", tracer.wrap("child", lambda: None))
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2 and '"name": "child"' in lines[0]
