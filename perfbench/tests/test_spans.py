"""Self-time arithmetic and wrapper installation of the traced run."""

import pytest

from spans import SpanRecorder, Tracing, aggregate, self_times

#   root   [0, 10]
#   ├─ a   [1, 4]
#   │  └─ b [2, 3]
#   └─ c   [5, 9]
START = [0.0, 1.0, 2.0, 5.0]
END = [10.0, 4.0, 3.0, 9.0]
PARENT = [-1, 0, 1, 0]


def test_self_time_subtracts_direct_children_only():
    assert self_times(START, END, PARENT) == [3.0, 2.0, 1.0, 4.0]


def test_aggregate_sums_self_and_total_per_name():
    names = ["root", "leaf"]
    name_id = [0, 1, 1, 1]
    agg = aggregate(names, name_id, START, END, PARENT)
    assert agg["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert agg["leaf"] == {"calls": 3, "total_s": 8.0, "self_s": 7.0}
    # Self times of a tree always add up to the root's duration.
    assert sum(row["self_s"] for row in agg.values()) == 10.0


def test_recorder_builds_the_same_tree_from_open_close():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    rec = SpanRecorder(clock=lambda: next(ticks))
    root = rec.open("root")
    a = rec.open("a")
    rec.close(rec.open("b"))
    rec.close(a)
    rec.close(rec.open("c"))
    rec.close(root)
    assert list(rec.parent) == PARENT
    assert list(rec.start) == START and list(rec.end) == END
    assert rec.aggregate()["root"]["self_s"] == 3.0


def test_tracing_wraps_and_restores_layer_functions():
    import repro.campaign.tasks as tasks
    import repro.compile as compile_mod
    from repro.plc.channel import PlcChannel

    method = PlcChannel.__dict__["path_loss_db"]
    checkout = compile_mod.checkout_testbed
    rec = SpanRecorder()
    with Tracing(rec):
        assert PlcChannel.__dict__["path_loss_db"] is not method
        # ``from repro.compile import checkout_testbed`` copies are
        # wrapped too, or campaign tasks would bypass the span.
        assert tasks.checkout_testbed is compile_mod.checkout_testbed
        assert tasks.checkout_testbed is not checkout
        compile_mod.checkout_testbed("mini3", seed=7)
    assert PlcChannel.__dict__["path_loss_db"] is method
    assert tasks.checkout_testbed is checkout
    assert compile_mod.checkout_testbed is checkout
    assert rec.aggregate()["compile.checkout"]["calls"] == 1


def test_wrapped_call_closes_its_span_when_it_raises():
    rec = SpanRecorder()
    wrapped = Tracing(rec)._wrap(lambda: 1 / 0, "boom", "span")
    with pytest.raises(ZeroDivisionError):
        wrapped()
    assert len(rec) == 1 and rec.end[0] >= rec.start[0]
    assert rec._open == []
