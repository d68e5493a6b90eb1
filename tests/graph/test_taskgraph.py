"""Unit tests for repro.graph.taskgraph."""

import math
import re

import pytest

from repro.graph.taskgraph import CycleError, Task, TaskGraph


def diamond() -> TaskGraph:
    g = TaskGraph("diamond")
    for name in "abcd":
        g.add_task(Task(name, sw_time=2.0, hw_time=1.0, hw_area=5.0))
    g.add_edge("a", "b", 3.0)
    g.add_edge("a", "c", 4.0)
    g.add_edge("b", "d", 5.0)
    g.add_edge("c", "d", 6.0)
    return g


class TestTask:
    def test_defaults_fill_hw_time(self):
        t = Task("x", sw_time=8.0)
        assert t.hw_time == pytest.approx(2.0)
        assert t.speedup == pytest.approx(4.0)

    def test_rejects_nonpositive_sw_time(self):
        with pytest.raises(ValueError):
            Task("x", sw_time=0.0)

    def test_rejects_negative_area(self):
        with pytest.raises(ValueError):
            Task("x", sw_time=1.0, hw_area=-1.0)

    def test_rejects_bad_modifiability(self):
        with pytest.raises(ValueError):
            Task("x", sw_time=1.0, modifiability=1.5)

    def test_rejects_parallelism_below_one(self):
        with pytest.raises(ValueError):
            Task("x", sw_time=1.0, parallelism=0.5)

    @pytest.mark.parametrize("field,value", [
        ("sw_time", math.nan), ("sw_time", math.inf), ("sw_time", -1.0),
        ("hw_time", math.nan), ("hw_time", math.inf), ("hw_time", 0.0),
        ("hw_area", math.nan), ("hw_area", math.inf),
        ("sw_size", math.nan), ("sw_size", -5.0), ("sw_size", math.inf),
        ("parallelism", math.nan), ("parallelism", math.inf),
        ("modifiability", math.nan),
    ])
    def test_rejects_non_finite_or_out_of_domain_field(self, field, value):
        """A NaN time used to pass and fail only later, deep inside the
        partition evaluator; a NaN or infinite area, size or
        parallelism never failed at all."""
        kwargs = {"sw_time": 4.0, field: value}
        with pytest.raises(ValueError, match=rf"task 'x': {field} .*got "
                           + re.escape(repr(value))):
            Task("x", **kwargs)

    @pytest.mark.parametrize("field,value", [
        ("sw_time", 1e-9), ("hw_time", 1e-9), ("hw_area", 0.0),
        ("sw_size", 0.0), ("parallelism", 1.0), ("modifiability", 1.0),
    ])
    def test_accepts_domain_edges(self, field, value):
        task = Task("x", **{"sw_time": 4.0, field: value})
        assert getattr(task, field) == value

    @pytest.mark.parametrize("field,value", [
        ("period", math.nan), ("period", 0.0), ("period", -5.0),
        ("period", math.inf), ("deadline", math.inf),
        ("deadline", math.nan), ("deadline", 0.0), ("deadline", -1.0),
    ])
    def test_rejects_bad_period_or_deadline(self, field, value):
        """The periodic synthesizer divides the hyperperiod by
        ``period`` and schedules against ``deadline``; a NaN, zero,
        negative or infinite one used to be accepted."""
        with pytest.raises(ValueError, match=rf"task 'x': {field} .*got "
                           + re.escape(repr(value))):
            Task("x", sw_time=4.0, **{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -3.0])
    def test_rejects_bad_wcet_value(self, value):
        with pytest.raises(ValueError, match=r"task 'x': wcet\['dsp'\] "
                           r".*got " + re.escape(repr(value))):
            Task("x", sw_time=4.0, wcet={"arm": 2.0, "dsp": value})

    @pytest.mark.parametrize("field,value", [
        ("period", None), ("period", 1e-9), ("deadline", None),
        ("deadline", 1e-9), ("wcet", {}), ("wcet", {"dsp": 1e-9}),
    ])
    def test_accepts_timing_domain_edges(self, field, value):
        task = Task("x", **{"sw_time": 4.0, field: value})
        assert getattr(task, field) == value

    def test_time_on_falls_back_to_sw_time(self):
        t = Task("x", sw_time=7.0, wcet={"dsp": 3.0})
        assert t.time_on("dsp") == 3.0
        assert t.time_on("riscy") == 7.0


class TestConstruction:
    def test_duplicate_task_rejected(self):
        g = TaskGraph()
        g.add_task(Task("a"))
        with pytest.raises(ValueError):
            g.add_task(Task("a"))

    def test_edge_to_unknown_task_rejected(self):
        g = TaskGraph()
        g.add_task(Task("a"))
        with pytest.raises(KeyError):
            g.add_edge("a", "b")
        with pytest.raises(KeyError):
            g.add_edge("z", "a")

    def test_self_edge_rejected(self):
        g = TaskGraph()
        g.add_task(Task("a"))
        with pytest.raises(ValueError):
            g.add_edge("a", "a")

    def test_duplicate_edge_rejected(self):
        g = diamond()
        with pytest.raises(ValueError):
            g.add_edge("a", "b")

    def test_negative_volume_rejected(self):
        g = diamond()
        g.add_task(Task("e"))
        with pytest.raises(ValueError):
            g.add_edge("d", "e", volume=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_volume_rejected(self, value):
        g = diamond()
        g.add_task(Task("e"))
        pattern = r"edge d->e: volume .*got " + re.escape(repr(value))
        with pytest.raises(ValueError, match=pattern):
            g.add_edge("d", "e", volume=value)
        with pytest.raises(ValueError, match=r"edge a->b: volume"):
            g.set_edge_volume("a", "b", value)
        assert g.edge("a", "b").volume == 3.0

    def test_remove_task_drops_incident_edges(self):
        g = diamond()
        g.remove_task("b")
        assert "b" not in g
        assert g.successors("a") == ["c"]
        assert g.predecessors("d") == ["c"]

    def test_set_edge_volume(self):
        g = diamond()
        g.set_edge_volume("a", "b", 99.0)
        assert g.edge("a", "b").volume == 99.0
        with pytest.raises(KeyError):
            g.set_edge_volume("b", "a", 1.0)


class TestQueries:
    def test_sources_and_sinks(self):
        g = diamond()
        assert g.sources() == ["a"]
        assert g.sinks() == ["d"]

    def test_topological_order_respects_edges(self):
        g = diamond()
        order = g.topological_order()
        pos = {n: i for i, n in enumerate(order)}
        for e in g.edges:
            assert pos[e.src] < pos[e.dst]

    def test_cycle_detection(self):
        g = TaskGraph()
        g.add_task(Task("a"))
        g.add_task(Task("b"))
        g.add_edge("a", "b")
        # force a cycle through the private structures to test detection
        g._succ["b"]["a"] = g._pred["a"]["b"] = g.edge("a", "b")
        with pytest.raises(CycleError):
            g.topological_order()

    def test_critical_path_sw(self):
        g = diamond()
        length, path = g.critical_path("sw")
        assert length == pytest.approx(6.0)
        assert path[0] == "a" and path[-1] == "d" and len(path) == 3

    def test_critical_path_modes_differ(self):
        g = diamond()
        assert g.critical_path("hw")[0] == pytest.approx(3.0)
        assert g.critical_path("min")[0] == pytest.approx(3.0)
        with pytest.raises(ValueError):
            g.critical_path("bogus")

    def test_total_time_and_area(self):
        g = diamond()
        assert g.total_time("sw") == pytest.approx(8.0)
        assert g.total_area() == pytest.approx(20.0)

    def test_levels_and_width(self):
        g = diamond()
        levels = g.levels()
        assert levels == {"a": 0, "b": 1, "c": 1, "d": 2}
        assert g.width() == 2

    def test_descendants_ancestors(self):
        g = diamond()
        assert set(g.descendants("a")) == {"b", "c", "d"}
        assert set(g.ancestors("d")) == {"a", "b", "c"}
        assert g.descendants("d") == []

    def test_cut_volume(self):
        g = diamond()
        # group {a, b}: crossing edges a->c (4), b->d (5)
        assert g.cut_volume({"a", "b"}) == pytest.approx(9.0)
        assert g.cut_volume(set(g.task_names)) == 0.0

    def test_copy_is_independent(self):
        g = diamond()
        c = g.copy()
        c.task("a").sw_time = 100.0
        c.remove_task("b")
        assert g.task("a").sw_time == 2.0
        assert "b" in g

    def test_to_networkx_roundtrip_shape(self):
        g = diamond()
        nx_graph = g.to_networkx()
        assert nx_graph.number_of_nodes() == 4
        assert nx_graph.number_of_edges() == 4
        assert nx_graph["a"]["b"]["volume"] == 3.0

    def test_empty_graph_edge_cases(self):
        g = TaskGraph()
        assert g.topological_order() == []
        assert g.critical_path()[0] == 0.0
        assert g.width() == 0
        assert len(g) == 0
