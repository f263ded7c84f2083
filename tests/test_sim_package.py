"""Unit tests for sim package: rng, geometry, floor plans, events, traces."""

import numpy as np
import pytest

from repro.sim.events import EventLoop
from repro.sim.floorplan import los_testbed, paper_testbed
from repro.sim.geometry import Material, Point, Wall, path_profile
from repro.seeding import named_rngs, spawn_rngs
from repro.sim.trace import TraceRecord, TraceWriter


class TestRng:
    def test_streams_independent(self):
        a, b = spawn_rngs(0, 2)
        assert a.random() != b.random()

    def test_reproducible(self):
        x = spawn_rngs(5, 3)[1].random()
        y = spawn_rngs(5, 3)[1].random()
        assert x == y

    def test_named(self):
        rngs = named_rngs(1, "a", "b")
        assert set(rngs) == {"a", "b"}

    def test_validation(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, 0)
        with pytest.raises(ValueError):
            named_rngs(0)
        with pytest.raises(ValueError):
            named_rngs(0, "x", "x")


class TestGeometry:
    def test_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_wall_intersection(self):
        wall = Wall(Point(5, 0), Point(5, 10))
        assert wall.intersects(Point(0, 5), Point(10, 5))
        assert not wall.intersects(Point(0, 5), Point(4, 5))

    def test_parallel_no_intersection(self):
        wall = Wall(Point(5, 0), Point(5, 10))
        assert not wall.intersects(Point(6, 0), Point(6, 10))

    def test_collinear_touching(self):
        wall = Wall(Point(0, 0), Point(10, 0))
        assert wall.intersects(Point(5, 0), Point(5, 5))

    def test_path_profile_los(self):
        profile = path_profile(Point(0, 0), Point(8, 0), ())
        assert profile.line_of_sight
        assert profile.obstruction_db == 0.0
        assert profile.distance_m == pytest.approx(8.0)

    def test_path_profile_walls_sum(self):
        walls = (
            Wall(Point(2, -1), Point(2, 1), Material.CONCRETE),
            Wall(Point(4, -1), Point(4, 1), Material.WOOD),
        )
        profile = path_profile(Point(0, 0), Point(8, 0), walls)
        assert profile.walls_crossed == 2
        assert profile.obstruction_db == pytest.approx(16.0)
        assert not profile.line_of_sight


class TestFloorPlans:
    def test_los_testbed_is_clear_8m(self):
        plan = los_testbed()
        link = plan.link("client_los", "ap")
        assert link.line_of_sight
        assert link.distance_m == pytest.approx(8.0)

    def test_paper_testbed_distances(self):
        """Paper Figure 6 caption: A ~7 m, B ~17 m from the AP."""
        plan = paper_testbed()
        assert plan.link("client_A", "ap").distance_m == pytest.approx(
            7.0, abs=0.5
        )
        assert plan.link("client_B", "ap").distance_m == pytest.approx(
            17.0, abs=0.5
        )

    def test_nlos_paths_obstructed(self):
        plan = paper_testbed()
        assert not plan.link("client_A", "ap").line_of_sight
        assert not plan.link("client_B", "ap").line_of_sight

    def test_b_more_attenuated_than_a_in_total(self):
        """B = farther + walls: total budget must exceed A's."""
        plan = paper_testbed()
        a = plan.link("client_A", "ap")
        b = plan.link("client_B", "ap")
        a_total = a.obstruction_db + 20 * np.log10(a.distance_m)
        b_total = b.obstruction_db + 20 * np.log10(b.distance_m)
        assert b_total > a_total

    def test_unknown_anchor(self):
        with pytest.raises(KeyError, match="available"):
            paper_testbed().anchor("nowhere")


class TestEventLoop:
    def test_ordering(self):
        loop = EventLoop()
        fired = []
        loop.schedule(2.0, lambda: fired.append("late"))
        loop.schedule(1.0, lambda: fired.append("early"))
        loop.run_all()
        assert fired == ["early", "late"]

    def test_fifo_ties(self):
        loop = EventLoop()
        fired = []
        for name in "abc":
            loop.schedule(1.0, lambda n=name: fired.append(n))
        loop.run_all()
        assert fired == ["a", "b", "c"]

    def test_run_until_stops(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda: fired.append(1))
        loop.schedule(3.0, lambda: fired.append(3))
        loop.run_until(2.0)
        assert fired == [1]
        assert loop.now_s == 2.0

    def test_cancel(self):
        loop = EventLoop()
        fired = []
        handle = loop.schedule(1.0, lambda: fired.append(1))
        loop.cancel(handle)
        loop.run_all()
        assert fired == []

    def test_nested_scheduling(self):
        loop = EventLoop()
        fired = []

        def recurse():
            fired.append(loop.now_s)
            if len(fired) < 3:
                loop.schedule(1.0, recurse)

        loop.schedule(0.0, recurse)
        loop.run_all()
        assert fired == [0.0, 1.0, 2.0]

    def test_validation(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            loop.schedule(-1.0, lambda: None)
        with pytest.raises(ValueError):
            loop.run_until(-1.0)

    def test_runaway_guard(self):
        loop = EventLoop()

        def forever():
            loop.schedule(0.0, forever)

        loop.schedule(0.0, forever)
        with pytest.raises(RuntimeError):
            loop.run_all(max_events=100)


class TestTrace:
    def test_csv_jsonl_roundtrip(self, tmp_path):
        from repro.core.session import MeasurementSession
        from repro.sim.scenario import los_scenario

        system, _ = los_scenario(1.0, seed=3)
        session = MeasurementSession(system, rng=np.random.default_rng(0))
        session.run_queries(3)
        writer = TraceWriter()
        for result in session.results:
            writer.record(result)

        csv_path = tmp_path / "trace.csv"
        jsonl_path = tmp_path / "trace.jsonl"
        assert writer.write_csv(csv_path) == 3
        assert writer.write_jsonl(jsonl_path) == 3

        loaded = TraceWriter.read_jsonl(jsonl_path)
        assert loaded == writer.records
        assert all(isinstance(r, TraceRecord) for r in loaded)
        assert csv_path.read_text().count("\n") == 4  # header + 3 rows
