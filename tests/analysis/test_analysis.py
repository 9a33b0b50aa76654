"""Scenario builders, complexity measurement and reporting."""

import pytest

from repro.analysis.complexity import (
    check_cprime_bounds,
    fit_linearity,
    measure_chains,
    measure_ring_counts,
    measure_rings,
)
from repro.analysis.graphs import hwtwbg_vs_wfg, stats, trrp_lengths
from repro.analysis.report import render_summaries, render_table
from repro.analysis.scenarios import (
    build_chain,
    build_reader_ladder,
    build_ring,
    build_rings,
    build_upgrade_pair,
)
from repro.baselines.johnson import circuit_count
from repro.baselines.wfg import adjacency, has_deadlock
from repro.core.detection import detect_once
from repro.core.hw_twbg import build_graph
from repro.core.notation import parse_table
from tests.conftest import EXAMPLE_41


class TestScenarios:
    def test_chain_not_deadlocked(self):
        table, tids = build_chain(8)
        assert len(tids) == 8
        assert not has_deadlock(table)

    def test_ring_deadlocked(self):
        table, _ = build_ring(5)
        assert has_deadlock(table)

    def test_ring_minimum_size(self):
        with pytest.raises(ValueError):
            build_ring(1)

    def test_rings_disjoint(self):
        table, tids = build_rings(3, 4)
        assert len(tids) == 12
        graph = build_graph(table.snapshot())
        assert len(graph.elementary_cycles()) == 3

    def test_reader_ladder_cycles(self):
        table, _ = build_reader_ladder(5)
        graph = build_graph(table.snapshot())
        assert len(graph.elementary_cycles()) == 5

    def test_upgrade_pair(self):
        table, _ = build_upgrade_pair()
        assert has_deadlock(table)


class TestComplexityMeasurement:
    def test_chain_work_linear(self):
        points = measure_chains([10, 40, 80, 160])
        slope, r_squared = fit_linearity(
            [p.size for p in points], [p.work for p in points]
        )
        assert r_squared > 0.999
        assert slope > 0

    def test_ring_single_cycle(self):
        for point in measure_rings([4, 8, 16]):
            assert point.cycles_found == 1

    def test_ring_count_scaling(self):
        points = measure_ring_counts([2, 4, 8], ring_size=3)
        assert [p.cycles_found for p in points] == [2, 4, 8]
        slope, r_squared = fit_linearity(
            [p.size for p in points], [p.work for p in points]
        )
        assert r_squared > 0.999

    def test_cprime_bound(self):
        table, _ = build_reader_ladder(6)
        circuits = circuit_count(adjacency(table.snapshot()))
        result = detect_once(table)
        assert check_cprime_bounds(result, circuits)

    def test_fit_linearity_perfect_line(self):
        slope, r_squared = fit_linearity([1, 2, 3], [2, 4, 6])
        assert abs(slope - 2.0) < 1e-9
        assert r_squared == pytest.approx(1.0)

    def test_fit_linearity_constant(self):
        slope, r_squared = fit_linearity([1, 2, 3], [5, 5, 5])
        assert r_squared == 1.0

    @pytest.mark.parametrize(
        "xs, ys, slope, r_squared",
        [
            ([1, 2, 3, 4, 5], [3, 5, 7, 9, 11], 2.0, 1.0),
            ([1, 2, 3], [5, 5, 5], -5.390097238974605e-16, 1.0),
            ([2.0, 10.0], [7.0, 31.0], 2.999999999999999, 1.0),
            (
                [4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256],
                [23, 41, 66, 79, 131, 158, 251, 322, 471, 655, 940, 1301],
                5.010248332097849,
                0.9992718066352262,
            ),
        ],
        ids=["perfect-line", "constant-y", "two-points", "noisy-12"],
    )
    def test_fit_linearity_matches_the_polyfit_it_replaced(
        self, xs, ys, slope, r_squared
    ):
        # Expected values are what the np.polyfit(x, y, 1) version
        # returned at commit 3242e28; the closed form must not move the
        # C1–C4 tables in EXPERIMENTS.md.
        got_slope, got_r_squared = fit_linearity(xs, ys)
        assert abs(got_slope - slope) < 1e-9
        assert abs(got_r_squared - r_squared) < 1e-9


class TestGraphStats:
    def test_stats_of_example_41(self):
        snapshot = parse_table(EXAMPLE_41)
        result = stats(snapshot)
        assert result.vertices == 9
        assert result.edges == 12
        assert result.h_edges == 7
        assert result.w_edges == 5
        assert result.circuits == 4
        assert result.blocked == 9
        assert 0 < result.density < 1

    def test_cross_check_agrees(self):
        assert hwtwbg_vs_wfg(parse_table(EXAMPLE_41))["agree"]

    def test_trrp_lengths(self):
        graph = build_graph(parse_table(EXAMPLE_41))
        lengths = trrp_lengths(graph)
        assert len(lengths) == 4
        assert all(length >= 2 for length in lengths)


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(
            ["name", "value"], [["a", 1], ["bb", 22]], title="Demo"
        )
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[2]
        assert lines[-1].endswith("22")

    def test_render_float_formatting(self):
        text = render_table(["x"], [[3.14159265]])
        assert "3.142" in text

    def test_render_summaries(self):
        text = render_summaries(
            {"s1": {"commits": 5, "aborts": 1}},
            columns=["commits", "aborts"],
        )
        assert "strategy" in text and "s1" in text

    def test_render_summaries_empty(self):
        assert render_summaries({}) == "(no data)"
