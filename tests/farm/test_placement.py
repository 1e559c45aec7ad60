"""Placement passes: feasibility, determinism, and the hypothesis
property that capacity and co-location are never violated."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlacementError
from repro.farm import FarmSpec, HostSpec, place
from repro.farm.placement import _merge_groups


def farm(*cores, links=None, default="ethernet"):
    return FarmSpec([HostSpec(f"h{i}", cores=c)
                     for i, c in enumerate(cores)],
                    default_link=default, links=links or {})


class TestFeasibility:
    def test_no_partitions_rejected(self):
        with pytest.raises(PlacementError, match="nothing to place"):
            place([], [], farm(4))

    def test_no_live_hosts_rejected(self):
        spec = farm(4)
        spec.mark_dead("h0")
        with pytest.raises(PlacementError, match="no live hosts"):
            place(["a"], [], spec)

    def test_over_capacity_rejected(self):
        with pytest.raises(PlacementError, match="exceed the farm"):
            place(["a", "b", "c"], [], farm(1, 1))

    def test_group_larger_than_any_host_rejected(self):
        with pytest.raises(PlacementError, match="largest live host"):
            place(["a", "b", "c"], [], farm(2, 2),
                  colocate=[["a", "b", "c"]])

    def test_unknown_link_partition_rejected(self):
        with pytest.raises(PlacementError, match="unknown"):
            place(["a"], [("a", "ghost", 8)], farm(4))

    def test_unknown_colocate_member_rejected(self):
        with pytest.raises(PlacementError, match="unknown partition"):
            place(["a"], [], farm(4), colocate=[["a", "ghost"]])


class TestMergeGroups:
    def test_overlapping_groups_merge(self):
        groups = _merge_groups(
            ["a", "b", "c", "d"], [["a", "b"], ["b", "c"]])
        assert groups == [["a", "b", "c"], ["d"]]

    def test_disjoint_groups_stay_apart(self):
        groups = _merge_groups(
            ["a", "b", "c", "d"], [["a", "b"], ["c", "d"]])
        assert groups == [["a", "b"], ["c", "d"]]


class TestOptimizer:
    def test_chatty_pair_shares_a_host(self):
        """Two heavily-linked partitions land together when a host has
        room; the third (unlinked) partition is placed anywhere."""
        links = [("a", "b", 64), ("b", "a", 64)]
        placement = place(["a", "b", "c"], links, farm(2, 2))
        assert placement.assignment["a"] == placement.assignment["b"]
        assert placement.cut_cost_ns == 0.0 or \
            placement.assignment["c"] != placement.assignment["a"]

    def test_cheap_link_class_attracts_the_cut(self):
        """When the cut is forced, it lands on the cheapest host
        pair: the qsfp-cabled pair beats the ethernet default."""
        links = [("a", "b", 64), ("b", "c", 64), ("c", "a", 64)]
        spec = farm(2, 1, 1, links={("h0", "h1"): "qsfp"})
        placement = place(["a", "b", "c"], links, spec)
        used = placement.hosts_used()
        assert "h0" in used and "h1" in used
        assert "h2" not in used

    def test_deterministic(self):
        links = [("a", "b", 16), ("b", "c", 32), ("c", "d", 8)]
        spec = farm(2, 2, 2)
        first = place(["a", "b", "c", "d"], links, spec)
        for _ in range(3):
            again = place(["a", "b", "c", "d"], links, spec)
            assert again.assignment == first.assignment
            assert again.cut_cost_ns == first.cut_cost_ns

    def test_colocation_beats_traffic(self):
        """A co-location constraint wins over the cut optimizer: the
        group stays whole even when splitting it would be cheaper."""
        links = [("a", "x", 64), ("b", "y", 64)]
        placement = place(["a", "b", "x", "y"], links, farm(2, 2),
                          colocate=[["a", "b"]])
        assert placement.assignment["a"] == placement.assignment["b"]
        assert ["a", "b"] in placement.groups


names_st = st.integers(min_value=1, max_value=8).map(
    lambda n: [f"p{i}" for i in range(n)])


@st.composite
def placement_case(draw):
    names = draw(names_st)
    cores = draw(st.lists(st.integers(min_value=1, max_value=4),
                          min_size=1, max_size=4))
    n_links = draw(st.integers(min_value=0, max_value=10))
    links = [(names[draw(st.integers(0, len(names) - 1))],
              names[draw(st.integers(0, len(names) - 1))],
              draw(st.sampled_from([8, 16, 64, 128])))
             for _ in range(n_links)]
    links = [(a, b, w) for a, b, w in links if a != b]
    n_groups = draw(st.integers(min_value=0, max_value=2))
    colocate = [draw(st.lists(st.sampled_from(names), min_size=2,
                              max_size=min(4, len(names)),
                              unique=True))
                for _ in range(n_groups)] if len(names) >= 2 else []
    return names, cores, links, colocate


class TestPlacementProperty:
    @settings(max_examples=120, deadline=None)
    @given(placement_case())
    def test_capacity_and_colocation_always_hold(self, case):
        """For every generated farm: either placement raises a typed
        PlacementError, or the assignment (a) maps every partition to
        a live host, (b) never exceeds any host's core budget, and
        (c) never splits a co-location group."""
        names, cores, links, colocate = case
        spec = farm(*cores)
        try:
            placement = place(names, links, spec, colocate=colocate)
        except PlacementError:
            return
        budgets = {h.name: h.cores for h in spec.live_hosts()}
        assert sorted(placement.assignment) == sorted(names)
        for host, parts in placement.by_host().items():
            assert host in budgets
            assert len(parts) <= budgets[host]
        for group in colocate:
            hosts = {placement.assignment[m] for m in group}
            assert len(hosts) == 1, (group, placement.assignment)


class TestLinkWidth:
    def test_cut_priced_at_the_width_the_overlay_charges(self):
        """A 4-bit boundary costs ``wire_ns(4)`` per link, not the
        byte-rounded 8: placement and the timing overlay read the same
        channel width."""
        from repro.farm.placement import place_sim, sim_links

        from ..parallel.conftest import build_star_sim

        sim = build_star_sim(2)  # fpga2's boundary is 4 bits wide
        widths = {(a, b): w for a, b, w in sim_links(sim)}
        assert widths[("base", "fpga2")] == widths[("fpga2", "base")] == 4
        for plan in sim.ensure_schedule():
            for unit_plan in plan.unit_plans:
                for op in unit_plan.out_ops.values():
                    if op.link is not None:
                        assert op.width == widths[
                            (op.link.src[0], op.link.dst[0])]

        spec = farm(2, 1)
        placement = place_sim(sim, spec,
                              colocate=[["base", "fpga1"]])
        assert placement.assignment["fpga2"] == "h1"
        assert placement.cross_links == 2
        assert placement.cut_cost_ns == \
            2 * spec.link_model("h0", "h1").wire_ns(4)
