import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import random_reduced_graph
from faceflow.errors import NoSeparatedDemand
from faceflow.graph import MetricGraph
from faceflow.instances import cycle_instance, random_caps, random_demands, random_tree
from faceflow.polyflow import (
    AdaptedLengths,
    DemandMatrix,
    PolymatroidCaps,
    assignment_value,
    brute_sparsest_edge_cut,
    brute_sparsest_vertex_cut,
    dual_objective,
    lovasz_extension,
    mcf_dual_vertex,
    mcf_polymatroid_lp,
    mcf_vertex_lp,
    nu,
    rho_hat,
    separated_demand,
    sigma,
    sparsity,
    vertex_rho_s,
)

F = Fraction


def unit_caps(n):
    return PolymatroidCaps.from_vertex_caps({v: F(1) for v in range(n)})


def single_edge():
    return MetricGraph(2, ((0, 1, F(1)),))


def assert_feasible_flow(g, cap, sol, endpoint_factor):
    """Reference recheck of a concurrent flow, independent of the LP
    rows: every commodity's flow is conserved away from its source and
    delivers epsilon * demand at its sink, and the flow on the edges
    at each vertex is within endpoint_factor * cap."""
    arcs = [(u, v) for (u, v, _) in g.edges] + [(v, u) for (u, v, _) in g.edges]
    for ci, (s, t, d) in enumerate(sol.commodities):
        for v in range(g.n):
            if v == s:
                continue
            bal = sum(
                (sol.flows.get((ci, a, b), F(0)) * ((b == v) - (a == v))
                 for (a, b) in arcs),
                F(0),
            )
            assert bal == (sol.epsilon * d if v == t else 0), (ci, v)
    for w in range(g.n):
        load = sum((f for (_, a, b), f in sol.flows.items() if w in (a, b)), F(0))
        assert load <= endpoint_factor * cap.get(w, F(0)), w


class TestCaps:
    def test_vertex_form_rho(self):
        caps = PolymatroidCaps.from_vertex_caps({0: F(3), 1: F(5)})
        assert caps.rho(0, [(0, 1)]) == 3
        assert caps.rho(0, []) == 0

    def test_tables_validated(self):
        good = PolymatroidCaps(
            tables={
                0: {
                    frozenset(): F(0),
                    frozenset({(0, 1)}): F(1),
                    frozenset({(0, 2)}): F(1),
                    frozenset({(0, 1), (0, 2)}): F(3, 2),
                }
            }
        )
        good.validate_tables()

    def test_non_submodular_rejected(self):
        bad = PolymatroidCaps(
            tables={
                0: {
                    frozenset(): F(0),
                    frozenset({(0, 1)}): F(1),
                    frozenset({(0, 2)}): F(1),
                    frozenset({(0, 1), (0, 2)}): F(3),
                }
            }
        )
        with pytest.raises(ValueError):
            bad.validate_tables()

    def test_non_monotone_rejected(self):
        bad = PolymatroidCaps(
            tables={
                0: {
                    frozenset(): F(0),
                    frozenset({(0, 1)}): F(2),
                    frozenset({(0, 2)}): F(0),
                    frozenset({(0, 1), (0, 2)}): F(1),
                }
            }
        )
        with pytest.raises(ValueError):
            bad.validate_tables()


class TestLovasz:
    def test_indicator(self):
        table = {
            frozenset(): F(0),
            frozenset({"a"}): F(2),
            frozenset({"b"}): F(3),
            frozenset({"a", "b"}): F(4),
        }
        rho = lambda s: table[s]
        assert lovasz_extension(rho, {"a": F(1), "b": F(0)}) == 2
        assert lovasz_extension(rho, {"a": F(1), "b": F(1)}) == 4

    def test_vertex_cap_breakpoints(self):
        # cap = 2, weights (1, 3): integral of 2 over [0, 3] where the
        # level set is nonempty -> 2 * 3 = 6.
        caps = PolymatroidCaps.from_vertex_caps({0: F(2)})
        assert rho_hat(caps, 0, {(0, 1): F(1), (0, 2): F(3)}) == 6

    @pytest.mark.parametrize("seed", range(10))
    def test_positively_homogeneous(self, seed):
        rng = random.Random(seed)
        items = ["a", "b", "c"]
        # Random monotone coverage-style function (submodularity not
        # needed for homogeneity).
        weights = {i: F(rng.randrange(1, 6)) for i in items}
        rho = lambda s: sum((weights[i] for i in s), F(0))
        ell = {i: F(rng.randrange(0, 9), 2) for i in items}
        three = {i: 3 * v for i, v in ell.items()}
        assert lovasz_extension(rho, three) == 3 * lovasz_extension(rho, ell)


class TestNu:
    def test_single_edge_min_endpoint(self):
        caps = PolymatroidCaps.from_vertex_caps({0: F(3), 1: F(5)})
        val, assign = nu([(0, 1)], caps)
        assert val == 3
        assert assign[(0, 1)] == 0

    def test_empty(self):
        assert nu([], unit_caps(2))[0] == 0

    def test_star_saturation(self):
        g_edges = [(0, 1), (0, 2), (0, 3)]
        caps = unit_caps(4)
        val, assign = nu(g_edges, caps)
        assert val == 1
        assert all(assign[e] == 0 for e in g_edges)

    def test_assignment_value_consistent(self):
        caps = unit_caps(4)
        val, assign = nu([(0, 1), (0, 2)], caps)
        assert assignment_value(assign, caps) == val


class TestSigmaSparsity:
    def test_empty_cut_connected(self, c4=None):
        g = cycle_instance(4)
        assert sigma(g, [], 0, 2) == 0

    def test_all_edges(self):
        g = cycle_instance(4)
        assert sigma(g, [e[:2] for e in g.edges], 0, 2) == 1

    def test_bridge(self):
        g = MetricGraph(4, ((0, 1, F(1)), (1, 2, F(1)), (2, 3, F(1))))
        assert sigma(g, [(1, 2)], 0, 3) == 1
        assert sigma(g, [(1, 2)], 0, 1) == 0

    def test_sparsity_single_edge(self):
        g = single_edge()
        dem = DemandMatrix.from_pairs([(0, 1, F(1))])
        assert sparsity(g, [(0, 1)], unit_caps(2), dem) == 1

    def test_sparsity_no_separation(self):
        g = cycle_instance(4)
        dem = DemandMatrix.from_pairs([(0, 2, F(1))])
        with pytest.raises(NoSeparatedDemand):
            sparsity(g, [(0, 1)], unit_caps(4), dem)

    @pytest.mark.parametrize("seed", range(5))
    def test_sparsity_matches_recomputation(self, seed):
        rng = random.Random(seed)
        g = random_reduced_graph(6, seed, p=0.3)
        dem = random_demands(range(6), seed, pairs=2)
        caps = unit_caps(6)
        edges = [e[:2] for e in g.edges]
        cut = rng.sample(edges, min(3, len(edges)))
        sep = separated_demand(g, cut, dem)
        if sep == 0:
            return
        # Independent recomputation: enumerate assignments by hand.
        best = None
        for bits in range(1 << len(cut)):
            assign = {
                tuple(sorted(e)): sorted(e)[(bits >> i) & 1]
                for i, e in enumerate(cut)
            }
            v = assignment_value(assign, caps)
            best = v if best is None or v < best else best
        assert sparsity(g, cut, caps, dem) == best / sep


class TestBruteCuts:
    def test_path_vertex_cut(self):
        g = MetricGraph(3, ((0, 1, F(1)), (1, 2, F(1))))
        dem = DemandMatrix.from_pairs([(0, 2, F(1))])
        cap = {v: F(1) for v in range(3)}
        s, phi = brute_sparsest_vertex_cut(g, cap, dem)
        assert phi == 1 and s == frozenset({1})
        assert vertex_rho_s(g, frozenset({0}), 0, 2) == F(1, 2)

    def test_single_edge_vertex_cut(self):
        g = single_edge()
        dem = DemandMatrix.from_pairs([(0, 1, F(1))])
        _, phi = brute_sparsest_vertex_cut(g, {0: F(1), 1: F(1)}, dem)
        assert phi == 2

    def test_single_edge_edge_cut(self):
        g = single_edge()
        dem = DemandMatrix.from_pairs([(0, 1, F(2))])
        caps = PolymatroidCaps.from_vertex_caps({0: F(3), 1: F(5)})
        s, phi = brute_sparsest_edge_cut(g, caps, dem)
        assert phi == F(3, 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_sandwich(self, seed):
        g = random_tree(5, seed)
        dem = random_demands(range(5), seed, pairs=2)
        cap = dict(enumerate(random_caps(5, seed)))
        caps = PolymatroidCaps.from_vertex_caps(cap)
        try:
            _, phi_v = brute_sparsest_vertex_cut(g, cap, dem)
            _, phi_rho = brute_sparsest_edge_cut(g, caps, dem)
        except NoSeparatedDemand:
            return
        assert phi_rho <= phi_v <= 2 * phi_rho


class TestFlowLP:
    def test_single_edge_menger(self):
        g = single_edge()
        dem = DemandMatrix.from_pairs([(0, 1, F(1))])
        sol = mcf_vertex_lp(g, {0: F(1), 1: F(1)}, dem, endpoint_factor=2)
        assert sol.epsilon == 2
        assert_feasible_flow(g, {0: F(1), 1: F(1)}, sol, 2)
        _, phi = brute_sparsest_vertex_cut(g, {0: F(1), 1: F(1)}, dem)
        assert phi == sol.epsilon

    def test_single_edge_polymatroid_form(self):
        g = single_edge()
        dem = DemandMatrix.from_pairs([(0, 1, F(1))])
        sol = mcf_vertex_lp(g, {0: F(1), 1: F(1)}, dem, endpoint_factor=1)
        assert sol.epsilon == 1
        assert_feasible_flow(g, {0: F(1), 1: F(1)}, sol, 1)

    def test_path_flow(self):
        g = MetricGraph(3, ((0, 1, F(1)), (1, 2, F(1))))
        dem = DemandMatrix.from_pairs([(0, 2, F(1))])
        sol = mcf_vertex_lp(g, {v: F(1) for v in range(3)}, dem)
        assert sol.epsilon == 1
        assert_feasible_flow(g, {v: F(1) for v in range(3)}, sol, 2)

    @pytest.mark.parametrize("seed", range(8))
    def test_tree_equality(self, seed):
        g = random_tree(6, seed)
        cap = dict(enumerate(random_caps(6, seed)))
        dem = random_demands(range(6), seed, pairs=2)
        sol = mcf_vertex_lp(g, cap, dem, endpoint_factor=2)
        assert_feasible_flow(g, cap, sol, 2)
        _, phi = brute_sparsest_vertex_cut(g, cap, dem)
        assert sol.epsilon == phi

    def test_recheck_rejects_tampered_flow(self):
        g = MetricGraph(3, ((0, 1, F(1)), (1, 2, F(1))))
        cap = {v: F(1) for v in range(3)}
        sol = mcf_vertex_lp(g, cap, DemandMatrix.from_pairs([(0, 2, F(1))]))
        assert_feasible_flow(g, cap, sol, 2)
        leaky = dict(sol.flows)
        leaky[(0, 1, 2)] -= F(1, 2)
        with pytest.raises(AssertionError):
            assert_feasible_flow(g, cap, replace(sol, flows=leaky), 2)
        # Raising epsilon and every flow with it keeps conservation but
        # overloads the middle vertex.
        doubled = {k: 2 * f for k, f in sol.flows.items()}
        with pytest.raises(AssertionError):
            assert_feasible_flow(
                g, cap, replace(sol, epsilon=2 * sol.epsilon, flows=doubled), 2
            )

    def test_disconnected_demand_zero(self):
        g = MetricGraph(3, ((0, 1, F(1)),))
        dem = DemandMatrix.from_pairs([(0, 2, F(1))])
        sol = mcf_vertex_lp(g, {v: F(1) for v in range(3)}, dem)
        assert sol.epsilon == 0
        assert_feasible_flow(g, {v: F(1) for v in range(3)}, sol, 2)


class TestDual:
    def test_single_edge_duality(self):
        g = single_edge()
        dem = DemandMatrix.from_pairs([(0, 1, F(1))])
        length, ell, obj = mcf_dual_vertex(g, {0: F(1), 1: F(1)}, dem)
        assert obj == 2
        ell.check_adapted()

    def test_path_duality(self):
        g = MetricGraph(3, ((0, 1, F(1)), (1, 2, F(1))))
        dem = DemandMatrix.from_pairs([(0, 2, F(1))])
        _, _, obj = mcf_dual_vertex(g, {v: F(1) for v in range(3)}, dem)
        assert obj == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_duality_random(self, seed):
        g = random_reduced_graph(5, seed, p=0.4)
        cap = dict(enumerate(random_caps(5, seed)))
        dem = random_demands(range(5), seed, pairs=2)
        sol = mcf_vertex_lp(g, cap, dem)
        assert_feasible_flow(g, cap, sol, 2)
        _, _, obj = mcf_dual_vertex(g, cap, dem)
        assert sol.epsilon == obj

    def test_dual_objective_split_evenly(self):
        g = single_edge()
        dem = DemandMatrix.from_pairs([(0, 1, F(1))])
        val = dual_objective(g, AdaptedLengths.split_evenly(g), unit_caps(2), dem)
        assert val == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_weak_duality_any_adapted(self, seed):
        g = random_reduced_graph(5, seed, p=0.4)
        cap = dict(enumerate(random_caps(5, seed)))
        caps = PolymatroidCaps.from_vertex_caps(cap)
        dem = random_demands(range(5), seed, pairs=2)
        sol = mcf_vertex_lp(g, cap, dem, endpoint_factor=1)
        assert_feasible_flow(g, cap, sol, 1)
        val = dual_objective(g, AdaptedLengths.split_evenly(g), caps, dem)
        assert val >= sol.epsilon


class TestPolymatroidLP:
    def test_table_caps_constrain_flow(self):
        # Path a - b - c; rho_b caps each single edge at 1 but the pair at
        # 3/2, so concurrent flow through b is 3/2.
        g = MetricGraph(3, ((0, 1, F(1)), (1, 2, F(1))))
        tables = {
            v: {
                frozenset({e}): F(1)
                for e in [(0, 1), (1, 2)]
                if v in e
            }
            for v in range(3)
        }
        tables[1][frozenset({(0, 1), (1, 2)})] = F(3, 2)
        caps = PolymatroidCaps(tables=tables)
        dem = DemandMatrix.from_pairs([(0, 2, F(1))])
        sol = mcf_polymatroid_lp(g, caps, dem)
        assert sol.epsilon == F(3, 4)

    def test_vertex_form_delegates(self):
        g = single_edge()
        dem = DemandMatrix.from_pairs([(0, 1, F(1))])
        caps = PolymatroidCaps.from_vertex_caps({0: F(1), 1: F(1)})
        sol = mcf_polymatroid_lp(g, caps, dem)
        assert sol.epsilon == 1
        assert_feasible_flow(g, caps.vertex_caps, sol, 1)
