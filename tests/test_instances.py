import os
from fractions import Fraction

import pytest

from faceflow.graph import (
    PlanarInstance,
    all_pairs_distances,
    is_outerplanar,
    is_reduced,
)
from faceflow.instances import (
    Instance,
    cycle_instance,
    from_dict,
    grid_graph,
    load_instance,
    random_caps,
    random_demands,
    random_outerplanar,
    random_planar_with_face,
    random_tree,
    save_instance,
    to_dict,
)
from faceflow.polyflow import DemandMatrix

F = Fraction


class TestSerialization:
    def full_instance(self):
        g, face = grid_graph(2, 3)
        return Instance(
            g,
            face=face,
            vcaps=tuple(F(k + 1, 2) for k in range(6)),
            demands=DemandMatrix.from_pairs(
                [(0, 5, F(3, 4)), (2, 3, F(1))]
            ),
        )

    def test_round_trip(self):
        inst = self.full_instance()
        back = from_dict(to_dict(inst))
        assert back.graph.n == inst.graph.n
        assert set(back.graph.edges) == set(inst.graph.edges)
        assert back.face == inst.face
        assert back.vcaps == inst.vcaps
        assert back.demands.pairs == inst.demands.pairs

    def test_round_trip_polymatroid(self):
        g = cycle_instance(3)
        e01, e12, e02 = (0, 1), (1, 2), (0, 2)
        tables = {
            1: {
                frozenset(): F(0),
                frozenset({e01}): F(1),
                frozenset({e12}): F(1),
                frozenset({e01, e12}): F(3, 2),
            }
        }
        inst = Instance(g, polymatroid=tables)
        back = from_dict(to_dict(inst))
        assert back.polymatroid == tables

    def test_save_load(self, tmp_path):
        inst = self.full_instance()
        p = os.path.join(tmp_path, "inst.json")
        save_instance(inst, p)
        back = load_instance(p)
        assert to_dict(back) == to_dict(inst)

    def test_fractions_exact(self):
        g = cycle_instance(3, length=F(355, 113))
        d = to_dict(Instance(g))
        assert d["edges"][0][2:] == [355, 113]

    def test_caps_accessors(self):
        inst = self.full_instance()
        assert inst.cap_dict()[3] == F(2)
        caps = inst.caps()
        assert caps.is_vertex_form()
        assert inst.demand_matrix().dem(5, 0) == F(3, 4)
        with pytest.raises(ValueError):
            Instance(cycle_instance(3)).cap_dict()
        with pytest.raises(ValueError):
            Instance(cycle_instance(3)).demand_matrix()


class TestGenerators:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_tree_is_tree(self, seed):
        g = random_tree(8, seed)
        assert len(g.edges) == 7
        d = all_pairs_distances(g)
        assert all(d[0][v] != float("inf") for v in range(8))

    @pytest.mark.parametrize("seed", range(15))
    def test_random_outerplanar_valid(self, seed):
        g, face = random_outerplanar(8, seed)
        assert is_outerplanar(g)
        assert is_reduced(g)
        assert sorted(face) == list(range(8))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_planar_with_face(self, seed):
        g, face = random_planar_with_face(8, seed)
        assert PlanarInstance(g, face).validate() == []

    def test_grid_boundary(self):
        g, face = grid_graph(3, 3)
        assert g.n == 9 and len(g.edges) == 12
        assert len(face) == 8 and 4 not in face

    @pytest.mark.parametrize("seed", range(10))
    def test_random_caps_positive(self, seed):
        caps = random_caps(6, seed)
        assert len(caps) == 6
        assert all(c > 0 for c in caps)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_demands_on_given_vertices(self, seed):
        verts = [0, 2, 4, 6]
        dem = random_demands(verts, seed)
        items = dem.items()
        assert {x for (u, v, _) in items for x in (u, v)} <= set(verts)
        assert sum(w for (_, _, w) in items) > 0
