import itertools
import json
import os
from fractions import Fraction

import pytest

from faceflow.cli import main
from faceflow.graph import MetricGraph
from faceflow.instances import (
    Instance,
    cycle_instance,
    grid_graph,
    load_instance,
    save_instance,
)
from faceflow.polyflow import DemandMatrix, sparsity

F = Fraction


@pytest.fixture
def c6_file(tmp_path):
    g = cycle_instance(6)
    inst = Instance(
        g,
        face=tuple(range(6)),
        vcaps=tuple(F(1) for _ in range(6)),
        demands=DemandMatrix.from_pairs([(0, 3, F(1)), (1, 4, F(1))]),
    )
    p = os.path.join(tmp_path, "c6.json")
    save_instance(inst, p)
    return p


@pytest.fixture
def table_file(tmp_path):
    """6-cycle with a chord and tables rho_v(A) = min(2, |A|)."""
    g = cycle_instance(6).with_edges(
        list(cycle_instance(6).edges) + [(0, 3, F(3))]
    )
    tables = {}
    for v in range(6):
        inc = [(a, b) for (a, b, _) in g.edges if v in (a, b)]
        tables[v] = {
            frozenset(c): F(min(2, r))
            for r in range(len(inc) + 1)
            for c in itertools.combinations(inc, r)
        }
    inst = Instance(
        g,
        face=tuple(range(6)),
        polymatroid=tables,
        demands=DemandMatrix.from_pairs([(1, 4, F(1)), (2, 5, F(2))]),
    )
    p = os.path.join(tmp_path, "table.json")
    save_instance(inst, p)
    return p


@pytest.fixture
def grid_file(tmp_path):
    g, face = grid_graph(3, 3)
    inst = Instance(
        g,
        face=face,
        vcaps=tuple(F(1) for _ in range(9)),
        demands=DemandMatrix.from_pairs([(0, 8, F(1)), (2, 6, F(1))]),
    )
    p = os.path.join(tmp_path, "grid.json")
    save_instance(inst, p)
    return p


class TestValidate:
    def test_ok(self, c6_file, capsys):
        assert main(["validate", c6_file]) == 0
        assert "ok" in capsys.readouterr().out

    def test_bad_face(self, tmp_path, capsys):
        g = cycle_instance(6)
        inst = Instance(g, face=(0, 2, 1, 3, 4, 5))
        p = os.path.join(tmp_path, "bad.json")
        save_instance(inst, p)
        assert main(["validate", p]) == 1
        assert "violation" in capsys.readouterr().out

    def test_demand_off_face(self, tmp_path, capsys):
        g, face = grid_graph(3, 3)
        inst = Instance(
            g,
            face=face,
            demands=DemandMatrix.from_pairs([(0, 4, F(1))]),  # 4 interior
        )
        p = os.path.join(tmp_path, "off.json")
        save_instance(inst, p)
        assert main(["validate", p]) == 1
        assert "leaves the face" in capsys.readouterr().out

    def test_non_monotone_table(self, tmp_path, capsys):
        g = cycle_instance(3)
        e01, e02 = (0, 1), (0, 2)
        tables = {
            0: {
                frozenset(): F(0), frozenset({e01}): F(2), frozenset({e02}): F(1),
                frozenset({e01, e02}): F(1),
            }
        }
        p = os.path.join(tmp_path, "table.json")
        save_instance(Instance(g, polymatroid=tables), p)
        assert main(["validate", p]) == 1
        assert capsys.readouterr().out == (
            "violation: rho_0 not monotone at frozenset({(0, 1)}) <= "
            "frozenset({(0, 1), (0, 2)})\n"
        )

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["validate", os.path.join(tmp_path, "nope.json")])

    def test_malformed_json_exit_code(self, tmp_path):
        p = os.path.join(tmp_path, "broken.json")
        with open(p, "w") as f:
            f.write('{"n": 2, "edges": [[0, 0, 1, 1]]}\n')
        # A self-loop is rejected by graph validation with exit code 2.
        assert main(["validate", p]) == 2


class TestBadInstanceFiles:
    """An instance file whose demands or capacities do not fit its graph
    is refused when it is loaded, with one message for every command."""

    COMMANDS = ["validate", "flow", "dual", "cut", "gap"]

    @staticmethod
    def _save(tmp_path, **kw):
        p = os.path.join(tmp_path, "bad.json")
        save_instance(Instance(cycle_instance(6), face=tuple(range(6)), **kw), p)
        return p

    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_demand_endpoint_out_of_range(self, tmp_path, cmd, capsys):
        p = self._save(
            tmp_path, vcaps=(F(1),) * 6,
            demands=DemandMatrix.from_pairs([(0, 3, F(1)), (1, 6, F(1))]),
        )
        assert main([cmd, p]) == 2
        assert capsys.readouterr() == ("", "error: demand (1,6) out of range 0..5\n")

    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_vcaps_length_not_n(self, tmp_path, cmd, capsys):
        p = self._save(
            tmp_path, vcaps=(F(1),) * 5,
            demands=DemandMatrix.from_pairs([(0, 3, F(1))]),
        )
        assert main([cmd, p]) == 2
        assert capsys.readouterr() == ("", "error: vcaps has 5 entries for 6 vertices\n")

    @pytest.mark.parametrize("cmd", ["flow", "dual", "cut", "gap"])
    def test_negative_capacity(self, tmp_path, cmd, capsys):
        p = self._save(
            tmp_path, vcaps=(F(1), F(-1), F(1), F(1), F(1), F(1)),
            demands=DemandMatrix.from_pairs([(0, 3, F(1))]),
        )
        assert main([cmd, p]) == 2
        assert capsys.readouterr() == (
            "", "error: NegativeEntry: negative capacity -1 at vertex 1\n"
        )


E01, E12 = (0, 1), (1, 2)
PATH_TABLES = {
    0: {frozenset(): F(0), frozenset({E01}): F(1)},
    1: {
        frozenset(): F(0), frozenset({E01}): F(1), frozenset({E12}): F(1),
        frozenset({E01, E12}): F(1),
    },
    2: {frozenset(): F(0), frozenset({E12}): F(1)},
}


class TestIncompleteTables:
    """A polymatroid table that misses a nonempty set of its vertex's
    edges, or a vertex with edges and no table, is refused when the
    capacities are read, not met later as a missing key.  Both name the
    first such set of the first such vertex."""

    # Read as 0, the missing {0-1} of vertex 1 is still monotone and
    # submodular, so validate_tables alone lets it through.
    NO_ENTRY = {
        **PATH_TABLES,
        1: {k: x for k, x in PATH_TABLES[1].items() if k != {E01}},
    }
    NO_TABLE = {0: PATH_TABLES[0], 1: PATH_TABLES[1]}
    SHAPES = [
        pytest.param(NO_ENTRY, "rho_1 has no value at frozenset({(0, 1)})", id="no-entry"),
        pytest.param(NO_TABLE, "rho_2 has no value at frozenset({(1, 2)})", id="no-table"),
    ]

    @staticmethod
    def _save(tmp_path, tables):
        """Path 0-1-2 with one demand across it."""
        g = MetricGraph(3, ((0, 1, F(1)), (1, 2, F(1))))
        p = os.path.join(tmp_path, "path.json")
        save_instance(Instance(
            g, polymatroid=tables, demands=DemandMatrix.from_pairs([(0, 2, F(1))])
        ), p)
        return p

    def test_complete_tables_pass(self, tmp_path, capsys):
        p = self._save(tmp_path, PATH_TABLES)
        assert main(["validate", p]) == 0
        assert main(["cut", p]) == 0
        assert "edge-sparsity: 1\n" in capsys.readouterr().out

    @pytest.mark.parametrize("tables, message", SHAPES)
    def test_validate_reports(self, tmp_path, tables, message, capsys):
        assert main(["validate", self._save(tmp_path, tables)]) == 1
        assert capsys.readouterr() == (f"violation: {message}\n", "")

    @pytest.mark.parametrize("cmd", ["cut", "flow", "gap"])
    @pytest.mark.parametrize("tables, message", SHAPES)
    def test_commands_refuse(self, tmp_path, cmd, tables, message, capsys):
        assert main([cmd, self._save(tmp_path, tables)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestPipelineCommands:
    def test_partition(self, c6_file, capsys):
        rc = main(["partition", c6_file, "--tau", "2", "--samples", "30"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "blocks:" in out and "alpha-hat:" in out

    def test_partition_bad_tau(self, c6_file):
        assert main(["partition", c6_file, "--tau", "0"]) == 2

    def test_retract(self, grid_file, tmp_path, capsys):
        hp = os.path.join(tmp_path, "h.json")
        assert main(["retract", grid_file, "--seed", "3", "--out", hp]) == 0
        out = capsys.readouterr().out
        assert "F: 0 ->" in out
        h = load_instance(hp)
        assert h.graph.n <= 9

    def test_embed(self, c6_file, capsys):
        assert main(["embed", c6_file, "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "root:" in out and "map: 0 ->" in out

    def test_embed_stats(self, c6_file, capsys):
        rc = main(["embed", c6_file, "--stats", "--samples", "50"])
        assert rc == 0
        assert "contraction:" in capsys.readouterr().out

    def test_embed_rejects_non_outerplanar(self, grid_file):
        assert main(["embed", grid_file]) == 2

    def test_thin(self, c6_file, capsys):
        assert main(["thin", c6_file, "--seed", "1"]) == 0
        assert "tree-edge:" in capsys.readouterr().out

    def test_round(self, c6_file, capsys):
        rc = main(["round", c6_file, "--samples", "10", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cut:" in out and "sparsity:" in out

    def test_round_without_samples(self, c6_file, capsys):
        assert main(["round", c6_file, "--samples", "0"]) == 2
        err = capsys.readouterr().err
        assert err == "error: NoSeparatedDemand: no sample produced a separating cut\n"


class TestFlowCutCommands:
    def test_flow_exact(self, c6_file, capsys):
        assert main(["flow", c6_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("mcf: ")
        # Exact output prints a Fraction, not a decimal approximation.
        val = out.splitlines()[0].split()[1]
        assert "/" in val or val.isdigit()

    def test_flow_float(self, c6_file, capsys):
        assert main(["flow", c6_file, "--float"]) == 0
        val = capsys.readouterr().out.splitlines()[0].split()[1]
        float(val)

    def test_cut(self, c6_file, capsys):
        assert main(["cut", c6_file]) == 0
        out = capsys.readouterr().out
        assert "vertex-sparsity:" in out and "edge-sparsity:" in out

    @pytest.mark.parametrize("which", ["c6_file", "table_file"])
    def test_cut_edge_set_rederives_sparsity(self, which, request, capsys):
        path = request.getfixturevalue(which)
        assert main(["cut", path]) == 0
        fields = dict(
            line.split(": ", 1) for line in capsys.readouterr().out.splitlines()
        )
        cut = [tuple(map(int, e.split("-"))) for e in fields["edge-cut"].split()]
        inst = load_instance(path)
        phi = sparsity(inst.graph, cut, inst.caps(), inst.demand_matrix())
        assert phi == Fraction(fields["edge-sparsity"])

    def test_dual_matches_flow(self, c6_file, capsys):
        assert main(["flow", c6_file]) == 0
        mcf = capsys.readouterr().out.splitlines()[0].split()[1]
        assert main(["dual", c6_file]) == 0
        dual = capsys.readouterr().out.splitlines()[0].split()[1]
        assert F(mcf) == F(dual)

    def test_flow_requires_demands(self, tmp_path):
        p = os.path.join(tmp_path, "nodem.json")
        save_instance(Instance(cycle_instance(4), vcaps=(F(1),) * 4), p)
        assert main(["flow", p]) == 2


class TestExperimentsCommands:
    def test_gap(self, c6_file, capsys):
        rc = main(["gap", c6_file, "--samples", "20"])
        assert rc == 0
        assert "ratio" in capsys.readouterr().out

    def test_search_gap(self, tmp_path, capsys):
        wp = os.path.join(tmp_path, "witness.json")
        rc = main(
            ["search-gap", "--max-n", "12", "--budget", "30", "--out", wp]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "ratio:" in out
        w = load_instance(wp)
        assert w.graph.n <= 12

    def test_search_gap_rejects_small_n(self, capsys):
        rc = main(["search-gap", "--max-n", "4", "--budget", "1"])
        assert rc == 2
        assert capsys.readouterr().err == "error: max_n must be in 5..14, got 4\n"

    def test_distortion(self, c6_file, capsys):
        rc = main(["distortion", c6_file, "--samples", "800"])
        assert rc == 0
        assert "min-lcb:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "g", [MetricGraph(1, ()), MetricGraph(2, ((0, 1, F(0)),))],
        ids=["one-vertex", "zero-edge"],
    )
    def test_distortion_without_pairs(self, g, tmp_path, capsys):
        # No pair at a positive finite distance: no bound, and no violation.
        p = os.path.join(tmp_path, "g.json")
        save_instance(Instance(g, face=tuple(range(g.n)), vcaps=(F(1),) * g.n), p)
        assert main(["distortion", p, "--samples", "5"]) == 0
        assert capsys.readouterr().out == "min-mean: none\nmin-lcb: none\n"

    @pytest.mark.parametrize("args", [
        ["distortion", "--samples", "0"],
        ["distortion", "--samples", "-1"],
        ["partition", "--tau", "3", "--samples", "0"],
        ["embed", "--stats", "--samples", "0"],
    ])
    def test_too_few_samples_rejected(self, c6_file, args, capsys):
        assert main([args[0], c6_file, *args[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: samples must be >= 1")

    def test_out_file(self, c6_file, tmp_path):
        op = os.path.join(tmp_path, "flow.txt")
        assert main(["flow", c6_file, "--out", op]) == 0
        with open(op) as f:
            assert f.read().startswith("mcf:")
