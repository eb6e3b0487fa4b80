"""Command-line front end.

Subcommands: validate, partition, retract, embed, thin, round, flow,
cut, dual, gap, search-gap, distortion.  Exit status is nonzero whenever
an invariant check fails or an input is rejected.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .config import DEFAULT_CONFIG
from .errors import FaceflowError
from .experiments import (
    distortion_experiment,
    gap_experiment,
    search_gap_instance,
)
from .graph import PlanarInstance, frac
from .instances import Instance, load_instance, save_instance, to_dict
from .partition import estimate_padding, sample_padded_partition
from .polyflow import (
    brute_sparsest_edge_cut,
    brute_sparsest_vertex_cut,
    dual_objective,
    mcf_dual_vertex,
    mcf_polymatroid_lp,
    mcf_vertex_lp,
)
from .retraction import retract_to_outerplanar
from .thinround import multiscale_round, thin_map
from .treeembed import embed_outerplanar, embed_sampler, is_star_shaped, is_thin


def _fmt(x, as_float: bool) -> str:
    if as_float:
        return f"{float(x):.9g}"
    return str(x)


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _tree_lines(tm) -> list[str]:
    out = [f"root: {tm.root}"]
    for (a, b, w) in sorted(tm.tree.edges()):
        out.append(f"tree-edge: {a} {b} {w}")
    for v in sorted(tm.mapping):
        out.append(f"map: {v} -> {tm.mapping[v]}")
    return out


def cmd_validate(args) -> int:
    inst = load_instance(args.instance)
    lines = []
    if inst.face is not None:
        problems = PlanarInstance(inst.graph, inst.face, inst.rotation).validate()
        for p in problems:
            lines.append(f"violation: {p}")
    if inst.polymatroid is not None:
        try:
            inst.caps()
        except ValueError as exc:
            lines.append(f"violation: {exc}")
    if inst.demands is not None and inst.face is not None:
        face_set = set(inst.face)
        for (u, v, _) in inst.demands.items():
            if u not in face_set or v not in face_set:
                lines.append(f"violation: demand ({u},{v}) leaves the face")
    if not lines:
        lines = ["ok"]
        _emit(lines, args.out)
        return 0
    _emit(lines, args.out)
    return 1


def cmd_partition(args) -> int:
    inst = load_instance(args.instance)
    tau = frac(Fraction(args.tau))
    part = sample_padded_partition(inst.graph, tau, args.seed)
    lines = [f"tau: {tau}", f"blocks: {len(part.blocks)}"]
    for b in part.blocks:
        lines.append("block: " + " ".join(str(v) for v in sorted(b)))
    radii = [tau / 8, tau / 4, tau / 2]
    rep = estimate_padding(inst.graph, tau, radii, args.samples, args.seed)
    for (x, r), fq in sorted(rep.frequencies.items()):
        lines.append(f"padding: x={x} R={r} cut-frequency={fq:.4f}")
    lines.append(f"alpha-hat: {rep.alpha_hat:.4f}")
    _emit(lines, args.out)
    return 0


def cmd_retract(args) -> int:
    inst = load_instance(args.instance)
    fr = retract_to_outerplanar(inst.planar_instance(), args.seed)
    lines = []
    for v in sorted(fr.mapping):
        lines.append(f"F: {v} -> {fr.face_ids[fr.mapping[v]]}")
    h_inst = Instance(fr.h, face=tuple(range(fr.h.n)))
    import json

    lines.append("h: " + json.dumps(to_dict(h_inst)))
    if args.out:
        save_instance(h_inst, args.out)
        _emit(lines[:-1], None)
    else:
        _emit(lines, None)
    return 0


def cmd_embed(args) -> int:
    inst = load_instance(args.instance)
    tm = embed_outerplanar(inst.graph, args.seed)
    if not tm.is_lipschitz() or not is_star_shaped(tm):
        _emit(["violation: embedding invariants failed"], args.out)
        return 1
    lines = _tree_lines(tm)
    if args.stats:
        rep = distortion_experiment(inst.graph, args.samples, args.seed)
        for (u, v), (mean, lcb) in sorted(rep.table.items()):
            lines.append(f"contraction: {u} {v} mean={mean:.4f} lcb={lcb:.4f}")
    _emit(lines, args.out)
    return 0


def cmd_thin(args) -> int:
    inst = load_instance(args.instance)
    tm = embed_outerplanar(inst.graph, args.seed)
    thin = thin_map(tm, args.seed)
    # Lipschitz on the slack graph (which implies it on the input graph);
    # thinness on every edge of the input graph.
    on_input = thin.with_source(inst.graph)
    if not thin.is_lipschitz() or not is_thin(on_input, DEFAULT_CONFIG.thinness):
        _emit(["violation: thinned map invariants failed"], args.out)
        return 1
    _emit(_tree_lines(thin), args.out)
    return 0


def cmd_round(args) -> int:
    inst = load_instance(args.instance)
    from .polyflow import AdaptedLengths

    g = inst.graph
    embed = embed_sampler(g)
    rep = multiscale_round(
        g,
        AdaptedLengths.split_evenly(g),
        inst.caps(),
        inst.demand_matrix(),
        lambda s: (embed(s), range(g.n)),
        args.samples,
        args.seed,
    )
    cert = rep.best
    lines = ["cut: " + " ".join(f"{u}-{v}" for (u, v) in sorted(cert.edges))]
    for e in sorted(cert.assignment):
        lines.append(f"assign: {e[0]}-{e[1]} -> {cert.assignment[e]}")
    lines.append(f"nu: {_fmt(cert.nu_value, args.float)}")
    lines.append(f"separated: {_fmt(cert.separated, args.float)}")
    lines.append(f"sparsity: {_fmt(cert.sparsity, args.float)}")
    if rep.sample_ratios:
        rs = rep.sample_ratios
        lines.append(
            f"bound-ratio: mean={sum(rs) / len(rs):.4f}"
            f" max={max(rs):.4f} over {len(rs)} samples"
        )
    _emit(lines, args.out)
    return 0


def cmd_flow(args) -> int:
    inst = load_instance(args.instance)
    dem = inst.demand_matrix()
    caps = inst.caps()
    if caps.is_vertex_form() and args.factor == 2:
        sol = mcf_vertex_lp(inst.graph, caps.vertex_caps, dem, endpoint_factor=2)
    else:
        sol = mcf_polymatroid_lp(inst.graph, caps, dem)
    lines = [f"mcf: {_fmt(sol.epsilon, args.float)}"]
    for (ci, a, b), f in sorted(sol.flows.items()):
        lines.append(f"flow: c{ci} {a}->{b} {_fmt(f, args.float)}")
    _emit(lines, args.out)
    return 0


def cmd_cut(args) -> int:
    inst = load_instance(args.instance)
    dem = inst.demand_matrix()
    lines = []
    if inst.vcaps is not None:
        s, phi = brute_sparsest_vertex_cut(inst.graph, inst.cap_dict(), dem)
        lines.append("vertex-cut: " + " ".join(str(v) for v in sorted(s)))
        lines.append(f"vertex-sparsity: {_fmt(phi, args.float)}")
    if len(inst.graph.edges) <= DEFAULT_CONFIG.edge_cut_max_edges:
        s, phi = brute_sparsest_edge_cut(inst.graph, inst.caps(), dem)
        lines.append(
            "edge-cut: " + " ".join(f"{u}-{v}" for (u, v) in sorted(s))
        )
        lines.append(f"edge-sparsity: {_fmt(phi, args.float)}")
    _emit(lines, args.out)
    return 0


def cmd_dual(args) -> int:
    inst = load_instance(args.instance)
    dem = inst.demand_matrix()
    length, ell, obj = mcf_dual_vertex(
        inst.graph, inst.cap_dict(), dem, endpoint_factor=args.factor
    )
    lines = [f"dual-objective: {_fmt(obj, args.float)}"]
    for e in sorted(length):
        lines.append(f"len: {e[0]}-{e[1]} {_fmt(length[e], args.float)}")
    val = dual_objective(inst.graph, ell, inst.caps(), dem)
    lines.append(f"rho-hat-ratio: {_fmt(val, args.float)}")
    _emit(lines, args.out)
    return 0


def cmd_gap(args) -> int:
    inst = load_instance(args.instance)
    rep = gap_experiment(inst, args.samples, args.seed)
    _emit(rep.lines(), args.out)
    if rep.gap_ratio is not None and rep.gap_ratio < 1.0 - 1e-9:
        return 1
    return 0


def cmd_search_gap(args) -> int:
    try:
        inst, phi, mcf = search_gap_instance(
            args.max_n, args.budget, seed=args.seed
        )
    except FaceflowError as exc:
        _emit([f"not-found: {exc}"], args.out)
        return 1
    lines = [
        f"phi: {_fmt(phi, args.float)}",
        f"mcf: {_fmt(mcf, args.float)}",
        f"ratio: {float(phi / mcf):.6f}",
    ]
    if args.out:
        save_instance(inst, args.out)
    import json

    lines.append("instance: " + json.dumps(to_dict(inst)))
    _emit(lines, None)
    return 0


def cmd_distortion(args) -> int:
    inst = load_instance(args.instance)
    rep = distortion_experiment(inst.graph, args.samples, args.seed)
    lines = []
    for (u, v), (mean, lcb) in sorted(rep.table.items()):
        lines.append(f"pair: {u} {v} mean={mean:.4f} lcb={lcb:.4f}")
    if rep.min_lcb is None:
        # No pair at a positive finite distance: nothing to bound.
        lines += ["min-mean: none", "min-lcb: none"]
    else:
        lines.append(f"min-mean: {rep.min_mean:.4f}")
        lines.append(f"min-lcb: {rep.min_lcb:.4f}")
    _emit(lines, args.out)
    bound = 1.0 / DEFAULT_CONFIG.embed_contraction
    return 0 if rep.min_lcb is None or rep.min_lcb >= bound - 1e-12 else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="faceflow",
        description="random tree embeddings, cut rounding, and flow/cut oracles",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_instance=True):
        sp = sub.add_parser(name)
        if needs_instance:
            sp.add_argument("instance", help="instance file (JSON)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--samples", type=int, default=DEFAULT_CONFIG.default_samples)
        sp.add_argument("--out", default=None)
        fmt = sp.add_mutually_exclusive_group()
        fmt.add_argument("--exact", dest="float", action="store_false")
        fmt.add_argument("--float", dest="float", action="store_true")
        sp.set_defaults(float=False, func=fn)
        return sp

    add("validate", cmd_validate)
    sp = add("partition", cmd_partition)
    sp.add_argument("--tau", required=True)
    add("retract", cmd_retract)
    sp = add("embed", cmd_embed)
    sp.add_argument("--stats", action="store_true")
    add("thin", cmd_thin)
    add("round", cmd_round)
    sp = add("flow", cmd_flow)
    sp.add_argument("--factor", type=int, choices=(1, 2), default=2)
    add("cut", cmd_cut)
    sp = add("dual", cmd_dual)
    sp.add_argument("--factor", type=int, choices=(1, 2), default=2)
    add("gap", cmd_gap)
    sp = add("search-gap", cmd_search_gap, needs_instance=False)
    sp.add_argument("--max-n", type=int, default=10)
    sp.add_argument("--budget", type=float, default=60.0)
    add("distortion", cmd_distortion)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FaceflowError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
