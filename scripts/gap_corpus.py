"""Run the end-to-end flow/cut gap experiment over the regression corpus.

Prints one report per instance and exits nonzero if, on any instance,
the pipeline's own rounded cut is missing or its ratio to the flow value
exceeds the recorded pipeline bound.  The brute-force cut is reported
but does not count: it could hide a broken rounding.
"""

import argparse
import sys
from fractions import Fraction

from faceflow.config import DEFAULT_CONFIG
from faceflow.experiments import gap_experiment
from faceflow.instances import (
    Instance,
    cycle_instance,
    grid_graph,
    random_caps,
    random_demands,
    random_outerplanar,
    random_planar_with_face,
)
from faceflow.polyflow import DemandMatrix

F = Fraction


def corpus(seeds):
    out = []
    g = cycle_instance(6)
    out.append(("c6", Instance(
        g, face=tuple(range(6)), vcaps=(F(1),) * 6,
        demands=DemandMatrix.from_pairs([(0, 3, F(1)), (1, 4, F(1))]),
    )))
    gg, face = grid_graph(3, 3)
    out.append(("grid3x3", Instance(
        gg, face=face, vcaps=(F(1),) * 9,
        demands=DemandMatrix.from_pairs([(0, 8, F(1)), (2, 6, F(1))]),
    )))
    # Fixed chorded instances whose slack transform deletes edges, then
    # the random outerplanar ones.
    faced = [("outer7-0", random_outerplanar, 7, 0),
             ("outer7-1", random_outerplanar, 7, 1),
             ("outer8-0", random_outerplanar, 8, 0),
             ("planar11-0", random_planar_with_face, 11, 0)]
    faced += [(f"outer6-{s}", random_outerplanar, 6, s) for s in seeds]
    for name, gen, n, s in faced:
        go, fo = gen(n, s)
        out.append((name, Instance(
            go, face=fo, vcaps=random_caps(n, s),
            demands=random_demands(fo, s),
        )))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--random-instances", type=int, default=5)
    args = ap.parse_args()

    bound = DEFAULT_CONFIG.pipeline_ratio_bound
    worst = 0.0
    for name, inst in corpus(range(args.seed, args.seed + args.random_instances)):
        rep = gap_experiment(inst, args.samples, args.seed)
        print(f"== {name} ==")
        for line in rep.lines():
            print("  " + line)
        cert = rep.best_certificate
        if cert is None or rep.mcf <= 0:
            print("  pipeline_ratio: none")
            worst = float("inf")
            continue
        ratio = float(cert.sparsity / rep.mcf)
        print(f"  pipeline_ratio: {ratio:.6g}")
        worst = max(worst, ratio)
    print(f"worst pipeline ratio: {worst:.4f}  (recorded bound {bound})")
    return 0 if worst <= bound else 1


if __name__ == "__main__":
    sys.exit(main())
