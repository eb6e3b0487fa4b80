"""Monte Carlo contraction report for the random tree embedding.

For each instance family, prints the per-pair mean contraction ratio
d_T(F(u), F(v)) / d_G(u, v) with a one-sided 99% lower confidence bound,
and exits nonzero if any bound drops below the guaranteed 1/960 floor.
"""

import argparse
import sys

from faceflow.config import DEFAULT_CONFIG
from faceflow.experiments import distortion_experiment
from faceflow.instances import cycle_instance, random_outerplanar, slack_cycle


def report(name: str, g, samples: int, seed: int) -> bool:
    """Print g's contraction table; False if its lowest bound is below the
    floor.  A graph with no pair at a positive finite distance has no
    bound, and passes."""
    floor = 1.0 / DEFAULT_CONFIG.embed_contraction
    rep = distortion_experiment(g, samples, seed)
    print(f"== {name} (n={g.n}, {samples} samples) ==")
    for (u, v), (mean, lcb) in sorted(rep.table.items()):
        print(f"  pair {u}-{v}: mean={mean:.5f} lcb={lcb:.5f}")
    if rep.min_lcb is None:
        print("  min-lcb: none (no pair at a positive finite distance)")
        return True
    print(f"  min-lcb: {rep.min_lcb:.5f}  floor: {floor:.5f}")
    return rep.min_lcb >= floor


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--random-instances", type=int, default=10)
    args = ap.parse_args()

    # The slack cycles keep an ear after the 160-slack transform, so their
    # embeddings run the anchor and glue steps; the others become trees.
    graphs = [("c6", cycle_instance(6))]
    graphs += [(f"slack{n}", slack_cycle(n)) for n in (6, 8, 12)]
    for s in range(args.seed, args.seed + args.random_instances):
        g, _ = random_outerplanar(5 + s % 3, s)
        graphs.append((f"outer-{s}", g))

    ok = True
    for name, g in graphs:
        ok = report(name, g, args.samples, args.seed) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
