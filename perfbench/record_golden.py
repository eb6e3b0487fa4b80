"""Record the golden outputs that perfbench/run.py compares against.

Run from the repository root, on the commit whose behaviour is the
reference, never on a change under test:

    python3 perfbench/record_golden.py

For every workload and every Monte Carlo seed in the pool (full size and
smoke size) it runs each task once, applies the
independent exact checks, and writes the golden keys of the outputs to
perfbench/golden.json.  It refuses to record an output that fails a
check, or a key whose value differs between two tasks.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    golden: dict[str, str] = {}
    failures: list[str] = []
    for name in workloads.WORKLOADS:
        for smoke in (True, False):
            for seed in range(workloads.SEED_POOL):
                wl = workloads.build(name, seed, smoke, golden=None)
                for task in wl.tasks:
                    try:
                        out = task.run()
                    except Exception as e:  # reported below; nothing is written
                        failures.append(f"{name} {task.name}: {type(e).__name__}: {e}")
                        continue
                    failures += [f"{name} {task.name}: {m}" for m in task.check(out)]
                    for key, value in task.record(out).items():
                        if golden.setdefault(key, value) != value:
                            failures.append(f"{key}: {value} != {golden[key]}")
                print(f"recorded {name} seed {seed}{' smoke' if smoke else ''}", flush=True)
    if failures:
        print("\n".join(["not written; failures:"] + failures))
        return 1
    path = Path(workloads.GOLDEN_PATH)
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} golden values to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
