"""Record the reference outputs that later runs of the benchmark compare against.

Run from the repository root, at a commit whose outputs are trusted:

    python3 bench/record.py

For every workload and each of seeds 1..5 it runs the first
``reference_items`` items, refuses to write anything if an output fails its
invariant check, and writes bench/reference/<workload>.json.
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = (1, 2, 3, 4, 5)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads
    from environment import git_commit

    recorded = {}
    for name, workload in workloads.WORKLOADS.items():
        data = recorded[name] = {"commit": git_commit(run.ROOT),
                                 "items_per_seed": workload.reference_items,
                                 "seeds": {}}
        for seed in SEEDS:
            done, _ = run.run_items(workload, workloads.items(workload, seed),
                                    count=workload.reference_items)
            problems, _ = run.check_all(workloads, done, [])
            if problems:
                for problem in problems:
                    print(f"{name} seed {seed}: {problem}", file=sys.stderr)
                return 1
            data["seeds"][str(seed)] = [workloads.record(item, res)
                                        for item, res, _, _ in done]
            print(f"{name} seed {seed}: {len(done)} items recorded")
    run.REFERENCE.mkdir(exist_ok=True)
    for name, data in recorded.items():
        (run.REFERENCE / f"{name}.json").write_text(json.dumps(data, indent=0)
                                                    + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
