#!/usr/bin/env python3
"""Regenerate expected_seed0.json: the seed-0 values the benchmark checks.

Run from the repository root at a commit whose outputs are trusted:

    python3 perfbench/freeze.py

It runs one seed-0 op of each map workload and stores the T = 2N threshold
table, the steep-profile threshold and the map values at a fixed set of
radii.  The benchmark compares later outputs with them at 1e-7 absolute.
"""

import json

import run
import workloads


def main() -> None:
    cli = run.import_program()
    frozen = {}
    for name in ("paper-sweep", "large-map"):
        plan = workloads.make_plan(name, 0, run.OUT / f"freeze-{name}")
        _, texts, problems = run.Run(cli, plan).execute()
        if problems:
            raise SystemExit("\n".join(problems))
        result = workloads.parse_outputs(plan, texts)
        frozen[name] = workloads.stored_values(plan, result)
    workloads.EXPECTED_FILE.write_text(json.dumps(frozen, separators=(",", ":")) + "\n")
    print(f"wrote {workloads.EXPECTED_FILE}")


if __name__ == "__main__":
    main()
