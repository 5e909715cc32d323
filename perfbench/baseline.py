"""Collect the ROADMAP baseline table from traced runs into baseline.json.

    for w in exact_pairing exhaustive_bruteforce sampled_keyed lemma_checks; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 1 --trace 1
    done
    python3 perfbench/baseline.py 0

Each row holds the traced time, the ROADMAP figure and their ratio; rows more
than 2x off either way are flagged.  Traced times include tracing overhead,
so each row also gives its workload's overhead.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TRACES = HERE.parent / ".perfbench_out"
WORKLOADS = ("exact_pairing", "exhaustive_bruteforce", "sampled_keyed", "lemma_checks")


def main(argv) -> int:
    seed = int(argv[0]) if argv else 0
    rows, environment = [], None
    for workload in WORKLOADS:
        trace = json.loads((TRACES / f"trace-{workload}-seed{seed}.json").read_text())
        environment = environment or trace["environment"]
        overhead = trace["metrics"]["trace.overhead_s"]["value"]
        for row in trace["baseline"]:
            rows.append(dict(row, workload=workload, workload_trace_overhead_s=overhead))
    record = {
        "seed": seed,
        "environment": environment,
        "rows": rows,
        "flagged": [row["row"] for row in rows if row["off_by_2x"]],
    }
    (HERE / "baseline.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
