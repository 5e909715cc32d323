"""Record golden.json: the seed-independent outputs of every exhaustive job.

    python3 perfbench/record_golden.py

Run only on code whose outputs are known good; the benchmark compares every
later run against the file this writes.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import jobs  # noqa: E402


def main() -> int:
    golden = {}
    for workload, make in jobs.WORKLOADS.items():
        for job in make(0):
            if job.golden_fields:
                result = job.run()
                problems = job.check(result, job.oracle() if job.oracle else None)
                if problems:
                    raise SystemExit(f"{job.label}: {problems}")
                golden[job.label] = {key: result[key] for key in job.golden_fields}
                print(f"{workload}: {job.label} {golden[job.label]}", flush=True)
    jobs.GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                                encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
