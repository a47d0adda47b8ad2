"""Record the generator-independent output fields of every job variant.

Run from the repository root after changing the generator in
``workloads.py``; it rewrites ``bench/expected.json``:

    python3 bench/record.py [workload ...]

Each variant runs once through the CLI. A variant whose exit code is not 0 or
whose report fails its schema stops the recording: every recorded job must be
one on which the program succeeds.
"""

from __future__ import annotations

import json
import sys
import time

from checks import EXPECTED_PATH, Checker, invariant_fields
from run import OUT, git_commit, load_program, run_job, write_spec
from workloads import WORKLOADS, all_jobs


def main(argv: list[str]) -> int:
    cli, schemas = load_program()
    checker = Checker(schemas, {})
    try:
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            recorded = json.load(fh)["jobs"]
    except FileNotFoundError:
        recorded = {}
    spec_dir = OUT / "specs" / "record"
    spec_dir.mkdir(parents=True, exist_ok=True)
    for workload in argv or WORKLOADS:
        recorded = {k: v for k, v in recorded.items() if not k.startswith(workload + "/")}
        start = time.perf_counter()
        for job in all_jobs(workload):
            r, stdout = run_job(cli, job, write_spec(spec_dir, job))
            if r.failure:
                raise SystemExit(f"{job.key}: {r.failure}")
            report = checker.parse(job.task, r.code, stdout)
            recorded[job.key] = {"digest": job.digest(), "fields": invariant_fields(job.task, report)}
        print(f"{workload}: {len(all_jobs(workload))} jobs in {time.perf_counter() - start:.1f} s")
    doc = {"commit": git_commit(), "jobs": dict(sorted(recorded.items()))}
    EXPECTED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
