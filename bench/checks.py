"""Output checks for benchmark jobs, run outside the timed region.

A job passes when the CLI exits 0, its stdout is one JSON report that
validates against ``qtorus.schemas.REPORT_SCHEMAS[task]``, and the report's
fields that do not depend on generator choice equal the values recorded for
that job in ``expected.json``. Omega, pi2 characters and component vectors
depend on which generators the Smith normal form picks, so they are not
compared.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def invariant_fields(task: str, report: dict) -> dict:
    """The part of a report that any correct generator choice reproduces."""
    if task == "selfcheck":
        return {
            "cases": report["cases"],
            "agreements": report["agreements"],
            "ok": report["ok"],
        }
    fields: dict = {
        "genus": report["surface"]["genus"],
        "rank": report["surface"]["rank"],
        "section_space": report["section_space"],
    }
    if task == "surface":
        fields["cohomology"] = report["cohomology"]
        fields["euler"] = report["euler"]
        fields["independent_check"] = report["independent_check"]
        return fields
    blocks = report["blocks"]
    fields["blocks"] = len(blocks)
    fields["radical_rank"] = sorted({b["radical_rank"] for b in blocks})
    fields["block_dim"] = sorted({b["block_dim"] for b in blocks})
    if task == "bunt":
        fields["bun_t"] = report["bun_t"]
    return fields


def _one_omega(report):
    """The report with each block's omega that equals the first block's emptied.

    Every block repeats the same omega matrix, which makes up most of a large
    report. Blocks share one item schema, so a copy equal to an omega that is
    validated passes too; validating it once keeps the checks cheap.
    """
    blocks = report.get("blocks") if isinstance(report, dict) else None
    if not (isinstance(blocks, list) and blocks and isinstance(blocks[0], dict)):
        return report
    first = blocks[0].get("omega")
    slim = [blocks[0]] + [
        dict(b, omega=[]) if isinstance(b, dict) and first is not None and b.get("omega") == first else b
        for b in blocks[1:]
    ]
    return dict(report, blocks=slim)


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


class Checker:
    """Validates one job's output; ``check`` returns None or the reason it failed."""

    def __init__(self, schemas: dict, expected: dict):
        import jsonschema

        self._validators = {
            task: jsonschema.validators.validator_for(schema)(schema)
            for task, schema in schemas.items()
        }
        self.expected = expected

    def parse(self, task: str, code, stdout: str) -> dict:
        """The validated report; raises ValueError with the reason it is not one."""
        if code != 0:
            raise ValueError(f"exit code {code}")
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as err:
            raise ValueError(f"stdout is not JSON: {err}") from None
        error = next(self._validators[task].iter_errors(_one_omega(report)), None)
        if error is not None:
            raise ValueError(f"schema: {error.message} at {list(error.absolute_path)}")
        return report

    def check(self, job, code, stdout: str) -> str | None:
        try:
            report = self.parse(job.task, code, stdout)
        except ValueError as err:
            return str(err)
        if job.task == "selfcheck" and report["ok"] is not True:
            return "selfcheck reports ok: false"
        record = self.expected.get(job.key)
        if record is None:
            return f"no recorded expectation for {job.key}"
        if record["digest"] != job.digest():
            return f"spec of {job.key} differs from the one recorded"
        got = invariant_fields(job.task, report)
        if got != record["fields"]:
            return f"{job.key}: invariant fields {got} != recorded {record['fields']}"
        return None
