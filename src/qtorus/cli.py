"""Batch front door.

Reads a JSON job spec, runs one of the five tasks (local, surface, global,
bunt, selfcheck) and writes a report to stdout. Output is deterministic:
stable key order, canonical "num/den" fraction strings, a single trailing
newline. Exit codes: 0 success, 2 spec validation failure (a machine
readable error object is printed), 3 internal invariant violation, which
includes any disagreement between the two pairing routes in selfcheck.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import product
from typing import Any, Sequence

from .braided import standard_refinement
from .errors import BadJobSpec, InvariantViolation, QtorusError
from .forms import (
    BilinearData,
    Frac1,
    evaluate,
    is_linear,
    polarize,
    quad_from_bilinear,
)
from .gerbe import LevelInput, block_report, bunt_report
from .lattice import IntMatrix
from .selfcheck import DEFAULT_SEED, run_selfcheck
from .surface import (
    LatticeLocalSystem,
    invariants_coinvariants_check,
    twisted_cohomology,
)

TASKS = ("local", "surface", "global", "bunt", "selfcheck")

# Fixed once for every report; genus one with constant coefficients pairs the
# two standard loops to +1 in this order.
ORIENTATION_SIGN = "+1: first loop of each handle cup second loop pairs positively"
REFINEMENT_NOTE = (
    "blocks carry omega and the pi2 character only; "
    "no per-component quadratic refinement is reported"
)


def _fail(message: str, path: str) -> BadJobSpec:
    return BadJobSpec(message, path)


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail("expected an integer", path)
    return value


def _as_vector(value: Any, length: int, path: str) -> tuple[int, ...]:
    if not isinstance(value, list) or len(value) != length:
        raise _fail(f"expected a list of {length} integers", path)
    return tuple(_as_int(x, f"{path}[{i}]") for i, x in enumerate(value))


def _as_matrix(value: Any, size: int | None, path: str) -> IntMatrix:
    """Square integer matrix from nested rows, or flat row-major when sized."""
    if isinstance(value, list) and value and all(isinstance(r, list) for r in value):
        n = len(value)
        if size is not None and n != size:
            raise _fail(f"expected a {size}x{size} matrix", path)
        rows = [_as_vector(r, n, f"{path}[{i}]") for i, r in enumerate(value)]
        return IntMatrix.from_rows([list(r) for r in rows])
    if isinstance(value, list) and size is not None:
        if len(value) != size * size:
            raise _fail(f"expected {size * size} row-major entries", path)
        return IntMatrix(size, size, [_as_int(x, f"{path}[{i}]") for i, x in enumerate(value)])
    raise _fail("expected a square integer matrix", path)


class JobSpec:
    """Validated job description; raw JSON in, typed fields out."""

    def __init__(self, raw: Any):
        if not isinstance(raw, dict):
            raise _fail("job spec must be a JSON object", "")
        known = {"task", "surface", "level", "components", "component_bound", "output_format"}
        for key in raw:
            if key not in known:
                raise _fail(f"unknown field {key!r}", key)
        task = raw.get("task")
        if task not in TASKS:
            raise _fail(f"task must be one of {', '.join(TASKS)}", "task")
        self.task: str = task
        fmt = raw.get("output_format", "json")
        if fmt not in ("json", "text"):
            raise _fail("output_format must be 'json' or 'text'", "output_format")
        self.output_format: str = fmt

        self.surface_raw = raw.get("surface")
        self.level_raw = raw.get("level")
        self.components_raw = raw.get("components")
        self.component_bound = 1
        if "component_bound" in raw:
            bound = _as_int(raw["component_bound"], "component_bound")
            if bound < 0:
                raise _fail("component_bound must be nonnegative", "component_bound")
            self.component_bound = bound

        need_surface = task in ("surface", "global", "bunt")
        need_level = task in ("local", "global", "bunt")
        if need_surface and self.surface_raw is None:
            raise _fail(f"task {task!r} requires a surface block", "surface")
        if need_level and self.level_raw is None:
            raise _fail(f"task {task!r} requires a level block", "level")

    def local_system(self) -> LatticeLocalSystem:
        s = self.surface_raw
        if not isinstance(s, dict):
            raise _fail("surface must be an object", "surface")
        genus = _as_int(s.get("genus"), "surface.genus")
        rank = _as_int(s.get("rank"), "surface.rank")
        if genus < 0:
            raise _fail("genus must be nonnegative", "surface.genus")
        if rank < 1:
            raise _fail("rank must be positive", "surface.rank")
        mon_raw = s.get("monodromy")
        try:
            if mon_raw is None:
                return LatticeLocalSystem.trivial(rank, genus)
            if not isinstance(mon_raw, list):
                raise _fail("monodromy must be a list of matrices", "surface.monodromy")
            mats = [
                _as_matrix(m, rank, f"surface.monodromy[{i}]")
                for i, m in enumerate(mon_raw)
            ]
            return LatticeLocalSystem(rank, genus, mats)
        except QtorusError as err:
            if not err.path:
                err.path = "surface.monodromy"
            raise

    def level(self, rank_hint: int | None = None) -> BilinearData:
        lv = self.level_raw
        if not isinstance(lv, dict):
            raise _fail("level must be an object", "level")
        c = _as_matrix(lv.get("c_matrix"), rank_hint, "level.c_matrix")
        try:
            zeta = Frac1.parse(lv.get("zeta"))
        except QtorusError as err:
            err.path = "level.zeta"
            raise
        return BilinearData(c, zeta)

    def components(self, rank: int) -> list[tuple[int, ...]] | None:
        if self.components_raw is None:
            return None
        if not isinstance(self.components_raw, list):
            raise _fail("components must be a list of integer vectors", "components")
        return [
            _as_vector(v, rank, f"components[{i}]")
            for i, v in enumerate(self.components_raw)
        ]


def _frac_matrix(rows: Sequence[Sequence[Frac1]]) -> list[list[str]]:
    return [[str(x) for x in row] for row in rows]


def _surface_json(rho: LatticeLocalSystem) -> dict:
    return {
        "genus": rho.genus,
        "rank": rho.rank,
        "monodromy": [m.row_lists() for m in rho.mon],
    }


def _level_json(level: BilinearData) -> dict:
    return {"c_matrix": level.c.row_lists(), "zeta": str(level.zeta)}


def _twist_bound(rank: int) -> int:
    if rank == 1:
        return 3
    if rank == 2:
        return 2
    return 1


def _run_local(spec: JobSpec) -> dict:
    rank_hint = None
    if spec.surface_raw is not None:
        if not isinstance(spec.surface_raw, dict):
            raise _fail("surface must be an object", "surface")
        rank_hint = _as_int(spec.surface_raw.get("rank"), "surface.rank")
    level = spec.level(rank_hint)
    quad = quad_from_bilinear(level)
    pairing = polarize(quad)
    braided = standard_refinement(quad)
    bound = _twist_bound(level.rank)
    table = []
    for vec in product(range(-bound, bound + 1), repeat=level.rank):
        table.append({"vector": list(vec), "twist": str(evaluate(quad, vec))})
    return {
        "task": "local",
        "level": _level_json(level),
        "rank": level.rank,
        "quadratic_form": {
            "diag": [str(x) for x in quad.diag],
            "polarization": _frac_matrix(
                [
                    [pairing.evaluate(_basis(level.rank, i), _basis(level.rank, j))
                     for j in range(level.rank)]
                    for i in range(level.rank)
                ]
            ),
        },
        "twist_table": {"bound": bound, "entries": table},
        "is_linear": is_linear(quad),
        "e_infinity": is_linear(quad),
        "pi2_layer": {"description": "(Q/Z)^rank", "rank": level.rank},
        "refinement": {
            "convention": "upper_triangular",
            "beta": _frac_matrix(braided.beta),
        },
    }


def _basis(rank: int, i: int) -> tuple[int, ...]:
    return tuple(1 if k == i else 0 for k in range(rank))


def _run_surface(spec: JobSpec) -> dict:
    rho = spec.local_system()
    h = twisted_cohomology(rho)
    euler = (h.h0.free_rank - h.h1.free_rank + h.h2.free_rank)
    return {
        "task": "surface",
        "surface": _surface_json(rho),
        "section_space": {
            "pi0": h.h2.to_json(),
            "pi1": h.h1.to_json(),
            "pi2": h.h0.to_json(),
        },
        "cohomology": {
            "h0": h.h0.to_json(),
            "h1": h.h1.to_json(),
            "h2": h.h2.to_json(),
        },
        "euler": {
            "expected": (2 - 2 * rho.genus) * rho.rank,
            "computed": euler,
        },
        "independent_check": invariants_coinvariants_check(rho, h),
    }


def _blocks_json(blocks) -> list[dict]:
    return [
        {
            "component": list(b.component),
            "omega": _frac_matrix(b.omega),
            "pi2_character": [str(x) for x in b.pi2_character],
            "radical_rank": b.radical_rank,
            "block_dim": b.block_dim,
        }
        for b in blocks
    ]


def _conventions_json() -> dict:
    return {"orientation_sign": ORIENTATION_SIGN, "refinement": REFINEMENT_NOTE}


def _run_global(spec: JobSpec) -> dict:
    rho = spec.local_system()
    level = LevelInput(spec.level(rho.rank), rho)
    report = block_report(
        level,
        components=spec.components(rho.rank),
        free_bound=spec.component_bound,
    )
    return {
        "task": "global",
        "surface": _surface_json(rho),
        "level": _level_json(level.bilinear),
        "section_space": {
            "pi0": report.section.pi0.to_json(),
            "pi1": report.section.pi1.to_json(),
            "pi2": report.section.pi2.to_json(),
        },
        "blocks": _blocks_json(report.blocks),
        "conventions": _conventions_json(),
    }


def _run_bunt(spec: JobSpec) -> dict:
    rho = spec.local_system()
    level = LevelInput(spec.level(rho.rank), rho)
    report = bunt_report(
        level,
        components=spec.components(rho.rank),
        free_bound=spec.component_bound,
    )
    return {
        "task": "bunt",
        "surface": _surface_json(rho),
        "level": _level_json(level.bilinear),
        "bun_t": {
            "pi0": report.pi0.to_json(),
            "component_label": report.component_label,
            "pi1": report.pi1.to_json(),
            "pi2": report.pi2.to_json(),
        },
        "section_space": {
            "pi0": report.pi0.to_json(),
            "pi1": report.pi1.to_json(),
            "pi2": report.pi2.to_json(),
        },
        "blocks": _blocks_json(report.blocks),
        "conventions": _conventions_json(),
    }


def _run_selfcheck(seed: int) -> dict:
    result = run_selfcheck(seed)
    return {
        "task": "selfcheck",
        "seed": result.seed,
        "cases": result.cases,
        "agreements": result.agreements,
        "mismatches": result.mismatches,
        "ok": result.ok,
    }


def _render_group(g: dict) -> str:
    parts = []
    if g["free_rank"]:
        parts.append(f"Z^{g['free_rank']}" if g["free_rank"] > 1 else "Z")
    parts.extend(f"Z/{t}" for t in g["torsion"])
    return " + ".join(parts) if parts else "0"


def _render_text(report: dict) -> str:
    lines = [f"task: {report['task']}"]
    if "surface" in report:
        s = report["surface"]
        lines.append(f"surface: genus {s['genus']}, rank {s['rank']}")
        lines.append(f"monodromy: {json.dumps(s['monodromy'])}")
    if "level" in report:
        lv = report["level"]
        lines.append(f"level: c = {json.dumps(lv['c_matrix'])}, zeta = {lv['zeta']}")
    if report["task"] == "local":
        lines.append(f"rank: {report['rank']}")
        lines.append(f"is linear: {'yes' if report['is_linear'] else 'no'}")
        lines.append(f"e-infinity: {'yes' if report['e_infinity'] else 'no'}")
        layer = report["pi2_layer"]
        lines.append(f"pi2 layer: (Q/Z)^{layer['rank']}")
        lines.append("polarization:")
        for row in report["quadratic_form"]["polarization"]:
            lines.append("  " + "  ".join(row))
        tt = report["twist_table"]
        lines.append(f"twist table (coordinates bounded by {tt['bound']}):")
        for entry in tt["entries"]:
            vec = ",".join(str(x) for x in entry["vector"])
            lines.append(f"  theta({vec}) = {entry['twist']}")
        lines.append("refinement beta (upper triangular):")
        for row in report["refinement"]["beta"]:
            lines.append("  " + "  ".join(row))
    if "section_space" in report:
        ss = report["section_space"]
        lines.append(
            "section space: pi0 = {}, pi1 = {}, pi2 = {}".format(
                _render_group(ss["pi0"]),
                _render_group(ss["pi1"]),
                _render_group(ss["pi2"]),
            )
        )
    if report["task"] == "surface":
        e = report["euler"]
        lines.append(f"euler: computed {e['computed']}, expected {e['expected']}")
        ok = "passed" if report["independent_check"] else "FAILED"
        lines.append(f"independent invariants/coinvariants check: {ok}")
    if "bun_t" in report:
        bt = report["bun_t"]
        lines.append(
            "bun_t: pi0 = {} (labels: {}), pi1 = {}, pi2 = {}".format(
                _render_group(bt["pi0"]),
                bt["component_label"],
                _render_group(bt["pi1"]),
                _render_group(bt["pi2"]),
            )
        )
    if "blocks" in report:
        lines.append(f"blocks: {len(report['blocks'])}")
        for b in report["blocks"]:
            comp = ",".join(str(x) for x in b["component"])
            lines.append(
                f"  component ({comp}): block_dim {b['block_dim']}, "
                f"radical_rank {b['radical_rank']}, "
                f"chi = [{', '.join(b['pi2_character'])}]"
            )
        if report["blocks"]:
            lines.append("omega (shared by all components):")
            for row in report["blocks"][0]["omega"]:
                lines.append("  " + ("  ".join(row) if row else "(trivial)"))
    if report["task"] == "selfcheck":
        lines.append(f"seed: {report['seed']}")
        lines.append(f"cases: {report['cases']}, agreements: {report['agreements']}")
        lines.append("ok" if report["ok"] else "FAILED")
    return "\n".join(lines) + "\n"


def _emit(report: dict, fmt: str) -> str:
    if fmt == "text":
        return _render_text(report)
    return json.dumps(report, indent=2) + "\n"


def run(spec: JobSpec, seed: int = DEFAULT_SEED) -> tuple[str, int]:
    """Execute a validated job; returns (output text, exit code)."""
    if spec.task == "local":
        return _emit(_run_local(spec), spec.output_format), 0
    if spec.task == "surface":
        return _emit(_run_surface(spec), spec.output_format), 0
    if spec.task == "global":
        return _emit(_run_global(spec), spec.output_format), 0
    if spec.task == "bunt":
        return _emit(_run_bunt(spec), spec.output_format), 0
    report = _run_selfcheck(seed)
    return _emit(report, spec.output_format), 0 if report["ok"] else 3


def _error_payload(code: str, message: str, path: str) -> str:
    return json.dumps({"code": code, "message": message, "path": path}, indent=2) + "\n"


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qtorus",
        description="Exact invariants of torus-valued section spaces over surfaces.",
    )
    parser.add_argument("task", choices=TASKS)
    parser.add_argument(
        "--input",
        help="path to a JSON job spec ('-' for stdin); optional for selfcheck",
    )
    parser.add_argument("--format", choices=("json", "text"), dest="fmt")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)

    try:
        if args.input is None:
            if args.task != "selfcheck":
                raise BadJobSpec("--input is required for this task", "")
            raw: Any = {"task": "selfcheck"}
        else:
            try:
                if args.input == "-":
                    raw = json.load(sys.stdin)
                else:
                    with open(args.input, "r", encoding="utf-8") as fh:
                        raw = json.load(fh)
            except OSError as err:
                raise BadJobSpec(f"cannot read input: {err}", "")
            except (ValueError, RecursionError) as err:
                # ValueError: bad syntax or bytes, or an integer past the digit
                # limit; RecursionError: nesting deeper than the decoder allows
                raise BadJobSpec(f"input is not valid JSON: {err}", "")
        spec = JobSpec(raw)
        if spec.task != args.task:
            raise BadJobSpec(
                f"spec task {spec.task!r} does not match command {args.task!r}", "task"
            )
        if args.fmt:
            spec.output_format = args.fmt
        output, code = run(spec, seed=args.seed)
    except QtorusError as err:
        sys.stdout.write(_error_payload(err.code, err.message, err.path))
        return 2
    except InvariantViolation as err:
        sys.stdout.write(_error_payload("invariant_violation", str(err), ""))
        return 3
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
