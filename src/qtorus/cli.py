"""Batch front door.

Reads a JSON job spec, runs one of the five tasks (local, surface, global,
bunt, selfcheck) and writes a report to stdout. Output is deterministic:
stable key order, canonical "num/den" fraction strings, a single trailing
newline. Exit codes: 0 success, 2 spec validation failure, a bad command
line or a job that needs more memory than there is (a machine readable error
object is printed), 3 internal invariant violation, which includes any
disagreement between the two pairing routes in selfcheck. Every object of a
spec is checked, whatever the task; the spec and its ``surface`` and
``level`` objects refuse unknown keys. Report integers are written at any
length.

A block report's omega and pi2 characters arrive as integer residues over
its denominator N; this module alone writes them as fractions, one string
per residue that occurs. JSON reports and error objects are written by
``_dumps``, whose output is ``json.dumps(value, indent=2)`` byte for byte
plus a newline. A global report holds its ``BlockReport``, which ``_dumps``
writes as v1's block list, with omega encoded once, and the text renderer
reads. The monodromy and ``c_matrix`` echoes stay the ``IntMatrix`` values
the spec was parsed into, and each is written with one ``%`` format of a
template cached per shape and depth; its entries must all be ``int``.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from itertools import chain, product
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any, NoReturn, Sequence

from .braided import standard_refinement
from .errors import BadJobSpec, InvariantViolation, QtorusError, ResourceLimit
from .forms import (
    BilinearData,
    Frac1,
    _echo,
    evaluate,
    polarize,
    quad_from_bilinear,
)
from .gerbe import MAX_DENSE_CELLS, BlockReport, LevelInput, block_report
from .lattice import IntMatrix
from .selfcheck import DEFAULT_SEED, run_selfcheck
from .surface import (
    CohomologyTriple,
    LatticeLocalSystem,
    cohomology_presentations,
    invariants_coinvariants_check,
)

TASKS = ("local", "surface", "global", "bunt", "selfcheck")

# Fixed once for every report; genus one with constant coefficients pairs the
# two standard loops to +1 in this order.
ORIENTATION_SIGN = "+1: first loop of each handle cup second loop pairs positively"
REFINEMENT_NOTE = (
    "blocks carry omega and the pi2 character only; "
    "no per-component quadratic refinement is reported"
)


_STR, _INT = {str}, {int}  # type sets of an all-str and an all-int list; bool is neither
_JOINED = (_STR, _INT)  # item type sets of a list written with one join


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadJobSpec("expected an integer", path)
    return value


def _as_vector(value: Any, length: int | None, path: str) -> tuple[int, ...]:
    """A list of ``length`` integers (any number if None) as a tuple; first bad path on failure."""
    if not isinstance(value, list) or length not in (None, len(value)):
        size = "" if length is None else f"{length} "
        raise BadJobSpec(f"expected a list of {size}integers", path)
    if set(map(type, value)) - _INT:
        for i, x in enumerate(value):
            _as_int(x, f"{path}[{i}]")
    return tuple(value)


def _as_matrix(value: Any, size: int | None, path: str) -> IntMatrix:
    """Square integer matrix from a nonempty list of rows; ``size`` fixes n.

    The rows are flattened and type-checked in one pass; only a failing
    matrix is checked row by row, for the first bad path.
    """
    if not (isinstance(value, list) and value and all(isinstance(r, list) for r in value)):
        raise BadJobSpec("expected a square integer matrix", path)
    n = len(value)
    if size is not None and n != size:
        raise BadJobSpec(f"expected a {size}x{size} matrix", path)
    flat = [x for row in value for x in row]
    if set(map(type, flat)) - _INT or any(len(row) != n for row in value):
        for i, row in enumerate(value):  # the first bad row raises
            _as_vector(row, n, f"{path}[{i}]")
    return IntMatrix(n, n, flat)


def _known_keys(raw: dict, known: tuple[str, ...], prefix: str = "") -> None:
    """Refuse the first key of ``raw`` outside ``known``; its path is ``prefix`` plus the key."""
    for key in raw:
        if key not in known:
            # a short key is its own path; a long one is cut like the message
            shown = _echo(key)
            path = prefix + (key if shown == repr(key) else shown)
            raise BadJobSpec(f"unknown field {shown}", path)


class JobSpec:
    """The job spec of a ``command`` task; raw JSON in, typed fields out.

    Every object is parsed, whatever the task: the surface into ``rho``, the
    level into ``bilinear`` of rho's rank, and the components into vectors of
    that rank, or of any length with no surface. An absent object is None.
    """

    def __init__(self, raw: Any, command: str):
        if not isinstance(raw, dict):
            raise BadJobSpec("job spec must be a JSON object", "")
        _known_keys(
            raw, ("task", "surface", "level", "components", "component_bound", "output_format")
        )
        task = raw.get("task")
        if task not in TASKS:
            raise BadJobSpec(f"task must be one of {', '.join(TASKS)}", "task")
        if task != command:
            raise BadJobSpec(f"spec task {task!r} does not match command {command!r}", "task")
        self.task: str = task
        fmt = raw.get("output_format", "json")
        if fmt not in ("json", "text"):
            raise BadJobSpec("output_format must be 'json' or 'text'", "output_format")
        self.output_format: str = fmt

        self.component_bound = 1
        if "component_bound" in raw:
            bound = _as_int(raw["component_bound"], "component_bound")
            if bound < 0:
                raise BadJobSpec("component_bound must be nonnegative", "component_bound")
            self.component_bound = bound

        surface, level, vectors = (raw.get(key) for key in ("surface", "level", "components"))
        if task in ("surface", "global", "bunt") and surface is None:
            raise BadJobSpec(f"task {task!r} requires a surface block", "surface")
        if task in ("local", "global", "bunt") and level is None:
            raise BadJobSpec(f"task {task!r} requires a level block", "level")
        self.rho = None if surface is None else self.local_system(surface)
        rank = None if self.rho is None else self.rho.rank
        self.bilinear = None if level is None else self.level(level, rank)
        self.component_vectors = None if vectors is None else self.components(vectors, rank)

    def local_system(self, s: Any) -> LatticeLocalSystem:
        if not isinstance(s, dict):
            raise BadJobSpec("surface must be an object", "surface")
        _known_keys(s, ("genus", "rank", "monodromy"), "surface.")
        genus = _as_int(s.get("genus"), "surface.genus")
        rank = _as_int(s.get("rank"), "surface.rank")
        if rank < 1:
            raise BadJobSpec("rank must be positive", "surface.rank")
        if rank * rank > MAX_DENSE_CELLS:  # each monodromy matrix, and I, is rank x rank
            message = f"more than {MAX_DENSE_CELLS} cells in a {rank} x {rank} matrix"
            raise ResourceLimit(message, "surface.rank")
        if not 0 <= genus <= sys.maxsize // 2:  # 2g monodromy matrices must fit a list
            raise BadJobSpec(f"genus must be between 0 and {sys.maxsize // 2}", "surface.genus")
        mon_raw = s.get("monodromy")
        try:
            if mon_raw is None:
                return LatticeLocalSystem.trivial(rank, genus)
            if not isinstance(mon_raw, list):
                raise BadJobSpec("monodromy must be a list of matrices", "surface.monodromy")
            mats = [_as_matrix(m, rank, f"surface.monodromy[{i}]") for i, m in enumerate(mon_raw)]
            return LatticeLocalSystem(rank, genus, mats)
        except QtorusError as err:
            if not err.path:
                err.path = "surface.monodromy"
            raise

    def level(self, lv: Any, rank: int | None) -> BilinearData:
        if not isinstance(lv, dict):
            raise BadJobSpec("level must be an object", "level")
        _known_keys(lv, ("c_matrix", "zeta"), "level.")
        c = _as_matrix(lv.get("c_matrix"), rank, "level.c_matrix")
        try:
            zeta = Frac1.parse(lv.get("zeta"))
        except QtorusError as err:
            err.path = "level.zeta"
            raise
        return BilinearData(c, zeta)

    def components(self, vs: Any, rank: int | None) -> list[tuple[int, ...]]:
        if not isinstance(vs, list):
            raise BadJobSpec("components must be a list of integer vectors", "components")
        return [_as_vector(v, rank, f"components[{i}]") for i, v in enumerate(vs)]


def _frac_matrix(m: IntMatrix, n: int) -> list[list[str]]:
    """The values x / n of an integer matrix, as "num/den" strings row by row."""
    return [[str(Frac1(x, n)) for x in row] for row in m.row_lists()]


def _surface_json(rho: LatticeLocalSystem) -> dict:
    return {
        "genus": rho.genus,
        "rank": rho.rank,
        "monodromy": rho.mon,
    }


def _level_json(level: BilinearData) -> dict:
    return {"c_matrix": level.c, "zeta": str(level.zeta)}


def _section_json(h: CohomologyTriple) -> dict:
    """The section space's homotopy groups: pi_n is H^(2-n)."""
    return {"pi0": h.h2.to_json(), "pi1": h.h1.to_json(), "pi2": h.h0.to_json()}


# most rows a local report's twist table may hold
MAX_TWIST_ROWS = 2**20


def _twist_bound(rank: int) -> int:
    if rank == 1:
        return 3
    if rank == 2:
        return 2
    return 1


def _run_local(spec: JobSpec) -> dict:
    level = spec.bilinear
    bound = _twist_bound(level.rank)
    if (2 * bound + 1) ** level.rank > MAX_TWIST_ROWS:
        message = f"more than {MAX_TWIST_ROWS} twist table rows at rank {level.rank}"
        raise ResourceLimit(message, "level.c_matrix")
    quad = quad_from_bilinear(level)
    pairing = polarize(quad)
    braided = standard_refinement(quad)
    linear = pairing.is_zero()  # is_linear(quad), on the polarization already built
    u = quad.numerators
    table = []
    for vec in product(range(-bound, bound + 1), repeat=level.rank):
        table.append({"vector": list(vec), "twist": str(evaluate(quad, vec))})
    return {
        "task": "local",
        "level": _level_json(level),
        "rank": level.rank,
        "quadratic_form": {
            "diag": [str(Frac1(u.entry(i, i), quad.denominator)) for i in range(level.rank)],
            "polarization": _frac_matrix(pairing.numerators, pairing.denominator),
        },
        "twist_table": {"bound": bound, "entries": table},
        "is_linear": linear,
        "e_infinity": linear,
        "pi2_layer": {"description": "(Q/Z)^rank", "rank": level.rank},
        "refinement": {
            "convention": "upper_triangular",
            "beta": _frac_matrix(braided.numerators, braided.denominator),
        },
    }


def _run_surface(spec: JobSpec) -> dict:
    # a failed check exits 3, like every other internal disagreement
    rho = spec.rho
    h = cohomology_presentations(rho).triple
    euler = h.h0.free_rank - h.h1.free_rank + h.h2.free_rank
    expected = (2 - 2 * rho.genus) * rho.rank
    if euler != expected:
        raise InvariantViolation(f"Euler characteristic {euler} != {expected}")
    if not invariants_coinvariants_check(rho, h):
        raise InvariantViolation("H^0 or H^2 disagrees with the invariants and coinvariants")
    return {
        "task": "surface",
        "surface": _surface_json(rho),
        "section_space": _section_json(h),
        "cohomology": {
            "h0": h.h0.to_json(),
            "h1": h.h1.to_json(),
            "h2": h.h2.to_json(),
        },
        "euler": {"expected": expected, "computed": euler},
        "independent_check": True,
    }


def _fractions(report: BlockReport) -> dict[int, str]:
    """"num/den" for 0 and each residue in omega or a character: one Frac1 per residue."""
    used = {0, *(x for row in report.omega for x in row.values())}
    used.update(chain.from_iterable(b.pi2_character for b in report.blocks))
    return {x: str(Frac1(x, report.denominator)) for x in used}


def _omega_cells(report: BlockReport, text: dict[int, str]) -> list[list[str]]:
    """omega's sparse rows as v1's dense rows of ``text`` strings, here alone."""
    cells = [[text[0]] * len(report.omega) for _ in report.omega]
    for row, sparse in zip(cells, report.omega):
        for j, x in sparse.items():
            row[j] = text[x]
    return cells


def _conventions_json() -> dict:
    return {"orientation_sign": ORIENTATION_SIGN, "refinement": REFINEMENT_NOTE}


def _run_global(spec: JobSpec) -> dict:
    """The ``global`` report; ``bunt`` is the same report with a ``bun_t`` label.

    The moduli of T-bundles on the curve has the section space's homotopy
    groups, with pi0 labelled by the first Chern class.
    """
    rho = spec.rho
    level = LevelInput(spec.bilinear, rho)
    report = block_report(
        level,
        components=spec.component_vectors,
        free_bound=spec.component_bound,
    )
    section = _section_json(report.presentations.triple)
    out = {
        "task": spec.task,
        "surface": _surface_json(rho),
        "level": _level_json(level.bilinear),
    }
    if spec.task == "bunt":
        out["bun_t"] = {
            "pi0": section["pi0"],
            "component_label": "first_chern_class",
            "pi1": section["pi1"],
            "pi2": section["pi2"],
        }
    out["section_space"] = section
    out["blocks"] = report
    out["conventions"] = _conventions_json()
    return out


def _run_selfcheck(seed: int) -> dict:
    return {"task": "selfcheck", **run_selfcheck(seed).to_json()}


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
        lines.append(f"monodromy: {json.dumps([m.row_lists() for m in s['monodromy']])}")
    if "level" in report:
        lv = report["level"]
        lines.append(f"level: c = {json.dumps(lv['c_matrix'].row_lists())}, zeta = {lv['zeta']}")
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
        pi = [_render_group(report["section_space"][k]) for k in ("pi0", "pi1", "pi2")]
        lines.append("section space: pi0 = {}, pi1 = {}, pi2 = {}".format(*pi))
    if report["task"] == "surface":
        e = report["euler"]
        lines.append(f"euler: computed {e['computed']}, expected {e['expected']}")
        lines.append("independent invariants/coinvariants check: passed")
    if "bun_t" in report:
        bt = report["bun_t"]
        pi = [_render_group(bt[k]) for k in ("pi0", "pi1", "pi2")]
        label = f"pi0 = {pi[0]} (labels: {bt['component_label']}), pi1 = {pi[1]}, pi2 = {pi[2]}"
        lines.append("bun_t: " + label)
    if "blocks" in report:
        rep, text = report["blocks"], _fractions(report["blocks"])
        lines.append(f"blocks: {len(rep.blocks)}")
        shared = f"block_dim {rep.block_dim}, radical_rank {rep.radical_rank}"
        for b in rep.blocks:
            comp, chi = ",".join(map(str, b.component)), map(text.__getitem__, b.pi2_character)
            lines.append(f"  component ({comp}): {shared}, chi = [{', '.join(chi)}]")
        if rep.blocks:
            lines.append("omega (shared by all components):")
            omega = _omega_cells(rep, text)
            lines.extend(["  " + "  ".join(row) for row in omega] or ["  (trivial)"])
    if report["task"] == "selfcheck":
        lines.append(f"seed: {report['seed']}")
        lines.append(f"cases: {report['cases']}, agreements: {report['agreements']}")
        lines.extend(f"mismatch: {json.dumps(m)}" for m in report["mismatches"])
        lines.append("ok" if report["ok"] else "FAILED")
    return "\n".join(lines) + "\n"


def _encode(value: Any, pad: str, out: list[str]) -> None:
    """Append ``value`` as indent-2 JSON to ``out``; ``pad`` is a newline and its indent.

    Values dispatch on their exact type, so a report holds plain ``str``,
    ``int``, ``dict``, ``list``/``tuple``, ``None``, bools, ``IntMatrix``
    values and a ``BlockReport``, which :func:`_encode_blocks` writes as v1's
    list of blocks; anything else, a subclass included, is a ``TypeError``.
    An ``IntMatrix`` is written as its list of rows with one ``%`` format of
    :func:`_matrix_template`; an entry that is not exactly ``int`` is a
    ``TypeError``. A list whose items are all ``str``, or all ``int`` (never
    ``bool``), is written with one join. A container's items go on lines
    indented two more spaces than ``pad``.
    """
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out += (sep, _encode_str(key), ": ")
            _encode(item, inner, out)
            sep = "," + inner
        out += (pad, "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        kinds = set(map(type, value))
        if kinds in _JOINED:
            items = map(_encode_str if kinds == _STR else int.__repr__, value)
            out += ("[", inner, ("," + inner).join(items), pad, "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _encode(item, inner, out)
            sep = "," + inner
        out += (pad, "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is IntMatrix:
        if set(map(type, value.entries)) - _INT:  # "%d" would print 1.5 as 1, True as 1
            raise TypeError("matrix entries must be int")
        out.append(_matrix_template(value.rows, value.cols, pad) % value.entries)
    elif kind is BlockReport:
        _encode_blocks(value, pad, out)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


@lru_cache(maxsize=64)
def _matrix_template(rows: int, cols: int, pad: str) -> str:
    """A rows x cols matrix's indent-2 JSON text after ``pad``, ``%d`` in every cell.

    The layout is ``json.dumps``' of the list of rows: ``[]`` for no rows,
    and ``[]`` for each row of no columns.
    """
    if not rows:
        return "[]"
    inner, cell = pad + "  ", pad + "    "
    row = f"[{cell}{(',' + cell).join(['%d'] * cols)}{inner}]" if cols else "[]"
    return f"[{inner}{(',' + inner).join([row] * rows)}{pad}]"


def _encode_blocks(report: BlockReport, pad: str, out: list[str]) -> None:
    """Append ``report``'s blocks as v1's list of block dicts after ``pad``.

    Each residue's fraction, omega's dense text, the keys, the radical rank
    and the block dimension are encoded once: a block appends the joins of
    its component and its character between the same three pieces.
    """
    if not report.blocks:
        out.append("[]")
        return
    p1 = pad + "  "
    p2, p3, p4 = p1 + "  ", p1 + "    ", p1 + "      "
    text = {x: _encode_str(s) for x, s in _fractions(report).items()}
    rows = [f"[{p4}{(',' + p4).join(row)}{p3}]" for row in _omega_cells(report, text)]
    omega = f"[{p3}{(',' + p3).join(rows)}{p2}]" if rows else "[]"
    chi_pad = p3 if report.blocks[0].pi2_character else ""  # chi has H^0's rank, maybe 0
    head = f'{p1}{{{p2}"component": [{p3}'
    mid = f'{p2}],{p2}"omega": {omega},{p2}"pi2_character": [{chi_pad}'
    tail = f'{chi_pad and p2}],{p2}"radical_rank": {report.radical_rank},{p2}"block_dim": '
    tail += f"{report.block_dim}{p1}}}"
    sep, comma, later = "[" + head, "," + p3, "," + head
    for b in report.blocks:
        chi = map(text.__getitem__, b.pi2_character)
        out += (sep, comma.join(map(int.__repr__, b.component)), mid, comma.join(chi), tail)
        sep = later
    out += (pad, "]")


def _dumps(value: Any) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, plus a trailing newline.

    Dict keys must be strings. A ``BlockReport`` is written as the list of
    block dicts v1 prints, into the same chunk list, with omega encoded once.
    An ``IntMatrix``, whose entries must all be ``int``, is written as its
    list of rows from one template per shape and depth.
    """
    out: list[str] = []
    _encode(value, "\n", out)
    out.append("\n")
    return "".join(out)


def _emit(report: dict, fmt: str) -> str:
    # a report integer may pass the interpreter's digit limit for str(int) and
    # "%d", which json.load keeps for the input; Python before 3.10.7 has none
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _render_text(report) if fmt == "text" else _dumps(report)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def run(spec: JobSpec, seed: int = DEFAULT_SEED) -> tuple[str, int]:
    """Execute a validated job; returns (output text, exit code)."""
    if spec.task == "local":
        return _emit(_run_local(spec), spec.output_format), 0
    if spec.task == "surface":
        return _emit(_run_surface(spec), spec.output_format), 0
    if spec.task in ("global", "bunt"):
        return _emit(_run_global(spec), spec.output_format), 0
    report = _run_selfcheck(seed)
    return _emit(report, spec.output_format), 0 if report["ok"] else 3


def _error_payload(code: str, message: str, path: str) -> str:
    return _dumps({"code": code, "message": message, "path": path})


_PARSER = argparse.ArgumentParser(
    prog="qtorus",
    description="Exact invariants of torus-valued section spaces over surfaces.",
)
_PARSER.add_argument("task", choices=TASKS)
_PARSER.add_argument(
    "--input",
    help="path to a JSON job spec ('-' for stdin); optional for selfcheck",
)
_PARSER.add_argument("--format", choices=("json", "text"), dest="fmt")
_PARSER.add_argument("--seed", type=int, default=DEFAULT_SEED)


def _command_line_error(message: str) -> NoReturn:
    raise BadJobSpec(message, "")


# a bad command line exits 2 with an error object, like a bad spec; -h still exits 0
_PARSER.error = _command_line_error


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
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
        spec = JobSpec(raw, args.task)
        if args.fmt:
            spec.output_format = args.fmt
        output, code = run(spec, seed=args.seed)
    except QtorusError as err:
        sys.stdout.write(_error_payload(err.code, err.message, err.path))
        return 2
    except MemoryError:
        # the job asked for more memory than the process can have, such as a
        # genus whose 2g monodromy matrices fit a list index but not memory
        message = "the job needs more memory than is available"
        sys.stdout.write(_error_payload(ResourceLimit.code, message, ""))
        return 2
    except InvariantViolation as err:
        sys.stdout.write(_error_payload("invariant_violation", str(err), ""))
        return 3
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
