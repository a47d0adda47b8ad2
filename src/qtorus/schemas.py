"""Published JSON Schemas for CLI output.

Plain dict constants so downstream consumers can validate reports without
pulling in a validator through this package. Every JSON document the CLI
emits on stdout matches exactly one of these.

One rule holds for every object in them: it is closed (no property beyond
those listed) and every listed property is required, in the order listed.
:func:`_closed` is the only place that states it.
"""


def _closed(**properties) -> dict:
    """A closed object schema that requires each of ``properties``, in order."""
    return {
        "type": "object",
        "required": list(properties),
        "additionalProperties": False,
        "properties": properties,
    }


FRACTION = {"type": "string", "pattern": r"^(0|[1-9][0-9]*)/[1-9][0-9]*$"}

GROUP = _closed(
    free_rank={"type": "integer", "minimum": 0},
    torsion={"type": "array", "items": {"type": "integer", "minimum": 2}},
)

INT_MATRIX = {"type": "array", "items": {"type": "array", "items": {"type": "integer"}}}

FRACTION_MATRIX = {"type": "array", "items": {"type": "array", "items": FRACTION}}

INT_VECTOR = {"type": "array", "items": {"type": "integer"}}

SURFACE = _closed(
    genus={"type": "integer", "minimum": 0},
    rank={"type": "integer", "minimum": 1},
    monodromy={"type": "array", "items": INT_MATRIX},
)

LEVEL = _closed(c_matrix=INT_MATRIX, zeta=FRACTION)

SECTION_SPACE = _closed(pi0=GROUP, pi1=GROUP, pi2=GROUP)

BLOCK = _closed(
    component=INT_VECTOR,
    omega=FRACTION_MATRIX,
    pi2_character={"type": "array", "items": FRACTION},
    radical_rank={"type": "integer", "minimum": 0},
    block_dim={"type": "integer", "minimum": 1},
)

CONVENTIONS = _closed(orientation_sign={"type": "string"}, refinement={"type": "string"})

LOCAL_REPORT_SCHEMA = _closed(
    task={"const": "local"},
    level=LEVEL,
    rank={"type": "integer", "minimum": 1},
    quadratic_form=_closed(
        diag={"type": "array", "items": FRACTION},
        polarization=FRACTION_MATRIX,
    ),
    twist_table=_closed(
        bound={"type": "integer", "minimum": 0},
        entries={"type": "array", "items": _closed(vector=INT_VECTOR, twist=FRACTION)},
    ),
    is_linear={"type": "boolean"},
    e_infinity={"type": "boolean"},
    pi2_layer=_closed(
        description={"type": "string"},
        rank={"type": "integer", "minimum": 1},
    ),
    refinement=_closed(convention={"const": "upper_triangular"}, beta=FRACTION_MATRIX),
)

SURFACE_REPORT_SCHEMA = _closed(
    task={"const": "surface"},
    surface=SURFACE,
    section_space=SECTION_SPACE,
    cohomology=_closed(h0=GROUP, h1=GROUP, h2=GROUP),
    euler=_closed(expected={"type": "integer"}, computed={"type": "integer"}),
    independent_check={"type": "boolean"},
)

_GLOBAL = {
    "task": {"const": "global"},
    "surface": SURFACE,
    "level": LEVEL,
    "section_space": SECTION_SPACE,
    "blocks": {"type": "array", "items": BLOCK},
    "conventions": CONVENTIONS,
}

GLOBAL_REPORT_SCHEMA = _closed(**_GLOBAL)

# bunt is the global report with pi0 labelled by the first Chern class
BUNT_REPORT_SCHEMA = _closed(
    **_GLOBAL | {"task": {"const": "bunt"}},
    bun_t=_closed(
        pi0=GROUP,
        component_label={"const": "first_chern_class"},
        pi1=GROUP,
        pi2=GROUP,
    ),
)

INDEX_PAIR = {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 2, "maxItems": 2}

SELFCHECK_MISMATCH = _closed(
    genus={"type": "integer", "minimum": 1},
    rank={"type": "integer", "minimum": 1},
    family={"enum": ["trivial", "signs", "shear"]},
    basis=INDEX_PAIR,
    pair=INDEX_PAIR,
    closed={"type": "integer"},
    simplicial={"type": "integer"},
    monodromy={"type": "array", "items": INT_MATRIX},
    u=INT_VECTOR,
    v=INT_VECTOR,
)

SELFCHECK_REPORT_SCHEMA = _closed(
    task={"const": "selfcheck"},
    seed={"type": "integer"},
    cases={"type": "integer", "minimum": 0},
    agreements={"type": "integer", "minimum": 0},
    mismatches={"type": "array", "items": SELFCHECK_MISMATCH},
    ok={"type": "boolean"},
)

ERROR_SCHEMA = _closed(code={"type": "string"}, message={"type": "string"}, path={"type": "string"})

REPORT_SCHEMAS = {
    "local": LOCAL_REPORT_SCHEMA,
    "surface": SURFACE_REPORT_SCHEMA,
    "global": GLOBAL_REPORT_SCHEMA,
    "bunt": BUNT_REPORT_SCHEMA,
    "selfcheck": SELFCHECK_REPORT_SCHEMA,
}
