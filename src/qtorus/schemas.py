"""Published JSON Schemas for CLI output.

Plain dict constants so downstream consumers can validate reports without
pulling in a validator through this package. Every JSON document the CLI
emits on stdout matches exactly one of these.
"""

FRACTION = {"type": "string", "pattern": r"^(0|[1-9][0-9]*)/[1-9][0-9]*$"}

GROUP = {
    "type": "object",
    "required": ["free_rank", "torsion"],
    "additionalProperties": False,
    "properties": {
        "free_rank": {"type": "integer", "minimum": 0},
        "torsion": {"type": "array", "items": {"type": "integer", "minimum": 2}},
    },
}

INT_MATRIX = {
    "type": "array",
    "items": {"type": "array", "items": {"type": "integer"}},
}

FRACTION_MATRIX = {
    "type": "array",
    "items": {"type": "array", "items": FRACTION},
}

INT_VECTOR = {"type": "array", "items": {"type": "integer"}}

SURFACE = {
    "type": "object",
    "required": ["genus", "rank", "monodromy"],
    "additionalProperties": False,
    "properties": {
        "genus": {"type": "integer", "minimum": 0},
        "rank": {"type": "integer", "minimum": 1},
        "monodromy": {"type": "array", "items": INT_MATRIX},
    },
}

LEVEL = {
    "type": "object",
    "required": ["c_matrix", "zeta"],
    "additionalProperties": False,
    "properties": {"c_matrix": INT_MATRIX, "zeta": FRACTION},
}

SECTION_SPACE = {
    "type": "object",
    "required": ["pi0", "pi1", "pi2"],
    "additionalProperties": False,
    "properties": {"pi0": GROUP, "pi1": GROUP, "pi2": GROUP},
}

BLOCK = {
    "type": "object",
    "required": ["component", "omega", "pi2_character", "radical_rank", "block_dim"],
    "additionalProperties": False,
    "properties": {
        "component": INT_VECTOR,
        "omega": FRACTION_MATRIX,
        "pi2_character": {"type": "array", "items": FRACTION},
        "radical_rank": {"type": "integer", "minimum": 0},
        "block_dim": {"type": "integer", "minimum": 1},
    },
}

CONVENTIONS = {
    "type": "object",
    "required": ["orientation_sign", "refinement"],
    "additionalProperties": False,
    "properties": {
        "orientation_sign": {"type": "string"},
        "refinement": {"type": "string"},
    },
}

LOCAL_REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "task",
        "level",
        "rank",
        "quadratic_form",
        "twist_table",
        "is_linear",
        "e_infinity",
        "pi2_layer",
        "refinement",
    ],
    "additionalProperties": False,
    "properties": {
        "task": {"const": "local"},
        "level": LEVEL,
        "rank": {"type": "integer", "minimum": 1},
        "quadratic_form": {
            "type": "object",
            "required": ["diag", "polarization"],
            "additionalProperties": False,
            "properties": {
                "diag": {"type": "array", "items": FRACTION},
                "polarization": FRACTION_MATRIX,
            },
        },
        "twist_table": {
            "type": "object",
            "required": ["bound", "entries"],
            "additionalProperties": False,
            "properties": {
                "bound": {"type": "integer", "minimum": 0},
                "entries": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["vector", "twist"],
                        "additionalProperties": False,
                        "properties": {"vector": INT_VECTOR, "twist": FRACTION},
                    },
                },
            },
        },
        "is_linear": {"type": "boolean"},
        "e_infinity": {"type": "boolean"},
        "pi2_layer": {
            "type": "object",
            "required": ["description", "rank"],
            "additionalProperties": False,
            "properties": {
                "description": {"type": "string"},
                "rank": {"type": "integer", "minimum": 1},
            },
        },
        "refinement": {
            "type": "object",
            "required": ["convention", "beta"],
            "additionalProperties": False,
            "properties": {
                "convention": {"const": "upper_triangular"},
                "beta": FRACTION_MATRIX,
            },
        },
    },
}

SURFACE_REPORT_SCHEMA = {
    "type": "object",
    "required": ["task", "surface", "section_space", "cohomology", "euler", "independent_check"],
    "additionalProperties": False,
    "properties": {
        "task": {"const": "surface"},
        "surface": SURFACE,
        "section_space": SECTION_SPACE,
        "cohomology": {
            "type": "object",
            "required": ["h0", "h1", "h2"],
            "additionalProperties": False,
            "properties": {"h0": GROUP, "h1": GROUP, "h2": GROUP},
        },
        "euler": {
            "type": "object",
            "required": ["expected", "computed"],
            "additionalProperties": False,
            "properties": {
                "expected": {"type": "integer"},
                "computed": {"type": "integer"},
            },
        },
        "independent_check": {"type": "boolean"},
    },
}

GLOBAL_REPORT_SCHEMA = {
    "type": "object",
    "required": ["task", "surface", "level", "section_space", "blocks", "conventions"],
    "additionalProperties": False,
    "properties": {
        "task": {"const": "global"},
        "surface": SURFACE,
        "level": LEVEL,
        "section_space": SECTION_SPACE,
        "blocks": {"type": "array", "items": BLOCK},
        "conventions": CONVENTIONS,
    },
}

# bunt is the global report with pi0 labelled by the first Chern class
BUNT_REPORT_SCHEMA = {
    **GLOBAL_REPORT_SCHEMA,
    "required": [*GLOBAL_REPORT_SCHEMA["required"], "bun_t"],
    "properties": {
        **GLOBAL_REPORT_SCHEMA["properties"],
        "task": {"const": "bunt"},
        "bun_t": {
            "type": "object",
            "required": ["pi0", "component_label", "pi1", "pi2"],
            "additionalProperties": False,
            "properties": {
                "pi0": GROUP,
                "component_label": {"const": "first_chern_class"},
                "pi1": GROUP,
                "pi2": GROUP,
            },
        },
    },
}

INDEX_PAIR = {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 2, "maxItems": 2}

SELFCHECK_MISMATCH = {
    "type": "object",
    "required": [
        "genus", "rank", "family", "basis", "pair", "closed", "simplicial", "monodromy", "u", "v",
    ],
    "additionalProperties": False,
    "properties": {
        "genus": {"type": "integer", "minimum": 1},
        "rank": {"type": "integer", "minimum": 1},
        "family": {"enum": ["trivial", "signs", "shear"]},
        "basis": INDEX_PAIR,
        "pair": INDEX_PAIR,
        "closed": {"type": "integer"},
        "simplicial": {"type": "integer"},
        "monodromy": {"type": "array", "items": INT_MATRIX},
        "u": INT_VECTOR,
        "v": INT_VECTOR,
    },
}

SELFCHECK_REPORT_SCHEMA = {
    "type": "object",
    "required": ["task", "seed", "cases", "agreements", "mismatches", "ok"],
    "additionalProperties": False,
    "properties": {
        "task": {"const": "selfcheck"},
        "seed": {"type": "integer"},
        "cases": {"type": "integer", "minimum": 0},
        "agreements": {"type": "integer", "minimum": 0},
        "mismatches": {"type": "array", "items": SELFCHECK_MISMATCH},
        "ok": {"type": "boolean"},
    },
}

ERROR_SCHEMA = {
    "type": "object",
    "required": ["code", "message", "path"],
    "additionalProperties": False,
    "properties": {
        "code": {"type": "string"},
        "message": {"type": "string"},
        "path": {"type": "string"},
    },
}

REPORT_SCHEMAS = {
    "local": LOCAL_REPORT_SCHEMA,
    "surface": SURFACE_REPORT_SCHEMA,
    "global": GLOBAL_REPORT_SCHEMA,
    "bunt": BUNT_REPORT_SCHEMA,
    "selfcheck": SELFCHECK_REPORT_SCHEMA,
}
