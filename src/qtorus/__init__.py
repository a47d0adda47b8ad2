"""Exact invariants of torus-valued section spaces over closed oriented surfaces.

Everything is integer or Q/Z arithmetic; no floats anywhere. The package
splits into a local layer (quadratic forms on a lattice, braided refinements),
a topological layer (twisted surface cohomology, whose groups are the
section space's homotopy groups, checked along a second route), and a global
layer (the commutator pairing of the induced gerbe, pi2 characters and block
dimension counts), plus a batch CLI.
"""

from .braided import (
    BraidedData,
    braiding_phase,
    double_braiding,
    perturb_refinement,
    standard_refinement,
    twist,
)
from .cochain import (
    Cocycle,
    TriangulatedSurface,
    checked_classes,
    cup_tensors,
    triangulate,
)
from .errors import InvariantViolation, QtorusError
from .forms import (
    BilinearData,
    Frac1,
    QuadraticForm,
    SymmetricForm,
    evaluate,
    invariance_check,
    is_linear,
    polarize,
    quad_from_bilinear,
)
from .gerbe import (
    BlockReport,
    GerbeBlock,
    LevelInput,
    block_report,
    enumerate_components,
)
from .lattice import (
    FgAbGroup,
    IntMatrix,
    SnfResult,
    det,
    inverse_unimodular,
    smith_normal_form,
)
from .schemas import ERROR_SCHEMA, REPORT_SCHEMAS
from .selfcheck import SelfCheckResult, run_selfcheck
from .surface import (
    CochainComplexSurface,
    CohomologyTriple,
    LatticeLocalSystem,
    build_complex,
    cohomology_presentations,
    invariants_coinvariants_check,
)

__version__ = "0.1.0"

__all__ = [
    "BilinearData",
    "BlockReport",
    "BraidedData",
    "CochainComplexSurface",
    "Cocycle",
    "CohomologyTriple",
    "ERROR_SCHEMA",
    "FgAbGroup",
    "Frac1",
    "GerbeBlock",
    "IntMatrix",
    "InvariantViolation",
    "LatticeLocalSystem",
    "LevelInput",
    "QtorusError",
    "QuadraticForm",
    "REPORT_SCHEMAS",
    "SelfCheckResult",
    "SnfResult",
    "SymmetricForm",
    "TriangulatedSurface",
    "block_report",
    "braiding_phase",
    "build_complex",
    "checked_classes",
    "cohomology_presentations",
    "cup_tensors",
    "det",
    "double_braiding",
    "enumerate_components",
    "evaluate",
    "invariance_check",
    "invariants_coinvariants_check",
    "inverse_unimodular",
    "is_linear",
    "perturb_refinement",
    "polarize",
    "quad_from_bilinear",
    "run_selfcheck",
    "smith_normal_form",
    "standard_refinement",
    "triangulate",
    "twist",
]
