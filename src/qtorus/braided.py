"""Braided and ribbon data of the graded fiber category.

Objects are lattice-graded with one-dimensional pieces, so all structure
constants are Q/Z phases. A braiding refinement is a bilinear form
beta = M / N, one integer matrix over one denominator, and its quadratic
form is q(lam) = beta(lam, lam), so the twist and the double braiding are
read off beta alone. The choice of refinement is not canonical, and
everything observable (twist, double braiding) is refinement independent.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import DimensionMismatch, ShapeMismatch, _Frozen
from .forms import Frac1, QuadraticForm, _bilinear_sum, _reduced, evaluate
from .lattice import IntMatrix


class GradedObject(_Frozen):
    """Finite-support multiplicity function on the grading lattice.

    ``support`` is a read-only view of the multiplicities the constructor
    accepted.
    """

    __slots__ = ("rank", "support")

    def __init__(self, rank: int, support: Mapping[tuple[int, ...], int]):
        clean = {}
        for vec, mult in support.items():
            v = tuple(vec)
            if any(isinstance(x, bool) or not isinstance(x, int) for x in (*v, mult)):
                raise ShapeMismatch(f"support vector {v} and multiplicity {mult!r} must be integers")
            if len(v) != rank:
                raise DimensionMismatch(f"support vector {v} has wrong length for rank {rank}")
            if mult < 1:
                raise ShapeMismatch(f"multiplicity of {v} must be >= 1, got {mult}")
            clean[v] = mult
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "support", MappingProxyType(clean))


def fuse(v: GradedObject, w: GradedObject) -> GradedObject:
    """Tensor product on supports: convolution of multiplicity functions."""
    if v.rank != w.rank:
        raise DimensionMismatch("cannot fuse objects over different lattices")
    out: dict[tuple[int, ...], int] = {}
    for a, ma in v.support.items():
        for b, mb in w.support.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0) + ma * mb
    return GradedObject(v.rank, out)


class BraidedData(_Frozen):
    """A braiding refinement beta = M / N and the quadratic form it refines.

    ``numerators`` is M, reduced into [0, N) over the least ``denominator``
    N; ``quad`` is QuadraticForm(M, N), q(lam) = beta(lam, lam). So
    beta[i][i] = q(e_i) and beta[i][j] + beta[j][i] = b(e_i, e_j) hold by
    construction. Any two refinements of the same form differ by an
    antisymmetric matrix of phases.
    """

    __slots__ = ("rank", "quad", "denominator", "numerators")

    def __init__(self, numerators: IntMatrix, denominator: int):
        n, m = _reduced(numerators, denominator)
        object.__setattr__(self, "rank", m.rows)
        object.__setattr__(self, "quad", QuadraticForm(m, n))
        object.__setattr__(self, "denominator", n)
        object.__setattr__(self, "numerators", m)


def standard_refinement(q: QuadraticForm) -> BraidedData:
    """Upper-triangular refinement: all of b(e_i, e_j) on the i < j side, beta = U / N."""
    return BraidedData(q.numerators, q.denominator)


def perturb_refinement(b: BraidedData, eps: IntMatrix, denominator: int) -> BraidedData:
    """Shift a refinement by the phases eps / denominator: antisymmetric, zero diagonal mod 1."""
    r, n = b.rank, b.denominator
    if (eps.rows, eps.cols) != (r, r):
        raise DimensionMismatch("perturbation must be a rank-sized square matrix")
    d, eps = _reduced(eps, denominator)
    if any(eps.entry(i, i) for i in range(r)):
        raise ShapeMismatch("perturbation diagonal must vanish")
    if any(x % d for x in (eps + eps.transpose()).entries):
        raise ShapeMismatch("perturbation must be antisymmetric")
    pairs = zip(b.numerators.entries, eps.entries)
    return BraidedData(IntMatrix(r, r, [x * d + y * n for x, y in pairs]), n * d)


def braiding_phase(b: BraidedData, lam: Sequence[int], mu: Sequence[int]) -> Frac1:
    """Phase of the braiding on a pair of graded lines, bilinear in beta.

    lam^T M mu summed over the integer numerators, reduced mod 1 once.
    """
    r = b.rank
    if len(lam) != r or len(mu) != r:
        raise DimensionMismatch(f"vectors must have length {r}")
    return Frac1(_bilinear_sum(b.numerators.entries, lam, mu), b.denominator)


def double_braiding(b: BraidedData, lam: Sequence[int], mu: Sequence[int]) -> Frac1:
    """Square of the braiding; equals the polarization, whatever the refinement."""
    return braiding_phase(b, lam, mu) + braiding_phase(b, mu, lam)


def twist(b: BraidedData, lam: Sequence[int]) -> Frac1:
    """Ribbon twist on the graded line at lam: the value of the quadratic form."""
    return evaluate(b.quad, lam)


def balancing_check(b: BraidedData, lam1: Sequence[int], lam2: Sequence[int]) -> bool:
    """Twist of a product against the twists of the factors and the double braiding."""
    lhs = twist(b, tuple(x + y for x, y in zip(lam1, lam2))) - twist(b, lam1) - twist(b, lam2)
    return lhs == double_braiding(b, lam1, lam2)


def hexagon_check(
    b: BraidedData, lam1: Sequence[int], lam2: Sequence[int], lam3: Sequence[int]
) -> bool:
    """Additivity of :func:`braiding_phase` in each slot on a triple."""
    s12 = tuple(x + y for x, y in zip(lam1, lam2))
    s23 = tuple(x + y for x, y in zip(lam2, lam3))
    c13 = braiding_phase(b, lam1, lam3)
    if braiding_phase(b, s12, lam3) != c13 + braiding_phase(b, lam2, lam3):
        return False
    return braiding_phase(b, lam1, s23) == braiding_phase(b, lam1, lam2) + c13
