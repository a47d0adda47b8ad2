"""Braided and ribbon data of the graded fiber category.

Objects are lattice-graded with one-dimensional pieces, so all structure
constants are Q/Z phases. A braiding refinement is a matrix beta whose
symmetrization is pinned to the polarization of the quadratic form; the
choice of refinement is not canonical, and everything observable (twist,
double braiding) must be refinement independent.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import DimensionMismatch, ShapeMismatch, _Frozen
from .forms import ZERO, Frac1, QuadraticForm, _bilinear_sum, _over_common_denominator, evaluate
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
    """A quadratic form together with a braiding refinement beta.

    Constraints: beta[i][i] = Q(e_i), and beta[i][j] + beta[j][i] = b(e_i, e_j)
    for i != j. Any two refinements of the same form differ by an
    antisymmetric matrix of phases.

    ``numerators`` is the integer matrix M, derived at construction, with
    beta = M / ``denominator`` entry by entry.
    """

    __slots__ = ("quad", "beta", "denominator", "numerators")

    def __init__(self, quad: QuadraticForm, beta: tuple[tuple[Frac1, ...], ...]):
        r = quad.rank
        if len(beta) != r or any(len(row) != r for row in beta):
            raise DimensionMismatch("beta must be a square matrix matching the form's rank")
        for i in range(r):
            if beta[i][i] != quad.diag[i]:
                raise ShapeMismatch(f"beta[{i}][{i}] must equal the form's value on e_{i}")
            for j in range(i + 1, r):
                if beta[i][j] + beta[j][i] != quad.b_basis(i, j):
                    raise ShapeMismatch(
                        f"beta[{i}][{j}] + beta[{j}][{i}] must symmetrize to the polarization"
                    )
        n, nums = _over_common_denominator([x for row in beta for x in row])
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "denominator", n)
        object.__setattr__(self, "numerators", IntMatrix(r, r, nums))

    @property
    def rank(self) -> int:
        return self.quad.rank


def standard_refinement(q: QuadraticForm) -> BraidedData:
    """Upper-triangular refinement: all of b(e_i, e_j) on the i < j side."""
    r = q.rank
    beta = tuple(
        tuple(
            q.diag[i] if i == j else (q.b_basis(i, j) if i < j else ZERO)
            for j in range(r)
        )
        for i in range(r)
    )
    return BraidedData(q, beta)


def perturb_refinement(b: BraidedData, eps: Sequence[Sequence[Frac1]]) -> BraidedData:
    """Shift a refinement by an antisymmetric phase matrix (zero diagonal)."""
    r = b.rank
    if len(eps) != r or any(len(row) != r for row in eps):
        raise DimensionMismatch("perturbation must be a rank-sized square matrix")
    for i in range(r):
        if eps[i][i]:
            raise ShapeMismatch("perturbation diagonal must vanish")
        for j in range(i + 1, r):
            if eps[i][j] + eps[j][i] != ZERO:
                raise ShapeMismatch("perturbation must be antisymmetric")
    beta = tuple(
        tuple(b.beta[i][j] + eps[i][j] for j in range(r)) for i in range(r)
    )
    return BraidedData(b.quad, beta)


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
