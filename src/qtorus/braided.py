"""Braided and ribbon data of the graded fiber category.

Objects are lattice-graded with one-dimensional pieces, so all structure
constants are Q/Z phases. A braiding refinement is a bilinear form
beta = M / N, one integer matrix over one denominator, with quadratic form
q(lam) = beta(lam, lam); the phase is bilinear, so the hexagon and
balancing identities hold by construction. Everything observable (twist,
double braiding) is independent of the choice of refinement.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DimensionMismatch, ShapeMismatch, _Frozen
from .forms import Frac1, QuadraticForm, _bilinear_sum, _reduced, evaluate
from .lattice import IntMatrix


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
