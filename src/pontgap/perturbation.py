"""Finite-rank pairs of J-selfadjoint operators.

A pair (A1, A2) on the same space is compared through the rank n of
A1 - A2 and the agreement subspace ker(A1 - A2), on which both act
identically.  The rank of the resolvent difference is the same n at
every admissible point, which the tests exercise as an invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, PreconditionError
from .indefinite import Subspace
from .linalg import DEFAULT_TOL, Tolerance
from .spectral import JSelfadjointOperator, spectrum

__all__ = [
    "OperatorPair",
    "make_pair",
    "resolvent_difference_rank",
    "sample_admissible_points",
]


@dataclass(frozen=True, eq=False)
class OperatorPair:
    """Two J-selfadjoint operators with their difference data.

    ``agreement`` is the kernel of A1 - A2 and ``n`` its rank, read off
    the same SVD as ``dim - agreement.dim``.  Pairs compare and hash by
    identity.
    """

    op1: JSelfadjointOperator
    op2: JSelfadjointOperator
    agreement: Subspace

    @property
    def space(self):
        return self.op1.space

    @property
    def dim(self) -> int:
        return self.op1.dim

    @property
    def n(self) -> int:
        return self.dim - self.agreement.dim


def make_pair(
    op1: JSelfadjointOperator, op2: JSelfadjointOperator, tol: Tolerance = DEFAULT_TOL
) -> OperatorPair:
    """Bundle two operators on the identical space into a pair."""
    return _made_pairs([op1], [op2], tol)[0]


def _made_pairs(ops1, ops2, tol: Tolerance) -> list[OperatorPair]:
    """:func:`make_pair` of each ``(op1, op2)`` of ``ops1`` and ``ops2``:
    the kernels of the differences of one order from one stacked SVD."""
    for op1, op2 in zip(ops1, ops2):
        if not op1.space.same_space(op2.space):
            raise DimensionMismatchError(
                "operators must live on the identical space (same Gram matrix)"
            )
    kernels = linalg._stacked(
        lambda m: linalg.null_space(m, tol),
        [op1.matrix - op2.matrix for op1, op2 in zip(ops1, ops2)],
    )
    return [OperatorPair(op1=op1, op2=op2, agreement=Subspace(basis))
            for op1, op2, basis in zip(ops1, ops2, kernels)]


def _check_admissible(pair: OperatorPair, point: complex):
    for op in (pair.op1, pair.op2):
        thresh = Tolerance.CLUSTERING_SCALE * op.scale
        # the nearest entry; min keeps the first on ties
        entry = min(
            spectrum(op).entries, key=lambda e: abs(e.value - point), default=None
        )
        if entry is not None and abs(entry.value - point) <= thresh:
            raise PreconditionError(
                f"point {point} lies within {thresh:.3e} of eigenvalue "
                f"{entry.value}; the resolvents do not both exist there"
            )


def resolvent_difference_rank(
    pair: OperatorPair, point, tol: Tolerance = DEFAULT_TOL
) -> int:
    """Rank of (A1 - z)^-1 - (A2 - z)^-1 at an admissible z."""
    z = complex(point)
    _check_admissible(pair, z)
    eye = np.eye(pair.dim, dtype=complex)
    r1 = linalg.solve(pair.op1.matrix - z * eye, eye, tol)
    r2 = linalg.solve(pair.op2.matrix - z * eye, eye, tol)
    return linalg.rank_tol(r1 - r2, tol)


def sample_admissible_points(pair: OperatorPair, count: int = 10) -> list[complex]:
    """Deterministic sample of resolvent points for invariance checks.

    Points sit on the circle of radius ``2 * max(||A1||, ||A2||) + 1``
    (spectral norms), which encloses both spectra strictly; any point
    that still lands within clustering distance of an eigenvalue is
    skipped.
    """
    radius = 2.0 * max(
        float(np.linalg.norm(pair.op1.matrix, 2)),
        float(np.linalg.norm(pair.op2.matrix, 2)),
    ) + 1.0
    points = []
    for k in range(count):
        z = radius * complex(
            math.cos(2.0 * math.pi * (k + 0.5) / count),
            math.sin(2.0 * math.pi * (k + 0.5) / count),
        )
        try:
            _check_admissible(pair, z)
        except PreconditionError:
            continue
        points.append(z)
    return points
