"""Seeded instance generation and bundled reference fixtures.

All randomness flows through the package's own xoshiro256** streams
(:mod:`pontgap.prng`), so a ``GenConfig`` pins an instance exactly —
same seed, same bytes, on any host.  Generated operators are resampled
until their spectra are unambiguous at the package's tolerance scales:
pairwise eigenvalue gaps and distances from the real axis stay above
``Tolerance.GEN_MIN_GAP``.  Each draw solves with the space's Gram, and the
solve's cutoff test reads the Gram's singular values, the moduli of the
eigenvalues of the one ``eigh`` the space keeps (see ``IndefiniteSpace``):
no draw factors the Gram again, and neither does a real-spectrum
operator, which reads that ``eigh``'s eigenbasis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ResampleBudgetError, SingularMatrixError, ValidationError
from .indefinite import IndefiniteSpace, validate_space
from .linalg import DEFAULT_TOL, Tolerance
from .perturbation import OperatorPair, make_pair
from .prng import Xoshiro256StarStar
from .spectral import Interval, JSelfadjointOperator, validate_operator

__all__ = [
    "GenConfig",
    "Fixture",
    "random_space",
    "random_operator",
    "random_pair",
    "random_real_spectrum_operator",
    "builtin_fixtures",
    "RESAMPLE_BUDGET",
]

RESAMPLE_BUDGET = 100

_TAG_SPACE = 1
_TAG_OPERATOR = 2
_TAG_PAIR = 3
_TAG_REAL_SPECTRUM = 4


@dataclass(frozen=True)
class GenConfig:
    """Shape, signature and seed of a generated instance."""

    dim: int
    kappa_minus: int
    pert_rank: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError(f"dim must be positive, got {self.dim}")
        if not 0 <= self.kappa_minus <= self.dim:
            raise ValidationError(
                f"kappa_minus must lie in [0, dim], got {self.kappa_minus}"
            )
        if not 0 <= self.pert_rank <= self.dim:
            raise ValidationError(
                f"pert_rank must lie in [0, dim], got {self.pert_rank}"
            )
        # the streams reduce seeds modulo 2**64; outside that range two
        # seeds would name one instance
        if not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass(frozen=True, eq=False)
class Fixture:
    """A bundled pair with hand-checked counts for its interval.  Fixtures
    compare and hash by identity."""

    name: str
    pair: OperatorPair
    interval: Interval
    expected: dict


def _complex_matrix(rng: Xoshiro256StarStar, rows: int, cols: int):
    """Row-major matrix of the stream's next ``rows * cols`` complex normals."""
    return rng.complex_normals(rows * cols).reshape(rows, cols)


def _haar_unitary(rng: Xoshiro256StarStar, d: int) -> np.ndarray:
    g = _complex_matrix(rng, d, d)
    q, r = np.linalg.qr(g)
    diag = np.diag(r)
    phases = diag / np.abs(diag)
    return q * phases.conj()


def _margins_ok(values: np.ndarray) -> bool:
    """Raw eigenvalues are unambiguous: clean realness calls and open gaps."""
    band = Tolerance.GEN_REALNESS_FACTOR * Tolerance.REALNESS_SCALE
    # Python complex values in one conversion: their abs() is libm's hypot,
    # as a numpy scalar's is, at a fraction of a numpy scalar's cost; np.abs
    # of the complex array may round |v| an ulp apart from hypot
    for v in values.tolist():
        im = abs(v.imag)
        if im > band * max(1.0, abs(v)) and im < Tolerance.GEN_MIN_GAP:
            return False
    # |a - b| = |b - a| exactly, since negation is exact, so the full table
    # holds each gap of the upper triangle twice; its diagonal of zeros is masked
    gaps = np.abs(values[:, None] - values[None, :])
    gaps.flat[:: len(values) + 1] = np.inf
    return not (gaps < Tolerance.GEN_MIN_GAP).any()


def _check_space(space: IndefiniteSpace, cfg: GenConfig) -> None:
    """The space has the dimension and negative index ``cfg`` names."""
    if (space.dim, space.kappa_minus) != (cfg.dim, cfg.kappa_minus):
        raise ValidationError(
            f"space has dimension {space.dim} and kappa {space.kappa_minus}, "
            f"the config asks for {cfg.dim} and {cfg.kappa_minus}"
        )


def random_space(cfg: GenConfig, tol: Tolerance = DEFAULT_TOL) -> IndefiniteSpace:
    """Gram matrix with the requested inertia.

    The canonical ``diag(+1, ..., +1, -1, ..., -1)`` conjugated by a
    seeded Haar unitary.
    """
    kp = cfg.dim - cfg.kappa_minus
    j0 = np.diag(np.array([1.0] * kp + [-1.0] * cfg.kappa_minus, dtype=complex))
    rng = Xoshiro256StarStar.substream(cfg.seed, _TAG_SPACE)
    u = _haar_unitary(rng, cfg.dim)
    return validate_space(u @ j0 @ u.conj().T, tol)


def random_operator(
    space: IndefiniteSpace, cfg: GenConfig, tol: Tolerance = DEFAULT_TOL
) -> JSelfadjointOperator:
    """J-selfadjoint operator ``J^-1 H`` for a random Hermitian H.  Every
    draw solves with ``J``; the cutoff test of a solve reads ``tol`` and the
    singular values of ``J`` that the space keeps."""
    _check_space(space, cfg)
    rng = Xoshiro256StarStar.substream(cfg.seed, _TAG_OPERATOR)
    for _ in range(RESAMPLE_BUDGET):
        g = _complex_matrix(rng, space.dim, space.dim)
        h = 0.5 * (g + g.conj().T)
        a = linalg._solve(space.gram, h, tol, space._singular_values)
        op = validate_operator(space, a, tol)
        # the margin check's eigenvalues are the ones spectrum(op) clusters
        if _margins_ok(op.raw_eigenvalues()):
            return op
    raise ResampleBudgetError(
        f"no operator with eigenvalue margins {tol.GEN_MIN_GAP} "
        f"in {RESAMPLE_BUDGET} draws"
    )


def random_pair(
    first: IndefiniteSpace | JSelfadjointOperator,
    cfg: GenConfig,
    tol: Tolerance = DEFAULT_TOL,
) -> OperatorPair:
    """A1 plus a rank-``pert_rank`` J-selfadjoint perturbation.

    ``first`` is the space to draw A1 in, or an A1 that
    :func:`random_operator` already drew for ``cfg``: A1 does not depend
    on ``pert_rank``, so pairs of several ranks can share one A1 and its
    memoized spectrum.

    The perturbation is ``J^-1 sum_i c_i v_i v_i^*`` with signs
    ``c_i`` and vectors ``v_i`` from the pair stream; draws are
    rejected until the difference has exact rank ``pert_rank`` and A2
    passes the same margin checks as A1.
    """
    if isinstance(first, JSelfadjointOperator):
        _check_space(first.space, cfg)
        op1 = first
    else:
        op1 = random_operator(first, cfg, tol)
    space = op1.space
    n = cfg.pert_rank
    if n == 0:
        return make_pair(op1, op1, tol)
    rng = Xoshiro256StarStar.substream(cfg.seed, _TAG_PAIR)
    for _ in range(RESAMPLE_BUDGET):
        v = _complex_matrix(rng, space.dim, n)
        signs = np.array([rng.sign() for _ in range(n)], dtype=float)
        p = (v * signs) @ v.conj().T
        a2 = op1.matrix + linalg._solve(
            space.gram, 0.5 * (p + p.conj().T), tol, space._singular_values
        )
        pair = make_pair(op1, validate_operator(space, a2, tol), tol)
        if pair.n == n and _margins_ok(pair.op2.raw_eigenvalues()):
            return pair
    raise ResampleBudgetError(
        f"no rank-{n} perturbation with margins {tol.GEN_MIN_GAP} "
        f"in {RESAMPLE_BUDGET} draws"
    )


def random_real_spectrum_operator(
    space: IndefiniteSpace,
    cfg: GenConfig,
    bounds: tuple[float, float],
    tol: Tolerance = DEFAULT_TOL,
) -> JSelfadjointOperator:
    """Operator with prescribed-real, well-separated spectrum.

    Eigenvalues are drawn uniformly in ``bounds`` and attached to a
    J-orthogonal eigenbasis built from a Cayley transform, so the result
    is J-selfadjoint with every eigenvalue real — the input situation of
    the interior-spectrum decomposition.
    """
    _check_space(space, cfg)
    rng = Xoshiro256StarStar.substream(cfg.seed, _TAG_REAL_SPECTRUM)
    lo, hi = bounds
    if not lo < hi:
        raise ValidationError(f"bounds must satisfy lo < hi, got ({lo}, {hi})")
    d = space.dim
    w, q = space._eigen
    eye = np.eye(d, dtype=complex)
    for _ in range(RESAMPLE_BUDGET):
        values = np.array(sorted(lo + (hi - lo) * rng.uniform() for _ in range(d)))
        if d > 1 and np.min(np.diff(values)) < tol.GEN_MIN_GAP:
            continue
        s = 0.5 * _complex_matrix(rng, d, d)
        skew = 0.5 * (s - s.conj().T)
        k = (1.0 / w)[:, None] * skew
        try:
            v0 = linalg.solve(eye - k, eye + k, tol)
            v = q @ v0
            a = v @ np.diag(values.astype(complex)) @ linalg.solve(v, eye, tol)
        except SingularMatrixError:
            continue
        return validate_operator(space, a, tol)
    raise ResampleBudgetError(
        f"no real-spectrum operator with margins {tol.GEN_MIN_GAP} "
        f"in {RESAMPLE_BUDGET} draws"
    )


def builtin_fixtures(tol: Tolerance = DEFAULT_TOL) -> tuple[Fixture, ...]:
    """The two bundled reference pairs with hand-checked counts.

    ``example1``: rank-one pair on C^2 with one negative square; the
    counts over (1/4, 2) differ by 2 with bound 3.  ``example3``: the
    equality case — counts over (0, inf) differ by exactly
    ``n + 2 kappa = 3``.
    """
    space1 = validate_space(np.diag([1.0, -1.0]).astype(complex), tol)
    a1_first = validate_operator(space1, np.array([[1, 1j], [1j, -1]], dtype=complex), tol)
    a2_first = validate_operator(space1, np.diag([0.5, 1.0]).astype(complex), tol)
    example1 = Fixture(
        name="example1",
        pair=make_pair(a1_first, a2_first, tol),
        interval=Interval(0.25, 2.0),
        expected={"n": 1, "kappa": 1, "eig1": 0, "eig2": 2, "sig1": 0, "sig2": 0, "slack": 1},
    )

    space3 = validate_space(np.diag([-1.0, 1.0, 1.0]).astype(complex), tol)
    a1_third = validate_operator(
        space3,
        np.array([[0, 100j, 0], [100j, 0, 0], [0, 0, 0]], dtype=complex),
        tol,
    )
    a2_third = validate_operator(
        space3,
        np.array([[0, 100j, 0], [100j, 400, 20], [0, 20, 1]], dtype=complex),
        tol,
    )
    example3 = Fixture(
        name="example3",
        pair=make_pair(a1_third, a2_third, tol),
        interval=Interval(0.0, np.inf),
        expected={"n": 1, "kappa": 1, "eig1": 0, "eig2": 3, "sig1": 0, "sig2": 1, "slack": 0},
    )
    return (example1, example3)
