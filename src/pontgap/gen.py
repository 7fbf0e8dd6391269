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

:func:`random_space`, :func:`random_operator` and :func:`random_pair`
also take a sequence of configs, with a sequence of spaces or A1s, and
draw them together; one config is the one-element case, so there is one
draw path.  Each stream takes its own xoshiro walk, one scrambler and
Box-Muller pass covers the words of all (``prng.complex_normal_blocks``),
and one stacked call per order covers each of: the Haar ``qr`` (with the
matmuls that conjugate the signature by it), the Gram ``eigh``, the solves
with the Gram, the margin check's ``eigvals``, whose values each operator
memoizes as its raw eigenvalues, and the ``null_space`` SVD of A1 - A2.
numpy's LAPACK gufuncs and ``matmul`` run matrix by matrix, so each
instance has the bits of its one-config draw
(``test_batched_draws_equal_one_config_draws``).  Every check stays per
instance, and a rejected draw is drawn again from its own stream's
continuation, with the other rejected draws of the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ResampleBudgetError, SingularMatrixError, ValidationError
from .indefinite import IndefiniteSpace, _space_of, validate_space
from .linalg import DEFAULT_TOL, Tolerance
from .perturbation import OperatorPair, _made_pairs, make_pair
from .prng import Xoshiro256StarStar, complex_normal_blocks
from .spectral import Interval, JSelfadjointOperator, _take_eigenvalues, validate_operator

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


def _complex_matrices(streams, shapes) -> list[np.ndarray]:
    """Each stream's row-major matrix of its next ``rows * cols`` complex
    normals, for its ``(rows, cols)`` of ``shapes``, from one pass over all
    their words (see :func:`complex_normal_blocks`)."""
    blocks = complex_normal_blocks(streams, [rows * cols for rows, cols in shapes])
    return [block.reshape(shape) for block, shape in zip(blocks, shapes)]


def _haar_gram(g: np.ndarray, j0: np.ndarray) -> np.ndarray:
    """``U j0 U^*`` for the Haar unitary U that the QR of ``g`` gives, with
    the phases of R's diagonal moved into Q; on a matrix or a stack."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    u = q * (diag / np.abs(diag)).conj()[..., None, :]
    return u @ j0 @ u.conj().swapaxes(-1, -2)


def _hermitian_solve(gram: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``J^-1`` times the Hermitian part ``0.5 (g + g^*)`` of ``g``, on a
    matrix or a stack."""
    return np.linalg.solve(gram, 0.5 * (g + g.conj().swapaxes(-1, -2)))


def _signed_outer(v: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """``sum_i c_i v_i v_i^*`` for the columns ``v_i`` of ``v`` and the
    signs ``c_i``, on a matrix or a stack."""
    return (v * signs[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _shifted_solve(a1: np.ndarray, gram: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``A1 + J^-1 0.5 (p + p^*)``, on a matrix or a stack."""
    return a1 + _hermitian_solve(gram, p)


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


def _margin_checks(ops) -> list[bool]:
    """:func:`_margins_ok` of each operator's raw eigenvalues, which one
    stacked ``eigvals`` per order gives and each operator memoizes: they
    are the ones ``spectrum(op)`` clusters."""
    return [_margins_ok(values) for values in _take_eigenvalues(ops)]


def _check_space(space: IndefiniteSpace, cfg: GenConfig) -> None:
    """The space has the dimension and negative index ``cfg`` names."""
    if (space.dim, space.kappa_minus) != (cfg.dim, cfg.kappa_minus):
        raise ValidationError(
            f"space has dimension {space.dim} and kappa {space.kappa_minus}, "
            f"the config asks for {cfg.dim} and {cfg.kappa_minus}"
        )


def _listed(first, cfgs) -> tuple[list, list]:
    """The spaces or operators ``first`` and the configs ``cfgs`` of a
    batch, as lists of one length."""
    first, cfgs = list(first), list(cfgs)
    if len(first) != len(cfgs):
        raise ValidationError(f"{len(cfgs)} configs for {len(first)} spaces or operators")
    return first, cfgs


def random_space(cfg, tol: Tolerance = DEFAULT_TOL):
    """Gram matrix with the requested inertia.

    The canonical ``diag(+1, ..., +1, -1, ..., -1)`` conjugated by a
    seeded Haar unitary.  ``cfg`` may also be a sequence of configs, whose
    spaces come as a list, drawn together (see the module docstring).
    """
    if isinstance(cfg, GenConfig):
        return _spaces([cfg], tol)[0]
    return _spaces(list(cfg), tol)


def random_operator(space, cfg, tol: Tolerance = DEFAULT_TOL):
    """J-selfadjoint operator ``J^-1 H`` for a random Hermitian H.  Every
    draw solves with ``J``; the cutoff test of a solve reads ``tol`` and the
    singular values of ``J`` that the space keeps.  ``space`` and ``cfg``
    may also be sequences of one length, whose operators come as a list,
    drawn together (see the module docstring)."""
    if isinstance(cfg, GenConfig):
        return _operators([space], [cfg], tol)[0]
    return _operators(*_listed(space, cfg), tol)


def random_pair(first, cfg, tol: Tolerance = DEFAULT_TOL):
    """A1 plus a rank-``pert_rank`` J-selfadjoint perturbation.

    ``first`` is the space to draw A1 in, or an A1 that
    :func:`random_operator` already drew for ``cfg``: A1 does not depend
    on ``pert_rank``, so pairs of several ranks can share one A1 and its
    memoized spectrum.  ``first`` and ``cfg`` may also be sequences of one
    length, whose pairs come as a list, drawn together (see the module
    docstring).

    The perturbation is ``J^-1 sum_i c_i v_i v_i^*`` with signs
    ``c_i`` and vectors ``v_i`` from the pair stream; draws are
    rejected until the difference has exact rank ``pert_rank`` and A2
    passes the same margin checks as A1.
    """
    if isinstance(cfg, GenConfig):
        return _pairs([first], [cfg], tol)[0]
    return _pairs(*_listed(first, cfg), tol)


def _spaces(cfgs: list, tol: Tolerance) -> list[IndefiniteSpace]:
    """:func:`random_space` of each config, drawn together."""
    streams = [Xoshiro256StarStar.substream(cfg.seed, _TAG_SPACE) for cfg in cfgs]
    draws = _complex_matrices(streams, [(cfg.dim, cfg.dim) for cfg in cfgs])
    signatures = [
        np.diag(np.array([1.0] * (cfg.dim - cfg.kappa_minus) + [-1.0] * cfg.kappa_minus,
                         dtype=complex))
        for cfg in cfgs
    ]
    grams = linalg._stacked(_haar_gram, draws, signatures)
    # validate_space's steps, with one eigh per order
    checked = [linalg.as_hermitian(gram, tol) for gram in grams]
    eigen = linalg._stacked(linalg.hermitian_eigen, [j for j, _ in checked])
    return [_space_of(j, norm, e) for (j, norm), e in zip(checked, eigen)]


def _operators(spaces: list, cfgs: list, tol: Tolerance) -> list[JSelfadjointOperator]:
    """:func:`random_operator` of each space and config, drawn together:
    each attempt draws every operator not yet accepted, each from its own
    stream's continuation."""
    for space, cfg in zip(spaces, cfgs):
        _check_space(space, cfg)
        linalg._check_invertible(space._singular_values, tol)
    streams = [Xoshiro256StarStar.substream(cfg.seed, _TAG_OPERATOR) for cfg in cfgs]
    ops = [None] * len(cfgs)
    pending, attempts = list(range(len(cfgs))), 0
    while pending:
        if attempts == RESAMPLE_BUDGET:
            raise ResampleBudgetError(
                f"no operator with eigenvalue margins {tol.GEN_MIN_GAP} "
                f"in {RESAMPLE_BUDGET} draws"
            )
        attempts += 1
        draws = _complex_matrices([streams[i] for i in pending],
                                  [(cfgs[i].dim, cfgs[i].dim) for i in pending])
        solved = linalg._stacked(_hermitian_solve, [spaces[i].gram for i in pending], draws)
        drawn = [validate_operator(spaces[i], a, tol) for i, a in zip(pending, solved)]
        for i, op, ok in zip(pending, drawn, _margin_checks(drawn)):
            if ok:
                ops[i] = op
        pending = [i for i in pending if ops[i] is None]
    return ops


def _pairs(firsts: list, cfgs: list, tol: Tolerance) -> list[OperatorPair]:
    """:func:`random_pair` of each space or A1 and config, drawn together:
    the A1s to draw in one call, then in each attempt every A2 not yet
    accepted, each from its own stream's continuation."""
    for first, cfg in zip(firsts, cfgs):
        if isinstance(first, JSelfadjointOperator):
            _check_space(first.space, cfg)
    spaces = [i for i, first in enumerate(firsts) if not isinstance(first, JSelfadjointOperator)]
    ops1 = list(firsts)
    for i, op1 in zip(spaces, _operators([firsts[i] for i in spaces],
                                         [cfgs[i] for i in spaces], tol)):
        ops1[i] = op1
    ranks = [cfg.pert_rank for cfg in cfgs]
    streams = {}
    for i, cfg in enumerate(cfgs):
        if ranks[i]:
            linalg._check_invertible(ops1[i].space._singular_values, tol)
            streams[i] = Xoshiro256StarStar.substream(cfg.seed, _TAG_PAIR)
    pairs = [None] * len(cfgs)
    # a rank-0 pair is A1 with itself, whose kernel the first attempt takes
    # with the others
    pending, attempts = list(range(len(cfgs))), 0
    while pending:
        if attempts == RESAMPLE_BUDGET:
            raise ResampleBudgetError(
                f"no rank-{ranks[pending[0]]} perturbation with margins {tol.GEN_MIN_GAP} "
                f"in {RESAMPLE_BUDGET} draws"
            )
        attempts += 1
        ops2 = {i: ops1[i] for i in pending}
        perturbed = [i for i in pending if ranks[i]]
        v = _complex_matrices([streams[i] for i in perturbed],
                              [(cfgs[i].dim, ranks[i]) for i in perturbed])
        signs = [np.array([streams[i].sign() for _ in range(ranks[i])], dtype=float)
                 for i in perturbed]
        p = linalg._stacked(_signed_outer, v, signs)
        a2 = linalg._stacked(_shifted_solve, [ops1[i].matrix for i in perturbed],
                             [ops1[i].space.gram for i in perturbed], p)
        for i, a in zip(perturbed, a2):
            ops2[i] = validate_operator(ops1[i].space, a, tol)
        ranked = []
        for i, pair in zip(pending, _made_pairs([ops1[i] for i in pending],
                                                [ops2[i] for i in pending], tol)):
            if not ranks[i]:
                pairs[i] = pair
            elif pair.n == ranks[i]:
                ranked.append((i, pair))
        for (i, pair), ok in zip(ranked, _margin_checks([pair.op2 for _, pair in ranked])):
            if ok:
                pairs[i] = pair
        pending = [i for i in pending if pairs[i] is None]
    return pairs


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
        s = 0.5 * rng.complex_normals(d * d).reshape(d, d)
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
