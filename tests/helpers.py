"""Constructions shared across test modules.

These build spaces and operators through numpy's own RNG rather than
the package generators, so tests of the core modules do not depend on
:mod:`pontgap.gen` being correct.
"""

import os

import numpy as np
import pytest

import pontgap.sweep
import pontgap.theorem
from pontgap import make_pair, validate_operator, validate_space


def haar_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases.conj()


def make_space(d, kminus, seed):
    """Random Gram matrix with inertia (d - kminus, kminus, 0)."""
    rng = np.random.default_rng(seed)
    j0 = np.diag(np.array([1.0] * (d - kminus) + [-1.0] * kminus, dtype=complex))
    u = haar_unitary(rng, d)
    j = u @ j0 @ u.conj().T
    return validate_space(0.5 * (j + j.conj().T))


def make_operator(space, seed, scale=1.0):
    """J-selfadjoint operator J^-1 H with numpy-random Hermitian H."""
    rng = np.random.default_rng(seed)
    g = scale * (rng.normal(size=(space.dim,) * 2) + 1j * rng.normal(size=(space.dim,) * 2))
    h = 0.5 * (g + g.conj().T)
    return validate_operator(space, np.linalg.solve(space.gram, h))


def make_rank_perturbed_pair(space, seed, rank, scale=1.0):
    """(A1, A1 + J^-1 (rank-``rank`` Hermitian)) as an OperatorPair."""
    op1 = make_operator(space, seed, scale)
    if rank == 0:
        return make_pair(op1, validate_operator(space, op1.matrix.copy()))
    rng = np.random.default_rng(seed + 10_000)
    v = rng.normal(size=(space.dim, rank)) + 1j * rng.normal(size=(space.dim, rank))
    signs = rng.choice([-1.0, 1.0], size=rank)
    p = (v * signs) @ v.conj().T
    a2 = op1.matrix + np.linalg.solve(space.gram, 0.5 * (p + p.conj().T))
    return make_pair(op1, validate_operator(space, a2))


def random_orthonormal(rng, d, k):
    """d x k matrix with orthonormal columns."""
    g = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
    q, _ = np.linalg.qr(g)
    return q[:, :k]


def count_calls(monkeypatch, owner, name):
    """A list that grows by one each time ``owner.name`` is called."""
    calls = []
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def pin_cpus(monkeypatch, cpus):
    """``pontgap.sweep`` sees the first ``cpus`` CPUs in its affinity mask,
    and this process as one thread: the gate of its workers and table
    threads would otherwise see the BLAS threads that numpy may start here."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(pontgap.sweep, "_one_thread", lambda: True)


def assert_no_children():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def log(path, value):
    """Append a ``pid value`` line to ``path``.

    Forked sweep workers inherit a monkeypatched counter that calls this,
    and O_APPEND keeps the lines of several processes whole.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        os.write(fd, f"{os.getpid()} {value}\n".encode())
    finally:
        os.close(fd)


def logged(path):
    """The values ``log`` appended to ``path``, by process id."""
    found = {}
    if path.exists():
        for line in path.read_text().splitlines():
            pid, value = line.split(" ", 1)
            found.setdefault(int(pid), []).append(value)
    return found


def break_count_bound(monkeypatch):
    """Every window of every pair breaks the count bound: the one function
    that decides the bounds, ``pontgap.theorem._bounds``, says so."""
    real = pontgap.theorem._bounds

    def broken(*args):
        slack, min_kappa_bound, sig, _, equal_kappa, min_kappa = real(*args)
        return slack, min_kappa_bound, sig, False, equal_kappa, min_kappa

    monkeypatch.setattr(pontgap.theorem, "_bounds", broken)
