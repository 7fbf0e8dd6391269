"""Span tracing of pontgap from outside the package.

:class:`Tracer` replaces each public function of the listed modules with
a timing wrapper, at every module binding that holds it (``gap_subspace``
and ``spectrum`` are also imported by name into ``theorem``, ``cli``,
``gapform`` and ``perturbation``), and wraps the LAPACK entry points of
``numpy.linalg`` and the methods of ``Xoshiro256StarStar``.  Spans stay
in memory until :meth:`Tracer.write`; :func:`layer_metrics` folds them
into the per-layer numbers the benchmark reports.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

import numpy

LAYERS = (
    "linalg",
    "prng",
    "gen",
    "indefinite",
    "spectral",
    "perturbation",
    "gapform",
    "theorem",
    "instancefile",
    "cli",
)

#: numpy.linalg functions that go to LAPACK; ``eigvals`` shares geev with ``eig``
LAPACK_FUNCTIONS = ("svd", "eig", "eigvals", "eigh", "solve", "qr")

PRNG_METHODS = ("next_u64", "uniform", "normal", "complex_normal", "sign", "substream")

#: per-element writers called once per matrix entry; their spans would
#: outnumber the work they time and inflate the writer they sit under
UNTRACED = frozenset({"instancefile.format_float", "instancefile.complex_node"})

#: op id of the traced set-up and of the trace self-test probe
SETUP_OP = -2
PROBE_OP = -1


def svd_flops(args, kwargs) -> float:
    """Flop count of one dense SVD, from Golub and Van Loan's table.

    Real flops for an m x n matrix with m >= n; a complex matrix costs
    four times as many.  ``full_matrices=False`` gives the thin factors.
    """
    a = args[0]
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    m, n = a.shape[-2], a.shape[-1]
    m, n = max(m, n), min(m, n)
    if not uv:
        flops = 4 * m * n * n - 4 * n**3 / 3
    elif full:
        flops = 4 * m * m * n + 8 * m * n * n + 9 * n**3
    else:
        flops = 14 * m * n * n + 8 * n**3
    return flops * (4 if numpy.iscomplexobj(a) else 1)


def _text_bytes(text) -> int:
    return len(text.encode("utf-8"))


#: per-span extra quantity, computed after the call from (args, kwargs, result)
EXTRAS = {
    "lapack.svd": lambda args, kwargs, result: svd_flops(args, kwargs),
    "instancefile.parse_instance": lambda args, kwargs, result: _text_bytes(args[0]),
    "instancefile.stable_dumps": lambda args, kwargs, result: _text_bytes(result),
}


class Tracer:
    """Holds the spans of one traced run and the patches that record them.

    Spans are parallel lists indexed by span id; a parent id of -1
    marks a root span.  ``op`` is the id stamped on every new span.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.errors: dict[int, str] = {}
        self.extras: dict[int, float] = {}
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, fn, name):
        names, starts, ends, parents, ops = (
            self.names, self.starts, self.ends, self.parents, self.ops
        )
        stack, errors, extras = self._stack, self.errors, self.extras
        extra = EXTRAS.get(name)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors[idx] = type(exc).__name__
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if extra is not None:
                extras[idx] = extra(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function at every binding inside pontgap."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"pontgap.{layer}")
            public = getattr(module, "__all__", None) or [
                n for n in vars(module) if not n.startswith("_")
            ]
            for attr in public:
                fn = getattr(module, attr)
                name = f"{layer}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and name not in UNTRACED):
                    wrappers[id(fn)] = (fn, self._wrap(fn, name))
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "pontgap" or n.startswith("pontgap."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        for attr in LAPACK_FUNCTIONS:
            self._patch(numpy.linalg, attr, self._wrap(getattr(numpy.linalg, attr), f"lapack.{attr}"))
        from pontgap.prng import Xoshiro256StarStar as rng

        for attr in PRNG_METHODS:
            raw = rng.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, f"prng.{attr}"))
            else:
                wrapped = self._wrap(raw, f"prng.{attr}")
            self._patch(rng, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched binding, newest first, and check it."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    @contextlib.contextmanager
    def tracing(self, op: int):
        """Record spans stamped ``op`` inside the block, unwrapped after it."""
        self.op = op
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ---------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one CSV line (times in ns from the first span)."""
        t0 = self.starts[0] if self.starts else 0
        with open(path, "w", encoding="utf-8") as out:
            out.write("span,parent,op,name,start_ns,end_ns,error\n")
            for i, name in enumerate(self.names):
                out.write(
                    f"{i},{self.parents[i]},{self.ops[i]},{name},"
                    f"{self.starts[i] - t0},{self.ends[i] - t0},{self.errors.get(i, '')}\n"
                )


# ---------------------------------------------------------------------------
# aggregation

#: (metric, unit) for every per-layer number, in report order
PER_LAYER = [
    ("lapack.svd.calls", "count"),
    ("lapack.svd.s", "s"),
    ("lapack.svd.gflop_est", "Gflop"),
    ("lapack.svd_per_window", "calls/window"),
    ("linalg.null_space.calls", "count"),
    ("linalg.null_space.self_s", "s"),
    ("linalg.orthonormal_columns.calls", "count"),
    ("linalg.orthonormal_columns.self_s", "s"),
    ("spectral.gap_subspace.calls", "count"),
    ("spectral.gap_subspace.self_s", "s"),
    ("spectral.svd_per_gap_subspace", "calls/call"),
    ("lapack.eig.calls", "count"),
    ("lapack.eig.s", "s"),
    ("lapack.eigh.calls", "count"),
    ("lapack.eigh.s", "s"),
    ("lapack.solve.calls", "count"),
    ("lapack.solve.s", "s"),
    ("linalg.complex_eigen.self_s", "s"),
    ("linalg.frob.calls", "count"),
    ("linalg.self_s", "s"),
    ("spectral.spectrum.calls", "count"),
    ("spectral.spectrum.self_s", "s"),
    ("indefinite.subspace_inertia.calls", "count"),
    ("indefinite.subspace_inertia.self_s", "s"),
    ("theorem.verify_main_theorem.calls", "count"),
    ("theorem.verify_main_theorem.self_s", "s"),
    ("cli.self_s", "s"),
    ("prng.draws", "count"),
    ("prng.self_s", "s"),
    ("gen.random_space.s", "s"),
    ("gen.random_pair.s", "s"),
    ("gen.margin_checks", "count"),
    ("theorem.proof_witness.calls", "count"),
    ("theorem.proof_witness.self_s", "s"),
    ("theorem.choose_delta_prime.self_s", "s"),
    ("theorem.choose_delta_prime.errors", "count"),
    ("gapform.decompose_resolvent_gap.self_s", "s"),
    ("gapform.decompose_spectrum_inside.self_s", "s"),
    ("indefinite.sum_subspaces.s", "s"),
    ("indefinite.intersect_subspaces.s", "s"),
    ("indefinite.oblique_projection.s", "s"),
    ("spectral.complement_subspace.self_s", "s"),
    ("spectral.restrict_operator.s", "s"),
    ("instancefile.parse_instance.s", "s"),
    ("instancefile.parse_instance.bytes", "B"),
    ("instancefile.stable_dumps.s", "s"),
    ("instancefile.stable_dumps.bytes", "B"),
    ("spectral.validate_operator.s", "s"),
    ("perturbation.make_pair.s", "s"),
    ("indefinite.validate_space.s", "s"),
]

#: metrics that are whole counts and must repeat exactly for one seed
COUNT_METRICS = [name for name, unit in PER_LAYER if unit == "count"] + [
    "lapack.svd.gflop_est",
    "lapack.svd_per_window",
    "spectral.svd_per_gap_subspace",
    "instancefile.parse_instance.bytes",
    "instancefile.stable_dumps.bytes",
]

#: span names whose sums form ``lapack.eig``
_GEEV = ("lapack.eig", "lapack.eigvals")


def layer_metrics(tracer: Tracer, ops=None) -> dict[str, float]:
    """Fold spans into the :data:`PER_LAYER` numbers.

    ``ops`` restricts the fold to spans stamped with those op ids; by
    default every span counts.  ``.s`` is inclusive time, ``.self_s``
    the span minus its child spans, both summed over spans in seconds.
    """
    names, parents = tracer.names, tracer.parents
    count = len(names)
    child_ns = [0] * count
    in_gap = [False] * count
    for i in range(count):
        p = parents[i]
        if p >= 0:
            child_ns[p] += tracer.ends[i] - tracer.starts[i]
            in_gap[i] = in_gap[p] or names[p] == "spectral.gap_subspace"
    calls: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    extra: dict[str, float] = {}
    errors: dict[str, int] = {}
    margin_checks = svd_in_gap = 0
    keep = None if ops is None else set(ops)
    for i in range(count):
        if keep is not None and tracer.ops[i] not in keep:
            continue
        name = names[i]
        dur = tracer.ends[i] - tracer.starts[i]
        calls[name] = calls.get(name, 0) + 1
        total_ns[name] = total_ns.get(name, 0) + dur
        self_ns[name] = self_ns.get(name, 0) + dur - child_ns[i]
        if i in tracer.extras:
            extra[name] = extra.get(name, 0.0) + tracer.extras[i]
        if i in tracer.errors:
            errors[name] = errors.get(name, 0) + 1
        p = parents[i]
        if name == "lapack.eigvals" and p >= 0 and names[p].startswith("gen."):
            margin_checks += 1
        if name == "lapack.svd" and in_gap[i]:
            svd_in_gap += 1

    def secs(table, name):
        return table.get(name, 0) / 1e9

    def layer_self(prefix):
        return sum(v for k, v in self_ns.items() if k.startswith(prefix)) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls.get(span, 0)
        elif field == "s":
            out[metric] = secs(total_ns, span)
        elif field == "self_s":
            out[metric] = secs(self_ns, span)
        elif field == "errors":
            out[metric] = errors.get(span, 0)
        elif field == "bytes":
            out[metric] = int(extra.get(span, 0))
    out["lapack.eig.calls"] = sum(calls.get(n, 0) for n in _GEEV)
    out["lapack.eig.s"] = sum(secs(total_ns, n) for n in _GEEV)
    out["lapack.svd.gflop_est"] = extra.get("lapack.svd", 0.0) / 1e9
    out["lapack.svd_per_window"] = ratio(
        calls.get("lapack.svd", 0), calls.get("theorem.verify_main_theorem", 0)
    )
    out["spectral.svd_per_gap_subspace"] = ratio(
        svd_in_gap, calls.get("spectral.gap_subspace", 0)
    )
    out["linalg.self_s"] = layer_self("linalg.")
    out["prng.self_s"] = layer_self("prng.")
    out["cli.self_s"] = layer_self("cli.")
    out["prng.draws"] = calls.get("prng.next_u64", 0)
    out["gen.margin_checks"] = margin_checks
    return out
