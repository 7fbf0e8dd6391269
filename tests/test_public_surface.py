"""The public names: each resolves, each exported function has a caller,
no function takes a tolerance it cannot read, and no value class holding
an array has an ``==`` or ``hash`` that raises."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import pontgap

ROOT = Path(__file__).resolve().parent.parent

#: exported for the acceptance criteria (tests/test_acceptance.py), which
#: are their only callers
ACCEPTANCE_ONLY = frozenset({
    "random_real_spectrum_operator",
    "decompose_resolvent_gap",
    "decompose_spectrum_inside",
    "hilbert_gap_check",
    "resolvent_difference_rank",
    "sample_admissible_points",
})

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(pontgap.__path__)
    if info.name != "__main__"
)


@pytest.mark.parametrize("name", ["pontgap"] + [f"pontgap.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    # the benchmark tracer looks up every name in each module's __all__
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def test_every_exported_function_has_a_caller():
    sources = [
        path.read_text(encoding="utf-8")
        for folder in ("src", "scripts")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    uncalled = []
    for name in pontgap.__all__:
        if not inspect.isfunction(getattr(pontgap, name)) or name in ACCEPTANCE_ONLY:
            continue
        call = re.compile(rf"(?<!def )\b{name}\(")
        if not any(call.search(text) for text in sources):
            uncalled.append(name)
    assert uncalled == []


#: functions whose results cannot depend on ``Tolerance.rel``/``abs``: they
#: read only the bands, which are class constants
BANDS_ONLY = {
    "spectral": ("spectrum", "selection", "clear_of", "_pair_conjugates"),
    "indefinite": ("subspace_inertia", "_inertias"),
    "theorem": ("choose_delta_prime", "sweep_windows"),
    "gapform": (
        "build_gap_form", "decompose_resolvent_gap", "decompose_spectrum_inside",
        "_signed_eigenspaces",
    ),
    "gen": ("_margins_ok",),
    "perturbation": ("sample_admissible_points", "_check_admissible"),
}


@pytest.mark.parametrize("module", sorted(BANDS_ONLY))
def test_no_function_takes_a_tolerance_it_cannot_read(module):
    found = importlib.import_module(f"pontgap.{module}")
    taking = [
        name for name in BANDS_ONLY[module]
        if "tol" in inspect.signature(getattr(found, name)).parameters
    ]
    assert taking == []


def _example1_operator():
    space = pontgap.validate_space(np.diag([1.0, -1.0]))
    return pontgap.validate_operator(space, np.diag([0.5, 1.0]))


#: a builder of each frozen dataclass that holds an array
ARRAY_HOLDERS = {
    "IndefiniteSpace": lambda: pontgap.validate_space(np.diag([1.0, -1.0])),
    "Subspace": lambda: pontgap.Subspace.full(2),
    "GapForm": lambda: pontgap.build_gap_form(_example1_operator(), 1.25, 1.5),
    "GapDecomposition": lambda: pontgap.decompose_resolvent_gap(
        _example1_operator(), 1.25, 1.5
    ),
    "OperatorPair": lambda: pontgap.builtin_fixtures()[0].pair,
    "InstanceRecord": lambda: pontgap.parse_instance(
        (ROOT / "fixtures" / "example1.json").read_text()
    ),
    "Fixture": lambda: pontgap.builtin_fixtures()[0],
}


@pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
def test_array_holders_compare_and_hash_by_identity(name):
    # a generated __eq__ would compare the arrays and raise on their truth
    # value, and a generated __hash__ would raise on hashing one
    first, second = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert type(first).__name__ == name
    assert (first == second) is False
    assert (first != second) is True
    assert first == first
    assert hash(first) == hash(first)
    assert len({first, second}) == 2
