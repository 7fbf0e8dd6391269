"""The public names: each resolves, each exported function has a caller,
no function takes a tolerance it cannot read, no value class holding an
array has an ``==`` or ``hash`` that raises, the CLI imports no private
name of another module, and README's Python blocks run."""

import ast
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
    "spectral": ("spectrum", "positions", "selection", "clear_of", "_pair_conjugates"),
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


#: the fenced ``python`` blocks of README.md, in order
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M
)


def test_readme_has_python_blocks():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize(
    "block", README_BLOCKS, ids=[f"block{i}" for i in range(len(README_BLOCKS))]
)
def test_readme_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {})


def test_cli_imports_no_private_name_of_another_module():
    # the CLI parses and prints, and the sweep draws and counts: what either
    # needs of another module, the spectral tables and verdicts included,
    # is that module's public surface
    private = [
        f"{name}: {node.module}.{alias.name}"
        for name in ("cli.py", "sweep.py")
        for node in ast.walk(ast.parse(
            (ROOT / "src" / "pontgap" / name).read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == []
