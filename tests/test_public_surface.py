"""The public names: each resolves, and each exported function has a caller."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

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
