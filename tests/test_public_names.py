"""Every public name has a caller outside the tests.

A name in ``skewlab.__all__`` that only the tests use is code the program
never runs; it goes, or comes back together with the code that consumes it.
"""

import ast
from pathlib import Path

import skewlab

ROOT = Path(__file__).resolve().parents[1]
# Test-only names that the acceptance criteria pin (tests/test_acceptance.py).
ACCEPTANCE_ONLY = {
    "uniqueness_probe",  # c11
    "convergence_certificate",  # c06
    "ratio_bound_monotone",  # c04
    "ratio_bound_nonmonotone",  # c05
}


class _References(ast.NodeVisitor):
    """Names loaded, called or imported, except inside their own definition."""

    def __init__(self):
        self.found: set[str] = set()
        self._defining: list[str] = []

    def _definition(self, node):
        self._defining.append(node.name)
        self.generic_visit(node)
        self._defining.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _add(self, name: str) -> None:
        if name not in self._defining:
            self.found.add(name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self._add(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        for alias in node.names:
            self._add(alias.name)


def _referenced_names() -> set[str]:
    refs = _References()
    for path in [*(ROOT / "src" / "skewlab").glob("*.py"), *(ROOT / "scripts").glob("*.py")]:
        refs.visit(ast.parse(path.read_text(), filename=str(path)))
    return refs.found


def test_every_public_name_is_used_outside_the_tests():
    unused = sorted(set(skewlab.__all__) - _referenced_names() - ACCEPTANCE_ONLY)
    assert unused == []


def test_acceptance_exemptions_are_public_and_pinned():
    assert ACCEPTANCE_ONLY <= set(skewlab.__all__)
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text()
    assert all(name in acceptance for name in ACCEPTANCE_ONLY)


def test_a_name_used_only_by_its_own_definition_counts_as_unused():
    refs = _References()
    refs.visit(ast.parse(
        "def walk(n):\n    return walk(n - 1) if n else 0\n"
        "class Report:\n    def copy(self) -> 'Report':\n        return Report()\n"
        "from .fiber import certify\n"
    ))
    assert "walk" not in refs.found and "Report" not in refs.found
    assert "certify" in refs.found
