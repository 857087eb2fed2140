"""Every public name of the package has a use outside the tests."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import fiberphoton

ROOT = Path(__file__).resolve().parents[1]

#: The paper's closed forms that only the acceptance tests call: they are the
#: oracles that criteria 1-3 and 5-6 compare the simulator against.
ORACLES = {"excited_population", "g2_pulsed", "g2_integrated_zero",
           "pump_rate_from_integrated"}


def _public_names():
    """(module, name) of each public function and class defined in a module
    of the package."""
    for info in pkgutil.iter_modules(fiberphoton.__path__):
        module = importlib.import_module(f"fiberphoton.{info.name}")
        for name, obj in vars(module).items():
            if (not name.startswith("_")
                    and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == module.__name__):
                yield module.__name__, name


def _text_without_imports(path: Path) -> str:
    """The source of path with its import statements blanked: a re-export
    is not a use."""
    lines = path.read_text().splitlines()
    for node in ast.walk(ast.parse("\n".join(lines))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for i in range(node.lineno - 1, node.end_lineno):
                lines[i] = ""
    return "\n".join(lines)


def _corpus() -> str:
    sources = [*ROOT.glob("src/**/*.py"), *ROOT.glob("demos/*.py"),
               *(p for p in ROOT.glob("bench/*.py") if not p.name.startswith("test_"))]
    return "\n".join([*map(_text_without_imports, sources),
                      (ROOT / "README.md").read_text()])


CORPUS = _corpus()


@pytest.mark.parametrize("module, name", sorted(
    (module, name) for module, name in _public_names() if name not in ORACLES))
def test_public_name_has_a_use_outside_the_tests(module, name):
    uses = [line for line in CORPUS.splitlines()
            if re.search(rf"\b{name}\b", line)
            and not re.match(rf"\s*(def|class) {name}\b", line)]
    assert uses, f"{module}.{name} is used only by tests: delete it"


def test_oracles_exist():
    assert ORACLES <= {name for _, name in _public_names()}
