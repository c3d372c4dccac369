"""The documents keep step with the API: README's quick start runs, every exported name exists."""
from __future__ import annotations

import importlib
import pathlib
import pkgutil
import re

import pytest

import nonholo

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    """The first python block under README's "Library quick start" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_quick_start_runs_as_written(capsys):
    exec(compile(_quick_start(), "README.md", "exec"), {"__name__": "quick_start"})
    # what its comments say it prints: a residual near 1e-16, and a measured order near 1
    residual, measured_p = map(float, capsys.readouterr().out.split())
    assert abs(residual) < 1e-15 and abs(measured_p - 1.0) < 0.1


_MODULES = ["nonholo"] + [f"nonholo.{info.name}" for info in pkgutil.iter_modules(nonholo.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}"
