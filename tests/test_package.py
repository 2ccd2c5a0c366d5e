"""The package's public surface: every exported name resolves and has a user."""

import pathlib
import re

import tensordec

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_star_import_matches_all():
    namespace = {}
    exec("from tensordec import *", namespace)  # a stale name raises here
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(tensordec.__all__)


def test_every_exported_function_has_a_documented_user():
    # A function joins the public API only when the CLI, the acceptance
    # gates, the README or the benchmark names it; types are exempt.
    sources = [
        _ROOT / "src" / "tensordec" / "cli.py",
        _ROOT / "tests" / "test_acceptance.py",
        _ROOT / "README.md",
        *sorted((_ROOT / "perfbench").glob("*.py")),
        _ROOT / "perfbench" / "README.md",
    ]
    text = "\n".join(p.read_text() for p in sources)
    unused = [
        name
        for name in tensordec.__all__
        if callable(getattr(tensordec, name))
        and not isinstance(getattr(tensordec, name), type)
        and not re.search(rf"\b{name}\b", text)
    ]
    assert unused == []
