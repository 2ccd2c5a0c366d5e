"""The package's public surface: every exported name resolves and has a user."""

import ast
import pathlib
import re
import sys

import pytest

import tensordec

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_star_import_matches_all():
    namespace = {}
    exec("from tensordec import *", namespace)  # a stale name raises here
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(tensordec.__all__)


def test_every_exported_function_has_a_documented_user():
    # A function or type joins the public API only when the CLI, the
    # acceptance gates or the README names it; only the exceptions are exempt.
    sources = [
        _ROOT / "src" / "tensordec" / "cli.py",
        _ROOT / "tests" / "test_acceptance.py",
        _ROOT / "README.md",
    ]
    text = "\n".join(p.read_text() for p in sources)
    exported = {name: getattr(tensordec, name) for name in tensordec.__all__}
    unused = [
        name
        for name, obj in exported.items()
        if callable(obj)
        and not (isinstance(obj, type) and issubclass(obj, tensordec.TensordecError))
        and not re.search(rf"\b{name}\b", text)
    ]
    assert unused == []


def test_runtime_dependencies_match_imports():
    # [project].dependencies names exactly the third-party modules that the
    # package imports, so a new import cannot ship without its dependency
    tomllib = pytest.importorskip("tomllib")
    with open(_ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in declared}
    imported = set()
    for path in sorted((_ROOT / "src" / "tensordec").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"tensordec"}
    assert third_party == declared


def _public_definitions(tree):
    """(name, is_method, first line, last line) of each public module-level
    function or class and each public method of a module-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, False, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, True, item.lineno, item.end_lineno


def test_every_public_definition_has_a_reader_outside_the_unit_tests():
    # A function, class or method that only unit tests call is dead weight:
    # each must be named, outside its own definition, by the package, the
    # README, the benchmark or the acceptance gates. A method counts as named
    # where it is read as an attribute.
    package = sorted((_ROOT / "src" / "tensordec").glob("*.py"))
    others = [_ROOT / "README.md", _ROOT / "tests" / "test_acceptance.py",
              *sorted((_ROOT / "perfbench").glob("*.py")),
              *sorted((_ROOT / "perfbench").glob("*.md"))]
    lines = {p: p.read_text().splitlines() for p in package + others}
    unread = []
    for path in package:
        for name, is_method, first, last in _public_definitions(ast.parse("\n".join(lines[path]))):
            pattern = re.compile(rf"\.{name}\b" if is_method else rf"\b{name}\b")
            text = "\n".join(
                line
                for p, body in lines.items()
                for number, line in enumerate(body, 1)
                if not (p == path and first <= number <= last)
            )
            if not pattern.search(text):
                unread.append(name)
    assert not unread, f"named only by the unit tests: {sorted(unread)}"


def test_rank_one_splits_go_through_the_one_kernel():
    # Jennrich's step 4 and the unflatten split rank-one pieces only through
    # matrix_ops._split_rank_one, so neither module calls an SVD itself
    direct = []
    for name in ("jennrich.py", "overcomplete.py"):
        tree = ast.parse((_ROOT / "src" / "tensordec" / name).read_text())
        direct += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "svd"
        ]
    assert direct == []


def test_decomposer_helpers_leave_input_checks_to_their_callers():
    # each input is checked once, where it enters: the helpers below the
    # decomposers' entry points raise nothing, and the power method's result
    # type does not re-check what deflate_decompose built
    package = _ROOT / "src" / "tensordec"
    defs = {
        node.name: node
        for name in ("tensor_core.py", "overcomplete.py", "power_method.py")
        for node in ast.parse((package / name).read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    helpers = ("flatten_to_order3", "slice_combination", "khatri_rao", "default_plan",
               "unflatten_rank_one")
    raising = [name for name in helpers
               if any(isinstance(node, ast.Raise) for node in ast.walk(defs[name]))]
    assert raising == []
    methods = [item.name for item in defs["OrthogonalDecomposition"].body
               if isinstance(item, ast.FunctionDef)]
    assert "__post_init__" not in methods


def test_overcomplete_polishes_once_outside_the_unflatten():
    # the unflatten is the peel alone; the one ALS polish runs on the whole
    # tensor in overcomplete_decompose
    tree = ast.parse((_ROOT / "src" / "tensordec" / "overcomplete.py").read_text())
    unflatten = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "unflatten_rank_one"
    )
    called = {
        node.func.id for node in ast.walk(unflatten)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert not called & {"_als_refine", "_cp_dense"}
    named = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "_als_refine"
    ]
    assert len(named) == 1


def test_lab_results_have_one_summary_and_one_writer():
    # both lab experiments return the one trial-result class, whose summary
    # holds the only quantile call, and one cli helper writes their outputs
    def calls(tree, name):
        return [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == name
                or isinstance(node.func, ast.Attribute) and node.func.attr == name
            )
        ]

    package = _ROOT / "src" / "tensordec"
    lab = ast.parse((package / "smoothed_lab.py").read_text())
    summarized = [
        node.name for node in ast.walk(lab)
        if isinstance(node, ast.ClassDef) and any(
            isinstance(item, ast.FunctionDef) and item.name == "summary"
            for item in node.body
        )
    ]
    assert len(summarized) == 1
    assert len(calls(lab, "quantile")) == 1
    assert len(calls(ast.parse((package / "cli.py").read_text()), "_trials_csv")) == 1


def test_both_pivot_constructions_share_one_staircase_check():
    # each matrix-pivot round is a PivotBasis, so the triangle of earlier
    # pivots is read in one place and the rounds keep no parallel fields
    tree = ast.parse((_ROOT / "src" / "tensordec" / "smoothed_lab.py").read_text())
    triangles = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("triu_indices", "tril_indices")
    ]
    assert len(triangles) == 1
    l2 = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "PivotBasisL2"
    )
    defined = {item.name for item in l2.body if isinstance(item, ast.FunctionDef)} | {
        item.target.id for item in l2.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    }
    assert not defined & {"pivot_columns", "matrices", "row_counts"}


def test_leave_one_out_reads_every_column_off_one_svd():
    # the distances are the inverse row norms of the pseudoinverse, so one
    # SVD serves all columns and no loop projects them one at a time
    tree = ast.parse((_ROOT / "src" / "tensordec" / "matrix_ops.py").read_text())
    loo = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "leave_one_out"
    )
    svds = [node.lineno for node in ast.walk(loo)
            if isinstance(node, ast.Attribute) and node.attr == "svd"]
    assert len(svds) == 1
    assert not any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(loo))
    assert "_basis_rank" not in {node.name for node in tree.body
                                 if isinstance(node, ast.FunctionDef)}
