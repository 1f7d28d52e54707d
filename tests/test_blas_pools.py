"""Each module keeps its BLAS and LAPACK calls in one pool.

NumPy and SciPy load separate OpenBLAS thread pools, and a pool's workers
keep spinning after a call, so a call into one pool right after a call into
the other competes with them (the ``truncation`` module docstring states the
rule).  No timing-free test would see that contention come back, so these
tests read the package source instead: ``truncation`` and ``pauli`` take
SciPy's pool, in exactly the functions listed below, and neither takes a
NumPy matrix product or any ``np.linalg`` function but ``norm``;
``spectral``, ``gauge``, ``vqe``, ``analysis`` and ``models`` take NumPy's
and never use ``scipy.linalg``.
"""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "zetavac"
SCIPY_LINALG_USERS = {
    ("truncation", "vacuum_state"),
    ("truncation", "strong_convergence_probe"),
    ("truncation", "schatten_convergence_probe"),
    ("pauli", "_map_digits"),
}
SCIPY_POOL_MODULES = ["truncation", "pauli"]
NUMPY_POOL_MODULES = ["spectral", "gauge", "vqe", "analysis", "models"]
PRODUCT_CALLS = {"dot", "matmul", "einsum"}


def _dotted(node) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def scipy_linalg_uses(source: str) -> set:
    """Qualified names of the functions that use ``scipy.linalg`` in ``source``.

    An attribute chain ``scipy.linalg...`` counts as a use of its enclosing
    function; a plain ``import scipy.linalg`` only loads the module.  An
    aliased import or a ``from`` import counts as a use where it stands
    (``"<module>"`` at top level), because the alias would hide later uses.
    """
    uses = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope != "<module>" else node.name
        elif isinstance(node, ast.Import):
            if any(a.name.startswith("scipy.linalg") and a.asname for a in node.names):
                uses.add(scope)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("scipy.linalg") or (
                module == "scipy" and any(a.name == "linalg" for a in node.names)
            ):
                uses.add(scope)
        elif isinstance(node, ast.Attribute) and _dotted(node).startswith("scipy.linalg"):
            uses.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return uses


def matrix_products(func: ast.AST) -> list:
    """Line numbers of ``@`` and of ``dot``/``matmul``/``einsum`` calls in ``func``."""
    return sorted(
        node.lineno
        for node in ast.walk(func)
        if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult))
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in PRODUCT_CALLS
        )
    )


def numpy_linalg_calls(tree: ast.AST) -> list:
    """Line numbers of uses of ``numpy.linalg`` other than ``norm`` in ``tree``.

    A full attribute chain ``np.linalg...`` or ``numpy.linalg...`` counts
    unless it is ``np.linalg.norm``; so does an aliased import of
    ``numpy.linalg`` or any import from it, which would hide later uses.
    """
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            parts = _dotted(node).split(".")
            if parts[:2] in (["np", "linalg"], ["numpy", "linalg"]) and parts[2:] != ["norm"]:
                lines.add(node.lineno)
        elif isinstance(node, ast.Import):
            if any(a.name.startswith("numpy.linalg") and a.asname for a in node.names):
                lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (
            (node.module or "").startswith("numpy.linalg")
            or (node.module == "numpy" and any(a.name == "linalg" for a in node.names))
        ):
            lines.add(node.lineno)
    return sorted(lines)


def _function(source: str, name: str) -> ast.FunctionDef:
    found = [
        node
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    assert len(found) == 1, f"expected one top-level function {name}"
    return found[0]


def test_scipy_linalg_only_in_the_listed_functions():
    used = {
        (path.stem, scope)
        for path in sorted(SRC.glob("*.py"))
        for scope in scipy_linalg_uses(path.read_text())
    }
    assert used == SCIPY_LINALG_USERS, (
        f"scipy.linalg used outside the listed functions: {sorted(used - SCIPY_LINALG_USERS)}; "
        f"listed but unused: {sorted(SCIPY_LINALG_USERS - used)}"
    )


@pytest.mark.parametrize("module", SCIPY_POOL_MODULES)
def test_scipy_pool_module_takes_no_numpy_product_or_linalg_call(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert not matrix_products(tree), f"NumPy matrix product in {module} at lines {matrix_products(tree)}"
    assert not numpy_linalg_calls(tree), f"np.linalg in {module} at lines {numpy_linalg_calls(tree)}"


@pytest.mark.parametrize("module", NUMPY_POOL_MODULES)
def test_numpy_pool_module_never_uses_scipy_linalg(module):
    assert not scipy_linalg_uses((SRC / f"{module}.py").read_text())


@pytest.mark.parametrize(
    "source,scope",
    [
        ("import scipy.linalg\ndef f(M):\n    return scipy.linalg.svdvals(M)\n", "f"),
        ("import scipy.linalg.blas\nclass C:\n    def g(self, x):\n        return scipy.linalg.blas.ddot(x, x)\n", "C.g"),
        ("import scipy.linalg as sl\n", "<module>"),
        ("from scipy.linalg import svdvals\n", "<module>"),
        ("from scipy import linalg\n", "<module>"),
    ],
)
def test_guard_sees_each_form_of_use(source, scope):
    assert scipy_linalg_uses(source) == {scope}


def test_guard_sees_each_matrix_product():
    source = (
        "def f(H, x):\n"
        "    y = H @ x\n"
        "    y @= H\n"
        "    a = np.dot(H, x)\n"
        "    b = numpy.matmul(H, x)\n"
        "    c = np.einsum('ij,j->i', H, x)\n"
        "    return H.dot(x)\n"
    )
    assert matrix_products(_function(source, "f")) == [2, 3, 4, 5, 6, 7]
    assert scipy_linalg_uses("import scipy.linalg\nimport scipy.special\n") == set()


def test_guard_sees_each_numpy_linalg_call():
    source = (
        "import numpy.linalg\n"
        "from numpy.linalg import eigvalsh\n"
        "from numpy import linalg\n"
        "import numpy.linalg as la\n"
        "def f(H, x):\n"
        "    a = np.linalg.eigvalsh(H)\n"
        "    b = numpy.linalg.solve(H, x)\n"
        "    return np.linalg.norm(x) + numpy.linalg.norm(H)\n"
    )
    assert numpy_linalg_calls(ast.parse(source)) == [2, 3, 4, 6, 7]
