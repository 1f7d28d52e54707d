"""The public names other code calls stay public.

The benchmark in perfbench/ calls the library only through a namespace of
the public callables of ``zetavac`` (``zv.<name>``).  A name missing from
that namespace fails only when the benchmark runs, so this test reads the
workload source and checks every name it uses.
"""
import ast
import pathlib

import zetavac

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def names_used_through(source: str, namespace: str) -> set:
    """Attribute names read from ``namespace`` anywhere in ``source``."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == namespace
    }


def test_benchmark_calls_only_public_callables():
    used = names_used_through(WORKLOADS.read_text(), "zv")
    assert "decompose" in used and "sampled_energy" in used
    missing = sorted(
        name for name in used
        if name.startswith("_") or not callable(getattr(zetavac, name, None))
    )
    assert not missing, f"perfbench/workloads.py calls names zetavac does not export: {missing}"
