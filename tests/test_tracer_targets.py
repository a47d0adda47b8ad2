"""The benchmark tracer's patch targets exist where it looks for them.

``bench/tracing.py`` wraps each (module, class, method) in its ``METHODS``
table through the class ``__dict__``, and counts ``Frac1`` construction by
replacing ``Frac1.__init__``. A method that moves to a base class or out of
the class body would break ``--trace 1``, and so would a Smith-form matrix
that ``_max_bits`` reads going missing. The table and ``_max_bits`` are read
with ``ast``, so nothing under ``bench/`` is imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

from qtorus import IntMatrix, SnfResult, smith_normal_form

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def traced_methods():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["METHODS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no METHODS table")


def test_every_traced_method_is_in_its_class_dict():
    methods = traced_methods()
    assert ("forms", "SymmetricForm", "evaluate") in methods
    for module, cls_name, method in methods:
        cls = getattr(importlib.import_module(f"qtorus.{module}"), cls_name)
        assert method in vars(cls), f"{module}.{cls_name}.{method}"


def test_frac1_init_is_in_its_class_dict():
    from qtorus.forms import Frac1

    assert "__init__" in vars(Frac1)
    params = inspect.signature(vars(Frac1)["__init__"]).parameters
    assert list(params) == ["self", "num", "den"] and params["den"].default == 1


def max_bits_reads():
    """The attributes ``_max_bits`` reads off its Smith-form argument."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name == "_max_bits":
            (param,) = node.args.args
            return {
                sub.attr
                for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == param.arg
            }
    raise AssertionError("bench/tracing.py defines no _max_bits")


def test_max_bits_reads_smith_form_matrices():
    names = max_bits_reads()
    assert {"u", "d", "v"} <= names
    snf = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    for name in names:
        assert name in vars(SnfResult), name
        assert all(isinstance(x, int) for x in getattr(snf, name).entries), name
