"""The benchmark tracer's patch targets exist where it looks for them.

``bench/tracing.py`` wraps each (module, class, method) in its ``METHODS``
table through the class ``__dict__``, and counts ``Frac1`` construction by
replacing ``Frac1.__init__``. A method that moves to a base class or out of
the class body would break ``--trace 1``. The table is read with ``ast``, so
nothing under ``bench/`` is imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

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
