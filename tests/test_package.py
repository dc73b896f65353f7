"""The package's public surface."""

import ast
import inspect
import textwrap

import qng


def test_every_public_class_and_function_has_a_docstring():
    # read from the source: a dataclass without one gets its signature as
    # __doc__, which documents nothing
    missing = []
    for name in qng.__all__:
        obj = getattr(qng, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            node = ast.parse(textwrap.dedent(inspect.getsource(obj))).body[0]
            if not ast.get_docstring(node):
                missing.append(name)
    assert missing == []
