"""The four-vertex kinds are registered once, in ``graphs._EDGE_LISTS``.

Every per-kind table follows the registry's order, and the public
``check_*`` and ``invert_*`` names are the functions those tables hold.
Three rules have one home each, as the source's syntax trees show: the
scale rule's ``frexp`` lives in ``graphs.py``, ``ZERO_CLAMP`` in ``cubic.py``,
and only ``region._outputs`` calls ``os.open`` or ``ftruncate``.
"""

import ast
import pathlib
import pickle

import pytest

import lapreal
from lapreal.cubic import COEFFS
from lapreal.graphs import _DEFLATED_EDGES, FOUR_VERTEX_KINDS
from lapreal.inverse import INVERTERS
from lapreal.oracle import _KIND_STREAM
from lapreal.realizability import CHECKS, MASKS


def test_every_table_follows_the_registry():
    for table in (COEFFS, CHECKS, INVERTERS, _DEFLATED_EDGES):
        assert tuple(table) == FOUR_VERTEX_KINDS
    assert tuple(kind for kind in MASKS if kind != "complete") == FOUR_VERTEX_KINDS
    # the seeded reports draw from these streams, so this also pins the registry's order
    assert _KIND_STREAM == {"star": 1, "cycle": 2, "path": 3, "kite": 4, "complete": 5}


@pytest.mark.parametrize("kind", FOUR_VERTEX_KINDS)
@pytest.mark.parametrize("prefix, table", [("check", CHECKS), ("invert", INVERTERS)])
def test_public_names_are_the_table_entries(kind, prefix, table):
    name = f"{prefix}_{kind}"
    fn = table[kind]
    assert getattr(lapreal, name) is fn
    assert fn.__name__ == fn.__qualname__ == name
    assert pickle.loads(pickle.dumps(fn)) is fn


def test_every_exported_name_resolves():
    for name in lapreal.__all__:
        assert getattr(lapreal, name) is not None


def _spelled(node):
    """The name a Name, Attribute, import alias or definition node spells, else None."""
    for field in ("id", "attr", "name"):
        value = getattr(node, field, None)
        if isinstance(value, str):
            return value
    return None


def _nodes(tree, scope="<module>"):
    """Every node under ``tree`` with the name of the innermost function that holds it."""
    for child in ast.iter_child_nodes(tree):
        yield scope, child
        yield from _nodes(child, child.name if isinstance(child, ast.FunctionDef) else scope)


def _rule_homes():
    """Where three rules live in ``lapreal``.

    The modules that call a ``frexp``, the modules that name ``ZERO_CLAMP``,
    and the ``module.function`` names that call ``os.open`` or an ``ftruncate``.
    """
    frexp, clamp, opener = set(), set(), set()
    for path in sorted(pathlib.Path(lapreal.__file__).parent.glob("*.py")):
        for scope, node in _nodes(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and _spelled(node.func) == "frexp":
                frexp.add(path.name)
            if _spelled(node) == "ZERO_CLAMP":
                clamp.add(path.name)
            if isinstance(node, ast.Call) and (
                _spelled(node.func) == "ftruncate"
                or _spelled(node.func) == "open" and _spelled(getattr(node.func, "value", None)) == "os"
            ):
                opener.add(f"{path.stem}.{scope}")
    return frexp, clamp, opener


def test_each_scale_and_clamp_rule_has_one_home():
    # the scale rule's exponent lives in graphs (unit_scaled, unit_exponents),
    # the zero clamp in cubic (laplacian_cubic_roots and its batch form), and
    # region._outputs alone opens the output files and cuts them to length
    assert _rule_homes() == ({"graphs.py"}, {"cubic.py"}, {"region._outputs"})
