"""Every public name in the program is used by the program.

A public function, class or non-dunder method of `src/isocycles` that no
code in `src/isocycles` references outside its own body is API that only
tests use; it belongs in `tests/` or nowhere.  A reference is a `Name`, an
`Attribute` or an import of the same identifier, so a method counts as used
when any attribute of that name is read anywhere in the program.  A public
field (a `__slots__` entry, or a class-level annotated field of a dataclass
or NamedTuple) counts as used when an attribute of that name is loaded
outside its class.
"""

import ast
from pathlib import Path

import isocycles

SRC = Path(isocycles.__file__).parent

# Names the benchmark in perfbench/ needs, with where it needs them.  Only
# the first three are unreferenced in the program today; the scan skips dunders
# and finds the other three used, and they are listed so that a change
# removing that use keeps them.  They go with the benchmark repair (ROADMAP
# item 0).
PINNED = {
    "modpoly.instantiate": "perfbench/spans.py: Tracer.__enter__ looks up every SPANS name "
                           "with getattr and no default (perfbench/tests/test_perfbench.py::"
                           "test_tracer_wraps_imported_names_and_restores, run.py --trace 1)",
    "nbwalk.NonBacktrackingOperator.dimension": "perfbench/spans.py: _counts_for reads "
                                                ".dimension off each build_nb_operator result",
    "ordercount.EpsilonValue.kind": "perfbench/spans.py: _counts_for reads .kind off each "
                                    "epsilon result for ordercount.ambiguous_eps",
    "ff.QuadExtElement": "arithmetic (+, *, inverse) in perfbench/tests/test_perfbench.py::"
                         "test_fp2_eval_matches_program_arithmetic and tests/test_velu.py",
    "ff.PrimeField.elem": "perfbench/tests/test_perfbench.py::"
                          "test_fp2_eval_matches_program_arithmetic",
    "ordercount.EpsilonValue": "perfbench/spans.py: _counts_for reads .kind off each "
                               "epsilon result",
}


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _fields(cls):
    """Public `__slots__` entries and class-level annotated fields of `cls`."""
    for item in cls.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            yield item.target.id
        elif (isinstance(item, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets)
              and isinstance(item.value, (ast.Tuple, ast.List))):
            yield from (elt.value for elt in item.value.elts
                        if isinstance(elt, ast.Constant) and isinstance(elt.value, str))


def _definitions(module, tree):
    """(qualified name, identifier, scope, is_field) for each public function,
    class, non-dunder method and field; a use must lie outside `scope`."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name, item, False
            for name in _fields(node):
                if not name.startswith("_"):
                    yield f"{module}.{node.name}.{name}", name, node, True


def _references(tree):
    """(identifier, node) for each Name, Attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node


def _is_load(ref):
    return isinstance(ref, ast.Attribute) and isinstance(ref.ctx, ast.Load)


def unused_names() -> list[str]:
    modules = list(_modules())
    refs = [ref for _, tree in modules for ref in _references(tree)]
    unused = []
    for module, tree in modules:
        for qualname, name, scope, is_field in _definitions(module, tree):
            own = {id(n) for n in ast.walk(scope)}
            if not any(ident == name and id(ref) not in own and (not is_field or _is_load(ref))
                       for ident, ref in refs):
                unused.append(qualname)
    return unused


def test_every_public_name_is_used_by_the_program():
    assert sorted(set(unused_names()) - set(PINNED)) == []


def test_pinned_names_are_defined():
    defined = {q for module, tree in _modules() for q, *_ in _definitions(module, tree)}
    assert set(PINNED) <= defined
