"""Every public name in the program is used by the program, and so is
every parameter with a default.

A public function, class or non-dunder method of `src/isocycles` that no
code in `src/isocycles` references outside its own body is API that only
tests use; it belongs in `tests/` or nowhere.  A reference is a `Name`, an
`Attribute` or an import of the same identifier, so a method counts as used
when any attribute of that name is read anywhere in the program.  A public
field (a `__slots__` entry, or a class-level annotated field of a dataclass
or NamedTuple) counts as used when an attribute of that name is loaded
outside its class.  A parameter with a default on a public function or
method counts as used when some call of that name elsewhere in the program
passes it, by position or by keyword.
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


# Parameters with a default that only code outside the program passes.
PINNED_PARAMETERS = {
    "cli.main(argv)": "perfbench/run.py runs each operation as cli.main(argv), and the tests "
                      "call it the same way; the console script passes nothing",
    "ff.PrimeField.elem(b)": "perfbench/tests/test_perfbench.py::"
                             "test_fp2_eval_matches_program_arithmetic builds F_{p^2} "
                             "elements with both coordinates",
}


def _defaulted(fn, is_method):
    """(position or None, name) of each parameter of `fn` with a default.

    Positions count from the first argument a call writes, so a method's
    self (or cls) is skipped; keyword-only parameters have no position.
    """
    args = fn.args.posonlyargs + fn.args.args
    if is_method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list):
        args = args[1:]
    first = len(args) - len(fn.args.defaults)
    for k, arg in enumerate(args[first:], first):
        yield k, arg.arg
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _functions(module, tree):
    """(qualified name, node, is_method) for each public function and method."""
    for qualname, _, node, _ in _definitions(module, tree):
        if isinstance(node, ast.FunctionDef):
            yield qualname, node, qualname.count(".") == 2


def _passes(call, position, name):
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and position < len(call.args)


def unpassed_parameters() -> list[str]:
    """Each `qualname(param)` with a default that no call in the program passes.

    Calls are matched to a function by the bare callee name only (`f(...)`,
    `x.f(...)`), not by module or class, and a call with `*args` or
    `**kwargs` counts as passing every parameter. So two functions that share
    a name share their calls, and one of them can hide a dead parameter of
    the other; the scan finds a parameter no call of that name passes, not
    every dead one.
    """
    modules = list(_modules())
    calls = [node for _, tree in modules for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unpassed = []
    for module, tree in modules:
        for qualname, fn, is_method in _functions(module, tree):
            own = {id(n) for n in ast.walk(fn)}
            mine = [c for c in calls if id(c) not in own
                    and getattr(c.func, "id", getattr(c.func, "attr", None)) == fn.name]
            for position, name in _defaulted(fn, is_method):
                if not any(_passes(c, position, name) for c in mine):
                    unpassed.append(f"{qualname}({name})")
    return unpassed


def test_every_defaulted_parameter_is_passed_by_the_program():
    assert sorted(set(unpassed_parameters()) - set(PINNED_PARAMETERS)) == []


def test_pinned_parameters_are_defined():
    modules = list(_modules())
    defined = {f"{q}({name})" for module, tree in modules
               for q, fn, is_method in _functions(module, tree)
               for _, name in _defaulted(fn, is_method)}
    assert set(PINNED_PARAMETERS) <= defined
