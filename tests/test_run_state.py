"""No gfekit function keeps run state in a module-level name.

A module-level value that a function writes is shared by every later call in
the process, so one command's settings leak into the next. This walks the
source of every module and fails on a function that declares a name
`global` or stores into an item or attribute of a module-level name.
"""

import ast
from pathlib import Path

import gfekit

SRC = Path(gfekit.__file__).resolve().parent

# The seed of arith.factor's rho walk. command_dispatch sets it from --seed on
# every call, so it cannot leak between calls, and no output depends on it.
ALLOWED = {("arith", "_DEFAULT_SEED")}


def _module_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        else:
            names.update(n.id for n in ast.walk(node)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return names


def _local_names(fn) -> set[str]:
    args = fn.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                             args.vararg, args.kwarg) if a is not None}
    names.update(n.id for n in ast.walk(fn)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return names


def _root(node) -> str | None:
    """The name an item or attribute store writes into, e.g. x for x.a[0]."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def writes_in(source: str) -> set[str]:
    """Module-level names that a function of source writes into: each name it
    declares global, and each whose item or attribute it assigns or deletes
    without binding the name itself."""
    tree = ast.parse(source)
    module_names = _module_names(tree)
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        local = _local_names(fn)
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                found.update(node.names)
            targets = (node.targets if isinstance(node, (ast.Assign, ast.Delete))
                       else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                       else [])
            found.update(_root(t) for target in targets for t in ast.walk(target)
                         if isinstance(t, (ast.Subscript, ast.Attribute))
                         and _root(t) not in local)
    return found & module_names


def module_state_writes() -> set[tuple[str, str]]:
    """(module, name) of every module-level name a gfekit function writes into."""
    return {(path.stem, name) for path in sorted(SRC.glob("*.py"))
            for name in writes_in(path.read_text())}


def test_the_guard_finds_each_kind_of_write():
    source = ("import m\nX = [0]\nY = 0\nclass C:\n    n = 0\n"
              "def f():\n    global Y\n    Y = 1\n    X[0] += 1\n    C.n = 1\n"
              "    m.prec = 53\n"
              "def g(X):\n    X[0] = 1\n    table = {}\n    table['k'] = 1\n")
    assert writes_in(source) == {"X", "Y", "C", "m"}


def test_no_function_writes_module_state():
    assert module_state_writes() == ALLOWED
