"""Every public name and every knob in ``src/repro`` earns a caller outside tests.

An AST walk of ``src/repro`` lists five kinds of item:

* every public module-level function and class   ``path:name``
* every public method (any class, nested too)     ``path:Class.name``
* every parameter that has a default               ``path:func(p=)``, ``path:Class.meth(p=)``,
  ``path:Class(p=)`` for a constructor parameter
* every field of a public config dataclass of the
  service (:data:`SERVICE_PACKAGES`)               ``path:Class(field=)``
* every argparse flag                              ``path:--flag``

and counts each item's references in the *caller trees*: ``src/repro``
(the item's own definition excluded), ``bench/``, ``benchmarks/``,
``scripts/`` and ``examples/``.  Never ``tests/``.  An import, an
``__all__`` entry or a docstring is not a reference; a load of the name
(``name`` or ``x.name``) is.  A parameter or field counts only when some
call passes it, by keyword or by position, to a callee of that name
(``pool.submit(f, ...)`` and ``partial(f, ...)`` call ``f``); a call that
forwards ``**mapping`` passes every name the caller trees ever pass as a
keyword, store as ``d["name"]`` or write as a key of a dict that splats
another.  A flag counts when the flag appears as a string token.
Matching is by name only, so a collision can keep an item alive but
never condemn one.

An item nobody references is listed in ``inventory_allowlist.txt`` with
one reason from a closed set, or it goes:

* ``cli``       an argparse flag, or the ``main`` it feeds;
* ``api``       ``docs/api.md`` documents the name, or the class or function
  it belongs to;
* ``protocol``  the code dispatches to it (a dunder, a context-manager or
  callback signature, a baseline's ``fit`` / ``predict_matrix`` /
  ``predict_entries``);
* ``seam``      a test injects a clock, link, fault or fake through it.

The test fails on an unreferenced item missing from the list and on a
listed item that no longer exists or has gained a reference, so the list
only shrinks.  ``python tests/test_inventory.py`` prints the items the
list lacks and the stale entries it holds.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_TREES = ("src/repro", "bench", "benchmarks", "scripts", "examples")
ALLOWLIST = Path(__file__).with_name("inventory_allowlist.txt")
API_DOC = ROOT / "docs" / "api.md"
REASONS = ("cli", "api", "protocol", "seam")
CONFIG_SUFFIXES = ("Config", "Policy")
#: Config dataclasses are audited in the service's packages.  The paper's
#: offline apparatus (``datasets``, ``baselines``) keeps its generator and
#: baseline hyper-parameters as validated fields.
SERVICE_PACKAGES = (
    "core", "server", "cluster", "lifecycle", "robustness", "observability", "simulation",
)


@dataclass(frozen=True)
class Item:
    """One audited thing.  ``callees`` names the calls that may pass a
    parameter (empty for a name item); ``index`` is the parameter's
    position among a call's positional arguments (``None``: keyword-only)."""

    id: str
    name: str
    path: str
    span: tuple[int, int]
    callees: frozenset = frozenset()
    index: "int | None" = None


def _public(name: str) -> bool:
    return not name.startswith("_")


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _docstring_nodes(tree: ast.AST) -> set[int]:
    """ids of the string constants that are docstrings or bare string
    statements — never references."""
    return {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        _name_of(deco.func if isinstance(deco, ast.Call) else deco) == "dataclass"
        for deco in node.decorator_list
    )


def _is_static(node: ast.FunctionDef) -> bool:
    return any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)


def _rel(path: Path) -> str:
    return path.relative_to(ROOT).as_posix()


@lru_cache(maxsize=None)
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _files(tree: str) -> list[Path]:
    return sorted((ROOT / tree).rglob("*.py"))


# -- the inventory ------------------------------------------------------------
def _param_items(path, owner, func, callees, span, skip_first):
    """The parameters of ``func`` that have a default."""
    args = func.args
    positional = args.posonlyargs + args.args
    defaults = [None] * (len(positional) - len(args.defaults)) + list(args.defaults)
    offset = 1 if skip_first else 0
    items = []
    for index, (arg, default) in enumerate(zip(positional, defaults)):
        if default is not None:
            items.append(
                Item(f"{path}:{owner}({arg.arg}=)", arg.arg, path, span,
                     frozenset(callees), index - offset)
            )
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            items.append(
                Item(f"{path}:{owner}({arg.arg}=)", arg.arg, path, span,
                     frozenset(callees), None)
            )
    return items


def _class_items(path, node, prefix, subclasses):
    qual = f"{prefix}{node.name}"
    span = (node.lineno, node.end_lineno)
    constructors = {node.name, *subclasses.get(node.name, ())}
    items = []
    if (_is_dataclass(node) and _public(node.name) and node.name.endswith(CONFIG_SUFFIXES)
            and path.split("/")[2] in SERVICE_PACKAGES):
        fields = [
            stmt for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and "ClassVar" not in ast.unparse(stmt.annotation)
        ]
        for index, stmt in enumerate(fields):
            name = stmt.target.id
            items.append(
                Item(f"{path}:{qual}({name}=)", name, path, span,
                     frozenset(constructors | {"replace"}), index)
            )
    for stmt in node.body:
        if isinstance(stmt, ast.ClassDef):
            if _public(stmt.name):
                items.append(Item(f"{path}:{qual}.{stmt.name}", stmt.name, path,
                                  (stmt.lineno, stmt.end_lineno)))
            items += _class_items(path, stmt, f"{qual}.", subclasses)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fspan = (stmt.lineno, stmt.end_lineno)
            if _public(stmt.name):
                items.append(Item(f"{path}:{qual}.{stmt.name}", stmt.name, path, fspan))
            if stmt.name == "__init__":
                items += _param_items(path, qual, stmt, constructors, fspan,
                                      skip_first=True)
            elif not _dunder(stmt.name):
                items += _param_items(path, f"{qual}.{stmt.name}", stmt, {stmt.name},
                                      fspan, skip_first=not _is_static(stmt))
    return items


def _subclasses() -> dict[str, set[str]]:
    """class name -> names of the subclasses that construct through its
    ``__init__`` (transitively, by simple name)."""
    direct: dict[str, set[str]] = {}
    own_init: set[str] = set()
    for path in _files("src/repro"):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef):
                if any(isinstance(s, ast.FunctionDef) and s.name == "__init__"
                       for s in node.body) or _is_dataclass(node):
                    own_init.add(node.name)
                for name in filter(None, map(_name_of, node.bases)):
                    direct.setdefault(name, set()).add(node.name)
    closed: dict[str, set[str]] = {}
    for name in direct:
        seen, todo = set(), list(direct[name])
        while todo:
            sub = todo.pop()
            if sub in seen or sub in own_init:
                continue
            seen.add(sub)
            todo += direct.get(sub, ())
        closed[name] = seen
    return closed


def inventory() -> dict[str, Item]:
    subclasses = _subclasses()
    items: dict[str, Item] = {}
    for file in _files("src/repro"):
        path, tree = _rel(file), _parse(file)
        found = []
        for node in tree.body:
            span = (getattr(node, "lineno", 0), getattr(node, "end_lineno", 0))
            if isinstance(node, ast.ClassDef):
                if _public(node.name):
                    found.append(Item(f"{path}:{node.name}", node.name, path, span))
                found += _class_items(path, node, "", subclasses)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _public(node.name):
                    found.append(Item(f"{path}:{node.name}", node.name, path, span))
                found += _param_items(path, node.name, node, {node.name}, span,
                                      skip_first=False)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_argument" and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and str(node.args[0].value).startswith("--")):
                flag = node.args[0].value
                found.append(Item(f"{path}:{flag}", flag, path,
                                  (node.lineno, node.end_lineno)))
        for item in found:
            items.setdefault(item.id, item)
    return items


# -- the references -----------------------------------------------------------
@dataclass(frozen=True)
class _Call:
    callee: str
    positional: int
    keywords: frozenset
    star: bool
    double_star: bool
    path: str
    line: int


@dataclass
class _References:
    names: dict          # name -> [(path, line)]
    calls: dict          # callee -> [_Call]
    keywords: set        # every keyword passed and every dict key written
    tokens: dict         # whitespace token of a non-docstring string -> [(path, line)]


def _enclosing_classes(tree: ast.AST) -> dict[int, ast.ClassDef]:
    owner: dict[int, ast.ClassDef] = {}

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
            else:
                owner[id(child)] = cls
                visit(child, cls)

    visit(tree, None)
    return owner


def _name_of(node: ast.AST) -> "str | None":
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _call(callee: str, args, keywords, path: str, line: int) -> _Call:
    return _Call(
        callee,
        sum(not isinstance(a, ast.Starred) for a in args),
        frozenset(k.arg for k in keywords if k.arg),
        any(isinstance(a, ast.Starred) for a in args),
        any(k.arg is None for k in keywords),
        path,
        line,
    )


def _callees(node: ast.Call, cls: "ast.ClassDef | None") -> list[str]:
    """The names a call may reach: ``f(...)`` / ``x.f(...)`` -> ``f``;
    ``cls(...)`` / ``type(self)(...)`` -> the enclosing class;
    ``super().__init__(...)`` -> the enclosing class's bases."""
    func = node.func
    if isinstance(func, ast.Name):
        return [cls.name if func.id == "cls" and cls else func.id]
    if isinstance(func, ast.Attribute):
        inner = func.value
        if (func.attr == "__init__" and isinstance(inner, ast.Call)
                and _name_of(inner.func) == "super" and cls):
            return [n for n in map(_name_of, cls.bases) if n]
        return [func.attr]
    if isinstance(func, ast.Call) and _name_of(func.func) == "type" and cls:
        return [cls.name]
    return []


@lru_cache(maxsize=None)
def references() -> _References:
    refs = _References({}, {}, set(), {})
    for tree_dir in CALLER_TREES:
        for file in _files(tree_dir):
            path, tree = _rel(file), _parse(file)
            docstrings = _docstring_nodes(tree)
            owner = _enclosing_classes(tree)
            for node in ast.walk(tree):
                line = getattr(node, "lineno", 0)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    refs.names.setdefault(node.id, []).append((path, line))
                elif isinstance(node, ast.Attribute):
                    refs.names.setdefault(node.attr, []).append((path, line))
                elif isinstance(node, ast.Call):
                    callees = _callees(node, owner.get(id(node)))
                    refs.keywords |= {k.arg for k in node.keywords if k.arg}
                    calls = [
                        _call(callee, node.args, node.keywords, path, line)
                        for callee in callees
                    ]
                    if (callees in (["submit"], ["partial"]) and node.args
                            and _name_of(node.args[0])):
                        # ``pool.submit(f, *args, **kwargs)`` calls ``f``.
                        calls.append(_call(_name_of(node.args[0]), node.args[1:],
                                           node.keywords, path, line))
                    for call in calls:
                        refs.calls.setdefault(call.callee, []).append(call)
                    if (callees in (["getattr"], ["hasattr"]) and len(node.args) > 1
                            and isinstance(node.args[1], ast.Constant)):
                        refs.names.setdefault(str(node.args[1].value), []).append((path, line))
                elif isinstance(node, ast.Dict) and None in node.keys:
                    refs.keywords |= {
                        k.value for k in node.keys
                        if isinstance(k, ast.Constant) and isinstance(k.value, str)
                    }
                elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.slice, ast.Constant)):
                    refs.keywords.add(str(node.slice.value))
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                        and id(node) not in docstrings):
                    for token in re.split(r"[\s=]+", node.value):
                        refs.tokens.setdefault(token, []).append((path, line))
    return refs


def _outside(item: Item, path: str, line: int) -> bool:
    return path != item.path or not item.span[0] <= line <= item.span[1]


def referenced(item: Item) -> bool:
    refs = references()
    if item.name.startswith("--"):
        return any(_outside(item, p, n) for p, n in refs.tokens.get(item.name, ()))
    if not item.callees:
        return any(_outside(item, p, n) for p, n in refs.names.get(item.name, ()))
    for callee in item.callees:
        for call in refs.calls.get(callee, ()):
            if not _outside(item, call.path, call.line):
                continue
            if item.name in call.keywords:
                return True
            if item.index is not None and (call.star or call.positional > item.index):
                return True
            if call.double_star and item.name in refs.keywords:
                return True
    return False


def unreferenced() -> set[str]:
    return {id_ for id_, item in inventory().items() if not referenced(item)}


def _documented_as(item: Item) -> list[str]:
    """The names under which docs/api.md may document ``item``: its own and,
    for a method or a parameter, the class or function it belongs to."""
    qual = item.id.split(":", 1)[1].split("(")[0]
    return [item.name, *(part for part in qual.split(".") if part != item.name)]


def read_allowlist() -> dict[str, str]:
    entries: dict[str, str] = {}
    for raw in ALLOWLIST.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            id_, reason = line.rsplit(None, 1)
            entries[id_] = reason
    return entries


# -- the tests ----------------------------------------------------------------
def test_every_unreferenced_item_is_allowlisted():
    missing = sorted(unreferenced() - set(read_allowlist()))
    assert not missing, (
        "public names or knobs with no caller outside tests — delete them, "
        "or allowlist them in tests/inventory_allowlist.txt with a reason:\n  "
        + "\n  ".join(missing)
    )


def test_the_allowlist_only_shrinks():
    items = inventory()
    gone = sorted(i for i in read_allowlist() if i not in items)
    used = sorted(i for i in read_allowlist() if i in items and referenced(items[i]))
    assert not gone, "allowlisted items that no longer exist:\n  " + "\n  ".join(gone)
    assert not used, "allowlisted items that gained a caller:\n  " + "\n  ".join(used)


def test_every_allowlist_line_has_a_known_reason():
    entries = read_allowlist()
    bad = sorted(f"{i} {r}" for i, r in entries.items() if r not in REASONS)
    assert not bad, f"reasons must be one of {REASONS}:\n  " + "\n  ".join(bad)
    doc, items = API_DOC.read_text(), inventory()
    undocumented = sorted(
        i for i, r in entries.items()
        if r == "api" and i in items and not any(
            re.search(rf"\b{re.escape(name)}\b", doc) for name in _documented_as(items[i])
        )
    )
    assert not undocumented, "'api' names absent from docs/api.md:\n  " + "\n  ".join(undocumented)


def test_the_walk_sees_each_kind_of_item():
    items = inventory()
    for expected in (
        "src/repro/server/app.py:PredictionServer",
        "src/repro/server/wal.py:WriteAheadLog.append_entries",
        "src/repro/server/wal.py:WriteAheadLog(fsync=)",
        "src/repro/core/config.py:AMFConfig(kernel=)",
        "src/repro/cluster/shard.py:--data-dir",
    ):
        assert expected in items and referenced(items[expected]), expected


if __name__ == "__main__":
    allowed = read_allowlist()
    items = inventory()
    missing = sorted(unreferenced() - set(allowed))
    stale = sorted(i for i in allowed if i not in items or referenced(items[i]))
    print(f"{len(items)} items, {len(allowed)} allowlisted")
    print("\n".join(["# missing from the allowlist:", *missing,
                     "# stale allowlist entries:", *stale]))
