"""The package's public surface holds only what some caller uses, and
documents itself.

Six scans of the source tree:

- every optional parameter of a public function or method in
  ``src/hammerline`` is set by at least one call in ``src/``, ``tests/``,
  ``scripts/`` or ``perfbench/`` (by keyword, by position, or possibly
  through ``*args``/``**kwargs``); a parameter nothing sets is a constant;
- ``__all__`` is exactly what ``__init__.py`` imports plus ``__version__``,
  and every exported name that is not a constant is written somewhere
  outside the package (tests, scripts, README, perfbench): a type that only
  comes back from a call is reached through that call, not exported;
- every dataclass in ``src/hammerline`` has a docstring: for one without,
  ``dataclasses`` builds ``__doc__`` from ``inspect.signature`` at import;
- no module but ``weights.py`` imports the tail model's parts
  (``tail_points``, ``tail_values``, ``classify_tail``): every other one
  reads a function at +-inf through ``weights.read_ends``;
- every ``json.dump`` and ``json.dumps`` call passes ``allow_nan=False``:
  the package writes strict JSON, as ``load_scenario`` reads it;
- no exported function has a parameter named ``memo``: a parts memo
  belongs to one certification or one call, whose keys name parts by
  plain values, and is never passed in.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hammerline"
CALLER_DIRS = ("src", "tests", "scripts", "perfbench")
USER_TEXTS = ("tests", "scripts", "perfbench", "README.md")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _files(names, suffixes=(".py",)) -> list:
    out = []
    for name in names:
        p = ROOT / name
        out += sorted(p.rglob("*")) if p.is_dir() else [p]
    return [p for p in out if p.suffix in suffixes]


def _public_functions() -> dict:
    """name -> (qualified name, is_method, node) of the public module-level
    functions and the public methods of public module-level classes; a
    name defined more than once is ambiguous at a call site and is left
    out."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef):
                found.append((node.name, f"{path.stem}.{node.name}", False, node))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                found += [(f.name, f"{path.stem}.{node.name}.{f.name}", True, f)
                          for f in node.body if isinstance(f, ast.FunctionDef)]
    counts = Counter(name for name, *_ in found)
    return {name: rest for name, *rest in found
            if counts[name] == 1 and not name.startswith("_")}


def _optional_params(node: ast.FunctionDef, is_method: bool) -> list:
    """(name, position or None) of the parameters with a default; the
    position counts from the first argument a caller writes."""
    a = node.args
    positional = a.posonlyargs + a.args
    skip = 1 if is_method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list) else 0
    out = [(p.arg, i - skip) for i, p in enumerate(positional)
           if i >= len(positional) - len(a.defaults)]
    out += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _set_params(calls) -> dict:
    """name -> set of parameter names or positions a call sets; "*" and
    "**" stand for an unpacked argument list or mapping."""
    out: dict = {}
    for call in calls:
        f = call.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        if name is None:
            continue
        seen = out.setdefault(name, set())
        for i, arg in enumerate(call.args):
            seen.add("*" if isinstance(arg, ast.Starred) else i)
        for kw in call.keywords:
            seen.add("**" if kw.arg is None else kw.arg)
    return out


def never_set_parameters() -> list:
    calls = [n for path in _files(CALLER_DIRS) for n in ast.walk(_parse(path))
             if isinstance(n, ast.Call)]
    set_by = _set_params(calls)
    unused = []
    for name, (qualname, is_method, node) in sorted(_public_functions().items()):
        seen = set_by.get(name, set())
        if "**" in seen:
            continue
        for param, pos in _optional_params(node, is_method):
            if param in seen or (pos is not None and (pos in seen or "*" in seen)):
                continue
            unused.append(f"{qualname}({param})")
    return unused


def test_every_optional_parameter_is_set_by_some_call():
    assert never_set_parameters() == []


def _exports() -> tuple:
    tree = _parse(PACKAGE / "__init__.py")
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    listed = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets))
    return imported, listed


def test_all_is_the_imports_and_each_export_has_a_user():
    imported, listed = _exports()
    assert len(listed) == len(set(listed))
    assert set(listed) == imported | {"__version__"}
    text = "\n".join(p.read_text() for p in _files(USER_TEXTS, (".py", ".md")))
    unused = [name for name in listed
              if not name.isupper() and not name.startswith("__")
              and not re.search(rf"\b{re.escape(name)}\b", text)]
    assert unused == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
        if name == "dataclass":
            return True
    return False


def test_every_dataclass_has_a_docstring():
    undocumented = [f"{path.stem}.{node.name}" for path in sorted(PACKAGE.glob("*.py"))
                    for node in ast.walk(_parse(path))
                    if isinstance(node, ast.ClassDef) and _is_dataclass(node)
                    and ast.get_docstring(node) is None]
    assert undocumented == []


TAIL_MODEL_PARTS = {"tail_points", "tail_values", "classify_tail"}


def test_only_weights_imports_the_tail_model_parts():
    importers = sorted(f"{path.stem} imports {alias.name}"
                       for path in sorted(PACKAGE.glob("*.py")) if path.name != "weights.py"
                       for node in ast.walk(_parse(path)) if isinstance(node, ast.ImportFrom)
                       for alias in node.names if alias.name in TAIL_MODEL_PARTS)
    assert importers == []


def test_every_json_dump_is_strict():
    lax = [f"{path.stem}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
           for node in ast.walk(_parse(path))
           if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
           and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
           and node.func.attr in ("dump", "dumps")
           and not any(k.arg == "allow_nan" and isinstance(k.value, ast.Constant)
                       and k.value.value is False for k in node.keywords)]
    assert lax == []


def test_no_exported_function_takes_a_memo():
    _, listed = _exports()
    takers = sorted(f"{path.stem}.{node.name}" for path in sorted(PACKAGE.glob("*.py"))
                    for node in _parse(path).body
                    if isinstance(node, ast.FunctionDef) and node.name in listed
                    and any(isinstance(a, ast.arg) and a.arg == "memo"
                            for a in ast.walk(node.args)))
    assert takers == []
