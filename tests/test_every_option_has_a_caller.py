"""Every option has a caller.

A defaulted parameter that no call site passes, or an ``IndexConfig``
field that no ``IndexConfig(...)`` call sets, is a knob with one value
in use: it documents a choice nobody makes and may guard a branch that
never runs.  This pure-AST check walks every ``.py`` file in the repo
(package, tests, tools, perfbench, ``bench.py``, ``__ray_entry__.py``)
and fails naming each such option that is not on the allowlist below.

Rules:

* Functions are matched by name, so only names defined once under
  ``web_based_search_engine_ray/`` are checked.  A class's ``__init__``
  is called by the class name.
* A call passes a parameter by keyword, or by position (``self`` /
  ``cls`` skipped for methods).  ``functools.partial(f, ...)`` is a
  call of ``f``; ``f.remote(...)`` and ``f.options(...).remote(...)``
  are calls of ``f``.
* ``*args`` / ``**kwargs`` at a call pass everything, unless the
  ``**`` operand is a name bound to a ``dict(...)`` or ``{...}``
  literal in the same file, which passes the literal's keys.
"""

from __future__ import annotations

import ast
import dataclasses
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "web_based_search_engine_ray"
SKIP_DIRS = {".git", "__pycache__", ".pbw", ".bench_build", ".perfbench_traces"}

# (function, parameter) pairs kept with no caller, one reason per kind.
DEPLOYMENT = "deployment path: the caller's storage layout, not a tuning knob"
GUARD = ("hot-key guard budget or bucket count: the guard's error message "
         "names it as the remedy")
ALLOWED: dict[tuple[str, str], str] = {
    ("synth_corpus_cached", "cache_root"): DEPLOYMENT,
    ("dedup_keep_min", "max_group_rows"): GUARD,
    ("dedup_keep_min", "cc_num_buckets"): GUARD,
    ("dedup_keep_min", "cc_max_group_rows"): GUARD,
    ("jaccard_dup_pairs", "num_buckets"): GUARD,
    ("semantic_dedup", "max_group_vecs"): GUARD,
    ("sessionize", "num_buckets"): GUARD,
    ("top_k_per_group", "max_group_rows"): GUARD,
}

# ``IndexConfig`` is rebuilt from a stored ``meta.json`` here; that
# forwards whatever the index's builder set, so it is not a caller.
CONFIG_LOADERS = {"_load_cfg"}


def _files() -> list[Path]:
    return sorted(
        p for p in ROOT.rglob("*.py")
        if not SKIP_DIRS.intersection(p.relative_to(ROOT).parts)
    )


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@dataclasses.dataclass
class _Def:
    where: str
    params: list[str]          # positional order, self/cls dropped
    defaulted: list[str]       # positional-or-keyword and keyword-only


def _definitions() -> dict[str, _Def]:
    """Uniquely named functions (and classes, via ``__init__``) under the
    package, by name."""
    found: dict[str, list[_Def]] = defaultdict(list)

    def add(name, fn: ast.FunctionDef, where, method):
        a = fn.args
        pos = [x.arg for x in a.posonlyargs + a.args]
        if method and pos and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in fn.decorator_list
        ):
            pos = pos[1:]
        n_def = len(a.defaults)
        defaulted = (pos[len(pos) - n_def:] if n_def else []) + [
            k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
        ]
        found[name].append(_Def(where, pos, defaulted))

    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(ROOT)
        tree = _parse(path)
        methods = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for item in cls.body:
                    if isinstance(item, ast.FunctionDef):
                        methods[id(item)] = (
                            cls.name if item.name == "__init__" else item.name
                        )
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                name = methods.get(id(node), node.name)
                add(name, node, f"{rel}:{node.lineno}", id(node) in methods)
    return {k: v[0] for k, v in found.items() if len(v) == 1}


def _callee(func: ast.expr) -> str | None:
    # f.remote(...) / f.options(...).remote(...) call f.
    if isinstance(func, ast.Attribute) and func.attr == "remote":
        func = func.value
        if (isinstance(func, ast.Call) and isinstance(func.func, ast.Attribute)
                and func.func.attr == "options"):
            func = func.func.value
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _literal_keys(v: ast.expr) -> set[str] | None:
    """Keys of a ``dict(k=...)`` / ``{"k": ...}`` literal, else None."""
    if (isinstance(v, ast.Call) and isinstance(v.func, ast.Name)
            and v.func.id == "dict" and not v.args
            and all(k.arg for k in v.keywords)):
        return {k.arg for k in v.keywords}
    if isinstance(v, ast.Dict) and all(
        isinstance(k, ast.Constant) and isinstance(k.value, str)
        for k in v.keys
    ):
        return {k.value for k in v.keys}
    return None


def _literal_dicts(tree: ast.Module) -> dict[str, set[str]]:
    """Names every assignment of which in the file is a dict literal,
    with the union of their keys."""
    bound = defaultdict(list)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            bound[node.targets[0].id].append(_literal_keys(node.value))
    return {n: set().union(*ks) for n, ks in bound.items() if None not in ks}


def _calls(files: list[Path], skip_funcs: set[str]) -> dict:
    """Callee name -> ``(positional count, keyword names, passes
    everything)`` per call site; calls inside the functions named in
    ``skip_funcs`` are left out."""
    out = defaultdict(list)
    for path in files:
        tree = _parse(path)
        dicts = _literal_dicts(tree)
        skipped = {
            id(c) for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name in skip_funcs
            for c in ast.walk(f)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in skipped:
                continue
            args, keywords = list(node.args), list(node.keywords)
            name = _callee(node.func)
            if name == "partial" and args:
                name, args = _callee(args[0]), args[1:]
            if name is None:
                continue
            everything = any(isinstance(a, ast.Starred) for a in args)
            kws = set()
            for k in keywords:
                if k.arg is not None:
                    kws.add(k.arg)
                elif isinstance(k.value, ast.Name) and k.value.id in dicts:
                    kws |= dicts[k.value.id]
                else:
                    everything = True
            out[name].append((len(args), kws, everything))
    return out


def _passed(d: _Def, param: str, sites) -> bool:
    pos = d.params.index(param) if param in d.params else None
    return any(
        every or param in kws or (pos is not None and n_pos > pos)
        for n_pos, kws, every in sites
    )


def _uncalled_options() -> list[str]:
    defs = _definitions()
    calls = _calls(_files(), CONFIG_LOADERS)
    missing = []
    for name, d in sorted(defs.items()):
        for param in d.defaulted:
            if (name, param) in ALLOWED:
                continue
            if not _passed(d, param, calls.get(name, [])):
                missing.append(f"{d.where} {name}({param}=)")

    from web_based_search_engine_ray.config import IndexConfig

    set_fields = set()
    for _n_pos, kws, every in calls.get("IndexConfig", []):
        assert not every, "IndexConfig(...) call with unresolved */**"
        set_fields |= kws
    for f in dataclasses.fields(IndexConfig):
        if f.name not in set_fields:
            missing.append(f"IndexConfig.{f.name}")
    return missing


def test_every_option_has_a_caller():
    missing = _uncalled_options()
    assert not missing, (
        "options no call site passes (inline them as constants, or add "
        "them to ALLOWED with a reason):\n  " + "\n  ".join(missing)
    )


def test_allowlist_entries_exist():
    """An allowlisted option that is gone (or has since gained a caller)
    is a stale entry."""
    defs = _definitions()
    calls = _calls(_files(), CONFIG_LOADERS)
    for (name, param), why in ALLOWED.items():
        assert name in defs and param in defs[name].defaulted, (name, param)
        assert not _passed(defs[name], param, calls.get(name, [])), (
            f"{name}({param}=) has a caller now; drop it from ALLOWED ({why})"
        )
