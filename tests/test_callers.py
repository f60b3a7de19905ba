"""Ratchet: every function, method and class in ``src/`` has a caller
outside ``tests/``, and every defaulted parameter is set by one.

The scan is name-based and uses the stdlib ``ast`` module only.  Caller
roots are ``src/repro/``, ``bench/``, ``scripts/`` and ``examples/``;
``tests/`` never counts.

- A def counts as called when its name appears outside its own body as
  a ``Name`` or ``Attribute`` load, or as a string constant where
  something resolves it: the name argument of ``getattr``/``hasattr``,
  or a name table outside ``__all__`` in a module whose module-level
  ``__getattr__`` (a lazy loader) looks names up.  Any other string
  that happens to spell a def's name is text, not a use.  A method
  counts only through an ``Attribute`` load (``x.name``) or such a
  string: a bare local name or a same-named module function does not
  reach it.  Import aliases, re-exports and ``__all__`` entries are not
  loads.  Dunder methods are skipped.
- A defaulted parameter counts as set when some call matched by the
  function's name (the class name for ``__init__``; for a method, an
  attribute call) passes it by keyword, passes enough positional
  arguments to reach it, or passes ``*args`` / ``**kwargs``.  A function
  whose name is also used as a value (a registry row, a callback, a
  ``getattr`` string) is skipped: its callers are unknown.  A name used
  only as an attribute's base (``Cls.method``) is not a value, and
  neither is a lazy loader's table entry: the loaded object is called
  by its name, which the scan sees.
- A ``@dataclass`` without its own ``__init__`` gets a synthetic one:
  each field with a plain default is a defaulted parameter.  A
  ``field(default_factory=...)`` or ``init=False`` field, and a field
  some caller assigns as an attribute, is state and not checked.
- ``cls(...)`` inside a class calls that class.
- ``**name``, where ``name`` is a local bound only to a dict literal or
  ``dict(k=...)`` and otherwise used only as ``name["k"]``, passes
  exactly those keys; any other ``**`` passes every parameter.
- A site inside a flagged def (an allowlisted one included) is no
  caller: the scan repeats without those sites until nothing more is
  flagged, so a def or option reached only from dead code is flagged
  too.

Anything flagged must be in :data:`ALLOWED` with a one-line reason, and
every entry of :data:`ALLOWED` must still be flagged, so the list only
shrinks.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CALLER_ROOTS = ("src/repro", "bench", "scripts", "examples")

#: ``module:qualname`` or ``module:qualname(param)`` (module relative to
#: ``repro``) → why it stays without a caller outside ``tests/``.
ALLOWED: dict[str, str] = {
    "graph.csr:validate_csr": (
        "check on a CSR graph built outside the program; tests run it on "
        "every graph builder"
    ),
    "mesh.io:load_mesh": (
        "read side of a CLI output: loads what `repro mesh --output` "
        "writes through save_mesh"
    ),
    "solver.heun:integrate": (
        "reference tests compare against: the uniform-step Heun/Euler "
        "integration the solver tests take as ground truth"
    ),
    "solver.heun:euler_step": "reference tests compare against: "
    "integrate's Euler step, which one-level Euler LTS must reproduce",
    "solver.heun:heun_step": "reference tests compare against: "
    "integrate's Heun step, which one-level Heun LTS must reproduce",
    "solver.heun:residual": "reference tests compare against: "
    "integrate's global residual, checked for conservation",
    "solver.timestep:stable_timesteps(cfl)": "reference tests compare "
    "against: integrate passes the CFL number its tests vary",
    "solver.lts:lts_iteration": (
        "reference tests compare against: the direct phase loop the "
        "task-executed solver must reproduce"
    ),
    "solver.state:quiescent": (
        "reference tests compare against: the exact steady state the "
        "solver kernels must leave unchanged"
    ),
    "flusim.reference:simulate_ref(durations)": (
        "reference tests compare against: simulate(durations=) is checked "
        "against it"
    ),
    "pipeline.config:PartitionConfig.__init__(imbalance_tol)": (
        "scenario option: `--set imbalance_tol=` sets it through "
        "Scenario.with_options"
    ),
    "resilience.faults:FaultSpec.__init__(first_attempt_only)": (
        "test hook: tests clear it to reach the dead-letter and "
        "retry-exhaustion paths"
    ),
    "resilience.faults:FaultSpec.__init__(first_round_only)": (
        "test hook: tests clear it to reach rollback exhaustion"
    ),
    "resilience.sentinel:ResourceSentinel.__init__(mem_probe)": (
        "test hook: tests inject a fake available-memory probe"
    ),
    "resilience.sentinel:ResourceSentinel.__init__(disk_probe)": (
        "test hook: tests inject a fake free-disk probe"
    ),
    "service.client:ServiceClient.__init__(rng)": (
        "test hook: tests inject a seeded backoff-jitter source"
    ),
    "service.daemon:ServeDaemon.__init__(fault_plan)": (
        "test hook: tests inject faults into job attempts"
    ),
    "service.daemon:ServeDaemon.__init__(poll)": (
        "test hook: tests shorten the claim loop's wait"
    ),
    "service.daemon:ServeDaemon.__init__(sentinel)": (
        "test hook: tests inject a sentinel with fake probes"
    ),
}


@dataclass
class _Def:
    key: str
    name: str
    path: str
    first: int
    last: int
    node: ast.AST
    owner: str | None  # the enclosing class's name
    #: (name, positional index) of each defaulted parameter of a
    #: dataclass's synthetic ``__init__``; ``None``: read ``node``.
    fields: list | None = None


@dataclass
class _Refs:
    """Sites keyed by name; each starts ``(path, line, bare)``, where
    ``bare`` marks a plain ``Name`` (not ``x.name``, not a string)."""

    #: name → [(path, line, bare)] of loads that are not the callee of a
    #: call, nor part of an annotation, plus identifier strings.
    values: dict = field(default_factory=lambda: defaultdict(list))
    #: name → [(path, line, bare)] of every load and identifier string.
    loads: dict = field(default_factory=lambda: defaultdict(list))
    #: name → [(path, line, bare, n_positional, keywords, starred)] of
    #: calls.
    calls: dict = field(default_factory=lambda: defaultdict(list))
    #: names assigned as an attribute (``x.name = ...``).
    stores: set = field(default_factory=set)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Decorated ``@dataclass`` (or ``@dataclass(...)``) without
    ``init=False``."""
    for dec in node.decorator_list:
        call = dec if isinstance(dec, ast.Call) else None
        target = call.func if call else dec
        name = getattr(target, "id", getattr(target, "attr", None))
        if name != "dataclass":
            continue
        return not any(
            k.arg == "init"
            and isinstance(k.value, ast.Constant)
            and k.value.value is False
            for k in (call.keywords if call else ())
        )
    return False


def _dataclass_fields(node: ast.ClassDef) -> list[tuple[str, int]]:
    """(name, positional index) of each field with a plain default,
    ``self`` at index 0.  A ``field(default_factory=...)`` takes a slot
    but is state, not an option; an ``init=False`` field takes none."""
    out: list[tuple[str, int]] = []
    index = 1
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and stmt.simple):
            continue
        if "ClassVar" in ast.dump(stmt.annotation):
            continue
        value = stmt.value
        defaulted = value is not None
        if (
            isinstance(value, ast.Call)
            and getattr(value.func, "id", getattr(value.func, "attr", None))
            == "field"
        ):
            kw = {k.arg: k.value for k in value.keywords}
            init = kw.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            defaulted = "default" in kw
        if defaulted:
            out.append((stmt.target.id, index))
        index += 1
    return out


def _collect_defs(module: str, path: str, tree: ast.Module) -> list[_Def]:
    out: list[_Def] = []

    def visit(body, prefix, owner):
        for node in body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            qual = f"{prefix}{node.name}"
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            out.append(
                _Def(
                    key=f"{module}:{qual}",
                    name=node.name,
                    path=path,
                    first=first,
                    last=node.end_lineno,
                    node=node,
                    owner=owner,
                )
            )
            if isinstance(node, ast.ClassDef):
                own_init = any(
                    isinstance(n, ast.FunctionDef) and n.name == "__init__"
                    for n in node.body
                )
                if _is_dataclass(node) and not own_init:
                    # The synthetic ``__init__`` spans only the class
                    # header, so ``cls(...)`` in the body reaches it.
                    out.append(
                        _Def(
                            key=f"{module}:{qual}.__init__",
                            name="__init__",
                            path=path,
                            first=first,
                            last=node.lineno,
                            node=node,
                            owner=node.name,
                            fields=_dataclass_fields(node),
                        )
                    )
                visit(node.body, f"{qual}.", node.name)

    visit(tree.body, "", None)
    return out


def _string_names(value: str) -> list[str]:
    parts = value.replace(":", ".").split(".")
    return parts if all(p.isidentifier() for p in parts) else []


def _scopes(tree: ast.Module) -> list[tuple[ast.AST, str | None, ast.AST]]:
    """(node, enclosing class name, enclosing function or the module)
    for every node of ``tree``."""
    out = []
    stack = [(tree, None, tree)]
    while stack:
        node, owner, scope = stack.pop()
        out.append((node, owner, scope))
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            scope = node
        stack.extend((c, owner, scope) for c in ast.iter_child_nodes(node))
    return out


def _literal_keys(value: ast.AST) -> set[str] | None:
    """Keys of a dict literal or ``dict(k=...)`` call; ``None`` for any
    other value (or one that unpacks)."""
    if isinstance(value, ast.Dict):
        if all(
            isinstance(k, ast.Constant) and isinstance(k.value, str)
            for k in value.keys
        ):
            return {k.value for k in value.keys}
    elif (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "dict"
        and not value.args
        and all(k.arg for k in value.keywords)
    ):
        return {k.arg for k in value.keywords}
    return None


def _dict_locals(scope: ast.AST) -> dict[str, frozenset[str]]:
    """Locals of ``scope`` bound only to a dict literal or
    ``dict(k=...)`` and otherwise used only as ``**name`` or
    ``name["k"]``, mapped to every key they can hold."""
    keys: dict[str, set[str]] = defaultdict(set)
    bad: set[str] = set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        a = scope.args
        bad.update(
            x.arg
            for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            if x is not None
        )
    fine: set[int] = set()  # ids of the Name nodes accounted for
    for node in ast.walk(scope):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            found = _literal_keys(node.value)
            if found is not None:
                keys[node.targets[0].id] |= found
                fine.add(id(node.targets[0]))
        elif isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            key = node.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                fine.add(id(node.value))
                if isinstance(node.ctx, ast.Store):
                    keys[node.value.id].add(key.value)
        elif isinstance(node, ast.Call):
            fine.update(
                id(k.value)
                for k in node.keywords
                if k.arg is None and isinstance(k.value, ast.Name)
            )
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and id(node) not in fine:
            bad.add(node.id)
    return {name: frozenset(ks) for name, ks in keys.items() if name not in bad}


#: Calls whose second argument names an attribute to look up.
_LOOKUPS = ("getattr", "hasattr")


def _collect_refs(path: str, tree: ast.Module, refs: _Refs) -> None:
    exported: set[int] = set()  # ids of nodes under an __all__ assignment
    looked_up: set[int] = set()  # ids of getattr/hasattr name strings
    lazy = any(
        isinstance(n, ast.FunctionDef) and n.name == "__getattr__"
        for n in tree.body
    )
    annotation: set[int] = set()  # ids of nodes inside an annotation
    callees: set[int] = set()
    bases: set[int] = set()  # ids of Names that are an attribute's base
    dict_locals: dict[int, dict[str, frozenset[str]]] = {}
    scoped = _scopes(tree)
    for node, owner, scope in scoped:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            exported.update(id(n) for n in ast.walk(node.value))
        annotations = []
        if isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotations.append(node.returns)
        for ann in annotations:
            annotation.update(id(n) for n in ast.walk(ann))
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name):
                bases.add(id(node.value))
            if isinstance(node.ctx, ast.Store):
                refs.stores.add(node.attr)
        if isinstance(node, ast.Call):
            callees.add(id(node.func))
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in _LOOKUPS
                and len(node.args) >= 2
            ):
                looked_up.add(id(node.args[1]))
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None
            )
            if name == "cls" and owner is not None:
                name = owner  # ``cls(...)`` in a class calls that class
            if name is not None:
                if id(scope) not in dict_locals:
                    dict_locals[id(scope)] = _dict_locals(scope)
                known = dict_locals[id(scope)]
                keywords = {k.arg for k in node.keywords if k.arg}
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                for k in node.keywords:
                    if k.arg is not None:
                        continue
                    if isinstance(k.value, ast.Name) and k.value.id in known:
                        keywords |= known[k.value.id]
                    else:
                        starred = True
                refs.calls[name].append(
                    (
                        path,
                        node.lineno,
                        isinstance(func, ast.Name),
                        len(node.args),
                        frozenset(keywords),
                        starred,
                    )
                )

    not_values = annotation | callees | bases
    for node, _, _ in scoped:
        names = []
        bare = isinstance(node, ast.Name)
        if bare and isinstance(node.ctx, ast.Load):
            names = [node.id]
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names = [node.attr]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) in looked_up:
                names = _string_names(node.value)
            elif lazy and id(node) not in exported:
                # A lazy loader's table entry makes its def reachable,
                # not called from unknown places.
                names = _string_names(node.value)
                not_values.add(id(node))
        for name in names:
            refs.loads[name].append((path, node.lineno, bare))
            if id(node) not in not_values:
                refs.values[name].append((path, node.lineno, bare))


def _outside(d: _Def, sites, skip) -> list:
    """Sites that can reach ``d``: outside its own body and outside the
    ``skip`` spans (``path → [(first, last)]`` of flagged defs), and
    for a method (not ``__init__``) not a bare name."""
    method = (
        d.owner is not None
        and not isinstance(d.node, ast.ClassDef)
        and d.name != "__init__"
    )
    return [
        s
        for s in sites
        if not (s[0] == d.path and d.first <= s[1] <= d.last)
        and not any(a <= s[1] <= b for a, b in skip.get(s[0], ()))
        and not (method and s[2])
    ]


def _bound_slots(d: _Def) -> int:
    """Positional slots a call does not fill: ``self`` or ``cls``."""
    static = any(
        isinstance(x, ast.Name) and x.id == "staticmethod"
        for x in d.node.decorator_list
    )
    return int(d.owner is not None and not static)


def _defaulted(fn: ast.FunctionDef, offset: int) -> list[tuple[str, int | None]]:
    """(name, positional index or None) of each parameter with a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    out = [
        (a.arg, i)
        for i, a in enumerate(positional)
        if i >= len(positional) - len(args.defaults) and i >= offset
    ]
    out += [
        (a.arg, None)
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return out


def scan(src: dict[str, str], callers: dict[str, str], allowed=()):
    """Scan ``src`` (module → source) against ``callers`` (path →
    source; ``src`` modules are keyed ``src:<module>``), to a fixpoint.

    Returns ``(dead, unset)``: ``dead`` maps each uncalled def's key to
    its line count, ``unset`` lists ``key(param)`` of each defaulted
    parameter no call passes.  Sites inside a dead def or a def keyed in
    ``allowed`` do not count.
    """
    refs = _Refs()
    trees = {path: ast.parse(text) for path, text in callers.items()}
    for path, tree in trees.items():
        _collect_refs(path, tree, refs)
    defs: list[_Def] = []
    for module, text in src.items():
        path = f"src:{module}"
        tree = trees[path] if path in trees else ast.parse(text)
        defs.extend(_collect_defs(module, path, tree))

    flagged: set[str] = set()
    while True:
        skip = defaultdict(list)
        for d in defs:
            if d.key in flagged or d.key in allowed:
                skip[d.path].append((d.first, d.last))
        dead, unset = _judge(defs, refs, skip)
        if set(dead) == flagged:
            return dead, unset
        flagged = set(dead)


def _judge(defs: list[_Def], refs: _Refs, skip) -> tuple[dict, list]:
    """One pass of :func:`scan` with the ``skip`` spans ignored."""
    dead: dict[str, int] = {}
    unset: list[str] = []
    for d in defs:
        if _is_dunder(d.name) and d.name != "__init__":
            continue
        if d.name != "__init__" and not _outside(d, refs.loads[d.name], skip):
            dead[d.key] = d.last - d.first + 1
            continue
        if isinstance(d.node, ast.ClassDef) and d.fields is None:
            continue
        # A constructor is called through its class (or ``super()``).
        callee = d.owner if d.name == "__init__" else d.name
        if _outside(d, refs.values[callee], skip):
            continue  # used as a value: its callers are unknown
        sites = _outside(d, refs.calls[callee], skip)
        if d.name == "__init__":
            sites += _outside(d, refs.calls["__init__"], skip)
        offset = _bound_slots(d)
        if d.fields is None:
            params = _defaulted(d.node, offset)
        else:  # a field some caller assigns is state, not an option
            params = [(f, i) for f, i in d.fields if f not in refs.stores]
        for param, index in params:
            if not any(
                starred
                or param in keywords
                or (index is not None and n_pos + offset > index)
                for _, _, _, n_pos, keywords, starred in sites
            ):
                unset.append(f"{d.key}({param})")
    return dead, unset


def _repo_scan(root: Path = ROOT):
    src, callers = {}, {}
    for caller_root in CALLER_ROOTS:
        for path in sorted((root / caller_root).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            if caller_root == "src/repro":
                rel = path.relative_to(root / caller_root).with_suffix("")
                parts = [p for p in rel.parts if p != "__init__"]
                module = ".".join(parts) or "repro"
                src[module] = text
                callers[f"src:{module}"] = text
            else:
                callers[str(path.relative_to(root))] = text
    return scan(src, callers, {key for key in ALLOWED if "(" not in key})


def test_every_src_def_and_parameter_has_a_caller_or_a_reason():
    dead, unset = _repo_scan()
    flagged = set(dead) | set(unset)
    print(
        f"\nflagged: {len(dead)} defs ({sum(dead.values())} lines), "
        f"{len(unset)} parameters; allowlisted: {len(ALLOWED)}"
    )
    for key in sorted(flagged - set(ALLOWED)):
        print("  ", key, dead.get(key, ""))
    assert sorted(flagged - set(ALLOWED)) == [], "no caller outside tests/"
    assert sorted(set(ALLOWED) - flagged) == [], "stale allowlist entries"


FIXTURE_SRC = {
    "pkg": """
from .mod import reexported

__all__ = ["reexported"]
""",
    "pkg.mod": """
import pkg.mod as mod

__all__ = ["dead", "exported_only"]


def dead():
    return dead()


def exported_only():
    pass


def reexported():
    pass


def in_a_table(x, seed=0):
    pass


def by_getattr():
    pass


def positional(a, b=1):
    pass


def by_kwargs(a, *, c=2):
    pass


def never_passed(a, e=1):
    pass


def check(x):
    return x


class Box:
    def __init__(self, size=3):
        self.size = size

    def method(self, scale=1.0):
        return scale

    def check(self):
        return True

    def held(self):
        return False


def caller(opts):
    table = {"row": in_a_table}
    getattr(mod, "by_getattr")()
    positional(0, 5)
    by_kwargs(0, **opts)
    never_passed(0)
    Box(4).method(2.0)
    held = check(table)
    return held
""",
}


def test_scanner_flags_dead_defs_and_unset_parameters():
    callers = {f"src:{m}": text for m, text in FIXTURE_SRC.items()}
    callers["examples/run.py"] = "from pkg.mod import caller\ncaller({})\n"
    dead, unset = scan(FIXTURE_SRC, callers)
    # Recursion, a re-export and an ``__all__`` string are not calls,
    # and neither a same-named module function nor a bare local name
    # reaches a method.
    assert sorted(dead) == [
        "pkg.mod:Box.check",
        "pkg.mod:Box.held",
        "pkg.mod:dead",
        "pkg.mod:exported_only",
        "pkg.mod:reexported",
    ]
    # A dict value, a getattr string, a positional argument, ``**kwargs``
    # and a bound-method call all count; only ``e`` is never passed.
    assert unset == ["pkg.mod:never_passed(e)"]



#: One fixture per rule: (source of module ``pkg.rules``, the defaulted
#: parameters the scan must flag).
RULE_FIXTURES = {
    # A dataclass's fields are its synthetic ``__init__``'s parameters;
    # a ``default_factory`` field and one a caller assigns are state.
    "dataclass_fields": (
        """
from dataclasses import dataclass, field


@dataclass
class Opts:
    name: str
    level: int = 0
    unused: bool = False
    cache: list = field(default_factory=list)
    tally: int = 0


def caller():
    opts = Opts("a", 1)
    opts.tally += 1
    return opts
""",
        ["pkg.rules:Opts.__init__(unused)"],
    ),
    # ``cls(...)`` in a classmethod calls the class.
    "cls_call": (
        """
class Point:
    def __init__(self, x=0, y=0):
        self.x, self.y = x, y

    @classmethod
    def on_axis(cls, x):
        return cls(x)


def caller():
    return Point.on_axis(3)
""",
        ["pkg.rules:Point.__init__(y)"],
    ),
    # A local bound only to ``dict(...)`` passes exactly its keys.
    "dict_kwargs": (
        """
def build(a, *, fast=False, slow=False):
    return a, fast, slow


def caller():
    opts = dict(fast=True)
    opts["fast"] = False
    return build(0, **opts)
""",
        ["pkg.rules:build(slow)"],
    ),
    # ``Engine.spare()`` uses the class as an attribute base, not as a
    # value: the constructor's callers stay known.
    "attribute_base": (
        """
class Engine:
    def __init__(self, power=1):
        self.power = power

    @staticmethod
    def spare():
        return 0


def caller():
    return Engine.spare()
""",
        ["pkg.rules:Engine.__init__(power)"],
    ),
}


@pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
def test_scanner_rule(rule):
    text, flagged = RULE_FIXTURES[rule]
    callers = {"src:pkg.rules": text, "examples/run.py": "caller()\n"}
    _, unset = scan({"pkg.rules": text}, callers)
    assert sorted(unset) == flagged


FIXPOINT_SRC = """
def entry():
    return helper()
def helper(flag=False):
    return flag
def dead():
    return middle() + helper(flag=True)
def middle():
    return deeper()
def deeper():
    return 0
def reference():
    return oracle_only()
def oracle_only():
    return 2
"""


def test_scanner_follows_calls_to_a_fixpoint():
    # ``middle`` is called only from ``dead`` and ``deeper`` only from
    # ``middle``; ``oracle_only`` only from the allowlisted
    # ``reference``.  None of those sites counts, and ``helper(flag=)``
    # is set only inside dead code.
    callers = {"src:pkg.fix": FIXPOINT_SRC, "examples/run.py": "entry()\n"}
    dead, unset = scan(
        {"pkg.fix": FIXPOINT_SRC}, callers, {"pkg.fix:reference"}
    )
    assert sorted(dead) == [
        "pkg.fix:dead",
        "pkg.fix:deeper",
        "pkg.fix:middle",
        "pkg.fix:oracle_only",
        "pkg.fix:reference",
    ]
    assert unset == ["pkg.fix:helper(flag)"]


#: A lazy loader's name table and strings that only spell a def's name.
STRINGS_SRC = {
    "pkg": """
_TABLE = ("Config",)


def __getattr__(name):
    if name in _TABLE:
        from . import lazy

        return getattr(lazy, name)
    raise AttributeError(name)
""",
    "pkg.lazy": """
class Config:
    def __init__(self, size=1, spare=2):
        self.size, self.spare = size, spare


def build():
    return Config(size=3)
""",
    "pkg.plain": """
class Helper:
    def held(self):
        return 0

    def looked_up(self):
        return 1


def use(helper):
    label = {"held": 1}
    return getattr(helper, "looked_up")(), label
""",
}


def test_strings_count_only_where_something_resolves_them():
    # The table entry keeps ``Config`` reachable but does not hide its
    # callers, so ``spare``, which none passes, is flagged; the dict key
    # "held" is text, so ``Helper.held`` is dead; the getattr string
    # still reaches ``looked_up``.
    callers = {f"src:{m}": text for m, text in STRINGS_SRC.items()}
    callers["examples/run.py"] = "build()\nuse(Helper())\n"
    dead, unset = scan(STRINGS_SRC, callers)
    assert sorted(dead) == ["pkg.plain:Helper.held"]
    assert unset == ["pkg.lazy:Config.__init__(spare)"]


def test_repo_scan_reads_only_the_package(tmp_path):
    # A stray module beside the package (a ``sitecustomize.py`` probe)
    # is neither scanned nor a caller.
    for root in CALLER_ROOTS:
        (tmp_path / root).mkdir(parents=True)
    (tmp_path / "src" / "sitecustomize.py").write_text("import repro\n")
    (tmp_path / "src" / "repro" / "mod.py").write_text(
        "def used():\n    pass\n\n\ndef unused():\n    pass\n"
    )
    (tmp_path / "examples" / "run.py").write_text("used()\n")
    dead, unset = _repo_scan(tmp_path)
    assert sorted(dead) == ["mod:unused"] and unset == []
