"""Ratchet: every SIMD-dispatched transcendental call in ``src/``.

NumPy picks ``exp``, ``log``, ``power``, ``tanh`` and the other
transcendental ufuncs' kernels at run time by CPU feature (AVX-512,
AVX2 or baseline), and those kernels may differ in the last bit.  A
value that feeds a digest must therefore never come from one, or the
golden digests would depend on the host.  This test lists every such
call under ``src/repro`` against :data:`ALLOWED`, one reason each: why
the call cannot move a digest.  A new call fails until it is given a
reason, and an entry whose call is gone fails as stale.

The scan reads ``np.<ufunc>(...)`` and ``numpy.<ufunc>(...)`` calls.
An array ``**`` with an exponent other than 2, 0.5 or -1 also reaches
``np.power``; it is not visible to a name scan, so keep digest paths to
those exponents.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: NumPy ufuncs whose float kernels are dispatched by CPU feature.
TRANSCENDENTALS = frozenset(
    """exp exp2 expm1 log log2 log10 log1p power float_power cbrt
    sin cos tan arcsin arccos arctan arctan2
    sinh cosh tanh arcsinh arccosh arctanh""".split()
)

#: ``module:function:ufunc`` (module relative to ``repro``) → why the
#: call cannot move a digest.
ALLOWED: dict[str, str] = {
    "solver.state:jet_flow:exp": (
        "the jet's velocity profile: no digest or golden file reads a "
        "jet state"
    ),
    "solver.state:jet_flow:tanh": (
        "the jet's downstream decay: no digest or golden file reads a "
        "jet state"
    ),
    "graph.coarsen:heavy_edge_matching:log2": (
        "an integer round cap from a vertex count: ceil of log2 of an "
        "integer below 2**53 lands on the same integer on every kernel"
    ),
    "graph.partition:recursive_bisection:log2": (
        "the tree depth from the part count: ceil of log2 of a small "
        "integer lands on the same integer on every kernel"
    ),
}


def scan(root: Path = ROOT) -> dict[str, int]:
    """``module:function:ufunc`` → number of calls, for every
    transcendental call under ``root/src/repro`` (``module::ufunc`` at
    module level)."""
    found: dict[str, int] = {}
    package = root / "src" / "repro"
    for path in sorted(package.rglob("*.py")):
        module = ".".join(
            p for p in path.relative_to(package).with_suffix("").parts
            if p != "__init__"
        )
        tree = ast.parse(path.read_text(encoding="utf-8"))
        stack = [(tree, "")]
        while stack:
            node, scope = stack.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                scope = node.name if scope == "" else f"{scope}.{node.name}"
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")
                and node.func.attr in TRANSCENDENTALS
            ):
                key = f"{module}:{scope}:{node.func.attr}"
                found[key] = found.get(key, 0) + 1
            stack.extend((c, scope) for c in ast.iter_child_nodes(node))
    return found


def test_every_transcendental_call_has_a_reason():
    found = scan()
    assert sorted(set(found) - set(ALLOWED)) == [], "no reason given"
    assert sorted(set(ALLOWED) - set(found)) == [], "stale entries"
