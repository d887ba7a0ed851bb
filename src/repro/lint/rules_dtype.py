"""Dtype-exactness rules for the integer descent / incremental kernels.

The PR 6 fused descent kernel's bit-identity argument is an *exact
integer* argument: counts live in int64 (or uint32 in the gathered
store, chosen explicitly when the level maximum fits), thresholds are
int64, and the only floats are the pre-drawn float64 uniforms — so
every comparison is exact and the fused path can promise byte-equality
with the scalar reference recursion (``docs/architecture.md``).  The PR 9 incremental
frontier recomputation — the shared level kernel run on the touched
columns — makes the same promise against a fresh rebuild.

That argument dies quietly if an array is built without an explicit
dtype: ``np.arange(n)`` is C ``long`` — int32 on Windows/some 32-bit
platforms — and ``astype(int)`` inherits the same platform dependence,
while any float32 narrows the uniforms below the exactness bar.  These
rules pin the contract in ``colorcoding/urn.py``,
``colorcoding/incremental.py`` and ``colorcoding/level.py``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.lint.core import FileContext, Finding, Rule, dotted_name

__all__ = ["DtypeExplicitRule", "DtypeExactRule"]

#: Files owning the exact-integer kernel contract.
_KERNEL_FILES = ("urn.py", "incremental.py", "level.py")

#: numpy constructors that take a dtype, with the positional index at
#: which one may appear (keyword ``dtype=`` always counts).
_CONSTRUCTOR_DTYPE_POS = {
    "array": 1,
    "asarray": 1,
    "zeros": 1,
    "ones": 1,
    "empty": 1,
    "full": 2,
    "fromiter": 1,
    "frombuffer": 1,
    "arange": 3,
}

_NP_MODULES = ("np", "numpy")

#: dtype expressions that are platform-dependent (C long width).
_PLATFORM_NAMES = frozenset({"int", "float"})
_PLATFORM_STRINGS = frozenset({"int", "float", "long"})
_PLATFORM_ATTRS = frozenset(
    {f"{m}.{a}" for m in _NP_MODULES for a in ("int_", "intc", "longlong")}
)

#: dtype expressions narrower than the float64 exactness bar.
_NARROW_STRINGS = frozenset({"float32", "float16", "single", "half"})
_NARROW_ATTRS = frozenset(
    {
        f"{m}.{a}"
        for m in _NP_MODULES
        for a in ("float32", "float16", "single", "half")
    }
)


def _constructor(call: ast.Call) -> Optional[str]:
    """``np.zeros`` → ``zeros`` when the call is a numpy constructor."""
    name = dotted_name(call.func)
    if name is None:
        return None
    for module in _NP_MODULES:
        prefix = module + "."
        if name.startswith(prefix):
            tail = name[len(prefix):]
            if tail in _CONSTRUCTOR_DTYPE_POS:
                return tail
    return None


def _dtype_expr(call: ast.Call) -> Tuple[bool, Optional[ast.AST]]:
    """``(is_astype, dtype_expression_or_None)`` for a relevant call."""
    for keyword in call.keywords:
        if keyword.arg == "dtype":
            return False, keyword.value
    if (
        isinstance(call.func, ast.Attribute)
        and call.func.attr == "astype"
    ):
        return True, call.args[0] if call.args else None
    name = _constructor(call)
    if name is not None:
        position = _CONSTRUCTOR_DTYPE_POS[name]
        if len(call.args) > position:
            return False, call.args[position]
        return False, None
    raise LookupError  # not a dtype-bearing call


class _KernelRule(Rule):
    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_package("colorcoding") and ctx.name in _KERNEL_FILES


class DtypeExplicitRule(_KernelRule):
    """REPRO-X001: array constructors in kernels need an explicit dtype.

    Enforces the PR 6 exact-integer contract (``docs/architecture.md``:
    fused descent is bit-identical to the scalar recursion because every
    array's width is chosen, not inherited): in ``colorcoding/urn.py``,
    ``incremental.py`` and ``level.py``, ``np.arange``/``np.zeros``/...
    without ``dtype=`` default to platform-dependent widths.
    """

    rule_id = "REPRO-X001"
    title = "dtype-less array constructor in an exact-integer kernel"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"
            ):
                if not node.args and not any(
                    keyword.arg == "dtype" for keyword in node.keywords
                ):
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        "astype without a dtype argument in an "
                        "exact-integer kernel",
                    )
                continue
            name = _constructor(node)
            if name is None:
                continue
            try:
                _, expr = _dtype_expr(node)
            except LookupError:  # pragma: no cover - name checked above
                continue
            if expr is None:
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"np.{name} without an explicit dtype; the default is "
                    "platform-dependent and the fused-kernel bit-identity "
                    "argument needs exact widths (PR 6/PR 9)",
                )


class DtypeExactRule(_KernelRule):
    """REPRO-X002: platform-dependent or narrowed dtypes in kernels.

    The same PR 6/PR 9 exactness contract from the other side: even an
    *explicit* dtype breaks bit-identity when it is ``int``/``np.intc``
    (C ``long``/``int`` width varies by platform) or any float32/16
    form (narrower than the float64 uniforms the descent thresholds
    are compared against).
    """

    rule_id = "REPRO-X002"
    title = "platform-dependent or narrowed dtype in an exact-integer kernel"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                name = dotted_name(node)
                if name in _NARROW_ATTRS:
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"{name} in an exact-integer kernel; uniforms and "
                        "thresholds must stay float64/int64 for the "
                        "bit-identity argument (PR 6)",
                    )
                continue
            if not isinstance(node, ast.Call):
                continue
            try:
                _, expr = _dtype_expr(node)
            except LookupError:
                continue
            if expr is None:
                continue
            yield from self._check_dtype(ctx, expr)

    def _check_dtype(
        self, ctx: FileContext, expr: ast.AST
    ) -> Iterator[Finding]:
        if isinstance(expr, ast.Name) and expr.id in _PLATFORM_NAMES:
            yield ctx.finding(
                self.rule_id,
                expr,
                f"dtype={expr.id} maps to a platform-dependent width "
                "(C long); spell the exact numpy dtype (np.int64 / "
                "np.float64)",
            )
        elif isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            if expr.value in _PLATFORM_STRINGS:
                yield ctx.finding(
                    self.rule_id,
                    expr,
                    f"dtype={expr.value!r} is platform-dependent; spell "
                    "the exact numpy dtype (np.int64 / np.float64)",
                )
            elif expr.value in _NARROW_STRINGS:
                yield ctx.finding(
                    self.rule_id,
                    expr,
                    f"dtype={expr.value!r} narrows below the float64 "
                    "exactness bar (PR 6 bit-identity argument)",
                )
        elif isinstance(expr, ast.Attribute):
            name = dotted_name(expr)
            if name in _PLATFORM_ATTRS:
                yield ctx.finding(
                    self.rule_id,
                    expr,
                    f"dtype={name} is platform-dependent (C int/long "
                    "width); use np.int32/np.int64 explicitly",
                )
            # narrow attrs are caught by the standalone Attribute walk
