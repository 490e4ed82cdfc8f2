"""Safe evaluation of clause expressions.

The paper's clauses carry C expressions evaluated per process
(``sender(rank-1)``, ``sendwhen(rank%2==0)``). The static analyses
(:mod:`repro.core.analysis.dataflow`) evaluate those expressions for
every rank to recover the concrete communication pattern — the
"source and destination information ... incorporated into an analysis
framework" of Section I. Evaluation is sandboxed: the expression is
parsed to an AST and only arithmetic/comparison/boolean nodes and
whitelisted names are allowed.

Those analyses evaluate the same few strings once per rank, so each
string is translated, parsed, whitelist-checked and compiled once and
kept in a bounded memo (:func:`_compiled`) as a code object plus the
set of names it reads. A call then only checks that every one of
those names is bound in *its own* ``variables`` and runs ``eval``.
Values are never cached. When a call fails — bad syntax, unsupported
syntax, or a name this call does not bind — the full validation walk
runs again with this call's bindings, so the exception and its
message are the same on every call.
"""

from __future__ import annotations

import ast
import functools
from typing import Any

from repro.errors import ClauseError, PragmaSyntaxError

#: AST node types clause expressions may contain.
_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.BoolOp, ast.Compare,
    ast.Name, ast.Load, ast.Constant, ast.IfExp,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
    ast.LShift, ast.RShift, ast.BitAnd, ast.BitOr, ast.BitXor,
    ast.USub, ast.UAdd, ast.Not, ast.Invert,
    ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE,
    ast.And, ast.Or,
)


def c_to_python(expr: str) -> str:
    """Translate the C operators clause expressions use to Python.

    Handles ``&&``, ``||`` and prefix ``!`` (but not ``!=``). Ternaries
    (``a ? b : c``) are not supported — the paper's examples never use
    them.
    """
    out: list[str] = []
    i = 0
    n = len(expr)
    while i < n:
        two = expr[i:i + 2]
        if two == "&&":
            out.append(" and ")
            i += 2
        elif two == "||":
            out.append(" or ")
            i += 2
        elif two == "!=":
            out.append("!=")
            i += 2
        elif expr[i] == "!":
            out.append(" not ")
            i += 1
        elif expr[i] == "?" or (expr[i] == ":" and ")" not in expr[i:]):
            raise PragmaSyntaxError(
                f"C ternary operator is not supported in clause "
                f"expressions: {expr!r}")
        else:
            out.append(expr[i])
            i += 1
    return "".join(out)


def _parse(expr: str) -> ast.Expression:
    py = c_to_python(expr).strip()
    try:
        return ast.parse(py, mode="eval")
    except SyntaxError as exc:
        raise PragmaSyntaxError(
            f"cannot parse clause expression {expr!r}: {exc.msg}") from exc


def _validate(expr: str, variables: dict[str, Any]) -> None:
    """The whitelist walk; raises on the first offending node."""
    for node in ast.walk(_parse(expr)):
        if not isinstance(node, _ALLOWED_NODES):
            raise PragmaSyntaxError(
                f"clause expression {expr!r} uses unsupported syntax "
                f"({type(node).__name__})")
        if isinstance(node, ast.Name) and node.id not in variables:
            raise PragmaSyntaxError(
                f"clause expression {expr!r} references unknown name "
                f"{node.id!r}; known: {sorted(variables)}")


@functools.lru_cache(maxsize=1024)
def _compiled(expr: str) -> tuple[Any, frozenset[str]] | None:
    """``(code, free names)`` of a whitelisted expression, else None."""
    try:
        tree = _parse(expr)
    except PragmaSyntaxError:
        return None
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            return None
        if isinstance(node, ast.Name):
            names.add(node.id)
    return compile(tree, "<clause>", "eval"), frozenset(names)


def evaluate(expr: str, variables: dict[str, Any]) -> Any:
    """Evaluate a clause expression under the given variable bindings.

    >>> evaluate("(rank+1)%nprocs", {"rank": 3, "nprocs": 4})
    0
    >>> evaluate("rank%2==0 && rank>0", {"rank": 2})
    True

    An arithmetic error (division by zero, overflow) raises
    :class:`~repro.errors.ClauseError` naming the expression.
    """
    entry = _compiled(expr)
    if entry is None or not entry[1] <= variables.keys():
        _validate(expr, variables)
        raise AssertionError("unreachable: the walk above raises")
    # The whitelist admits no store, so ``variables`` can serve as the
    # locals mapping directly: evaluation never writes to it.
    try:
        return eval(entry[0], {"__builtins__": {}},  # noqa: S307 - sandboxed
                    variables)
    except ArithmeticError as exc:
        raise ClauseError(f"arithmetic error in clause expression "
                          f"{expr!r}: {exc}") from exc


def free_names(expr: str) -> set[str]:
    """The variable names an expression references."""
    entry = _compiled(expr)
    if entry is not None:
        return set(entry[1])
    return {n.id for n in ast.walk(_parse(expr))
            if isinstance(n, ast.Name)}
