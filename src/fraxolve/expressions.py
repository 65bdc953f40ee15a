"""Arithmetic expressions for the problem data in config files.

Decimal literals, the variables x, y, t, the constant pi, binary + - * / and ^,
unary minus, parentheses and one-argument sin, cos, exp.  ``^`` is Python's
``**``, right-associative and tighter than a unary minus on its left (-2^2 = -4,
2^3^2 = 512); ``**`` itself, ``#`` and non-ASCII text are refused.  :mod:`ast`
parses the text and a whitelist of this grammar checks every node, so
attributes, other names or calls, keywords, comparisons and hex or underscored
literals raise ExpressionError.  The checked tree is compiled once and evaluated
without builtins, in a namespace of only x, y, t (float arrays), pi, sin, cos, exp.
"""

from __future__ import annotations

import ast
import math
import re
import warnings
from typing import Callable

import numpy as np

__all__ = ["parse_expression", "ExpressionError"]

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_VARS = ("x", "y", "t")
_GLOBALS = {"__builtins__": {}, "pi": math.pi, **_FUNCS}
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_DECIMAL = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_REFUSED = re.compile(r"[^\x01-\x7f]|#|\*\*")  # non-ASCII: NFKC reads a full-width x as x


class ExpressionError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (position {pos})")
        self.pos = pos


def _variables(body: ast.expr, text: str, src: str, at: list) -> frozenset:
    """The x, y, t that ``body`` uses; ExpressionError at its first node outside the grammar."""
    callees, names = set(), set()
    for node in ast.walk(body):  # a parent comes first, so a rejected one hides its children
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in _FUNCS and len(node.args) == 1 and not node.keywords:
            callees.add(node.func)
        elif isinstance(node, ast.Name) and (node.id in ("x", "y", "t", "pi") or node in callees):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float) \
                and _DECIMAL.fullmatch(src, node.col_offset, node.end_col_offset):
            node.value = float(src[node.col_offset:node.end_col_offset])
        elif not (isinstance(node, (ast.operator, ast.unaryop, ast.expr_context))
                  or isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS)
                  or isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)):
            start = at[node.col_offset]
            if isinstance(node, ast.Name):
                raise ExpressionError(f"unknown identifier {node.id!r}", start)
            raise ExpressionError(f"not allowed: {text[start:at[node.end_col_offset]]!r}", start)
    return frozenset(names.intersection(_VARS))


def parse_expression(text: str) -> Callable:
    """Compile an expression to ``fn(x=..., y=..., t=...) -> array``; ``fn.variables``
    is the set of the names x, y, t it references and ``fn.source`` the text."""
    if bad := _REFUSED.search(text):
        raise ExpressionError(f"{bad.group()!r} is not allowed (a power is ^)", bad.start())
    # blanks (newlines between tokens are allowed) and the leading zeros of an
    # integer part, which Python refuses in 07, become spaces of the same width
    body = re.sub(r"\s|(?<![\w.])(?<![eE][+-])0+(?=\d)", lambda z: " " * len(z[0]), text)
    lead, body = len(body) - len(body.lstrip()), body.strip()
    src = body.replace("^", "**")
    # at[k] is where src[k] sits in text (each '^' became two characters); at[-1] is the end
    at = [lead + i for i, c in enumerate(body) for _ in range(1 + (c == "^"))] + [lead + len(body)]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. SyntaxWarning "invalid decimal literal"
            tree = ast.parse(src, mode="eval")
        variables = _variables(tree.body, text, src, at)
        code = compile(tree, "<expression>", "eval")
    except SyntaxError as e:
        raise ExpressionError(e.msg, at[min((e.offset or 0) - 1, len(src))]) from None
    except (RecursionError, MemoryError, Warning) as e:  # nesting limits, stray warnings
        raise ExpressionError(f"cannot compile: {e}", 0) from None

    def fn(x=0.0, y=0.0, t=0.0):
        env = {name: np.asarray(v, dtype=float) for name, v in zip(_VARS, (x, y, t))}
        return eval(code, _GLOBALS, env)

    fn.source, fn.variables = text, variables
    return fn
