"""A small arithmetic expression grammar for problem definitions in config files.

Identifiers x, y, t; operators + - * / ^; functions sin, cos, exp;
constant pi.  Compiles to a numpy-vectorized callable.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["parse_expression", "ExpressionError"]

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_VARS = ("x", "y", "t")


class ExpressionError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (position {pos})")
        self.pos = pos


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] in ".eE" or
                             (text[j] in "+-" and j > i and text[j - 1] in "eE")):
                j += 1
            try:
                val = float(text[i:j])
            except ValueError:
                raise ExpressionError(f"bad number {text[i:j]!r}", i) from None
            tokens.append(("num", val, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ExpressionError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def take(self, kind=None):
        tok = self.tokens[self.k]
        if kind is not None and tok[0] != kind:
            raise ExpressionError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.k += 1
        return tok

    # expr := term (('+'|'-') term)*
    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            node = (lambda a, b: (lambda env: a(env) + b(env)))(node, rhs) if op == "+" \
                else (lambda a, b: (lambda env: a(env) - b(env)))(node, rhs)
        return node

    # term := unary (('*'|'/') unary)*
    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            rhs = self.unary()
            node = (lambda a, b: (lambda env: a(env) * b(env)))(node, rhs) if op == "*" \
                else (lambda a, b: (lambda env: a(env) / b(env)))(node, rhs)
        return node

    # unary := '-' unary | power
    def unary(self):
        if self.peek()[0] == "-":
            self.take()
            inner = self.unary()
            return lambda env: -inner(env)
        return self.power()

    # power := atom ('^' unary)?   (right-associative)
    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            exponent = self.unary()
            return lambda env: base(env) ** exponent(env)
        return base

    def atom(self):
        kind, val, pos = self.peek()
        if kind == "num":
            self.take()
            return lambda env, _v=val: _v
        if kind == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        if kind == "name":
            self.take()
            if val == "pi":
                return lambda env: math.pi
            if val in _VARS:
                return lambda env, _v=val: env[_v]
            if val in _FUNCS:
                self.take("(")
                arg = self.expr()
                self.take(")")
                return lambda env, _f=_FUNCS[val]: _f(arg(env))
            raise ExpressionError(f"unknown identifier {val!r}", pos)
        raise ExpressionError(f"unexpected token {val!r}", pos)


def parse_expression(text: str) -> Callable:
    """Compile an expression to ``fn(x=..., y=..., t=...) -> array``.

    ``fn.variables`` is the set of the names x, y, t the expression references.
    """
    p = _Parser(text)
    node = p.expr()
    p.take("end")

    def fn(x=0.0, y=0.0, t=0.0):
        return node({"x": np.asarray(x, dtype=float), "y": np.asarray(y, dtype=float),
                     "t": np.asarray(t, dtype=float)})

    fn.source = text
    fn.variables = frozenset(v for kind, v, _ in p.tokens if kind == "name" and v in _VARS)
    return fn
