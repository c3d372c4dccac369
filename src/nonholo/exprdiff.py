"""Tiny scalar expression language with symbolic derivatives.

Potentials, constraint coefficients and deformation functions enter the
library as strings like ``"-y"`` or ``"v_x*v_y/(1+y^2)"``.  This module
parses them into immutable ASTs and evaluates them with one float tree
walk.  `derivative` differentiates a tree into another tree, with
constants folded; `gradient` and `hessian` build those trees once per
expression object and evaluate them with the same walk.

Grammar (EBNF, also reproduced in the README):

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" unary ] ;
    atom    = NUMBER | NAME | NAME "(" expr ")" | "(" expr ")" ;

``+ - * /`` are left-associative, ``^`` is right-associative and binds
tighter than unary minus (so ``-y^2`` is ``-(y^2)`` and ``y^-2`` is
``y^(-2)``).  Recognised functions: sin cos tan exp log tanh sqrt cot.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expression", "Num", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call",
    "ExprSyntaxError", "EvalError", "FUNCTION_NAMES",
    "parse", "evaluate", "derivative", "gradient", "hessian", "free_variables", "to_string",
]


class ExprSyntaxError(ValueError):
    """Raised on malformed input; carries the byte offset and what was expected."""

    def __init__(self, offset: int, expected: tuple[str, ...], found: str):
        self.offset = offset
        self.expected = expected
        super().__init__(
            f"syntax error at byte {offset}: expected {' or '.join(expected)}, found {found}"
        )


class EvalError(ValueError):
    """Unbound variable or a domain error (log of non-positive number, division by zero, ...)."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expression"


@dataclass(frozen=True)
class Add:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Sub:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Mul:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Div:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Pow:
    base: "Expression"
    exponent: "Expression"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expression"


Expression = Num | Var | Neg | Add | Sub | Mul | Div | Pow | Call

# cot's zero divisor, like every domain error, is caught by `_check_fn_domain`
_FUNCS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp, "log": math.log,
    "tanh": math.tanh, "sqrt": math.sqrt, "cot": lambda x: math.cos(x) / math.sin(x),
}
FUNCTION_NAMES = tuple(_FUNCS)

_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _fail(self, expected: tuple[str, ...]):
        found = repr(self.text[self.pos]) if self.pos < len(self.text) else "end of input"
        raise ExprSyntaxError(self.pos, expected, found)

    def _eat(self, ch: str) -> bool:
        if self._peek() == ch:
            self.pos += 1
            return True
        return False

    def parse(self) -> Expression:
        node = self.expr()
        self._skip_ws()
        if self.pos != len(self.text):
            self._fail(("operator", "end of input"))
        return node

    def expr(self) -> Expression:
        node = self.term()
        while True:
            if self._eat("+"):
                node = Add(node, self.term())
            elif self._eat("-"):
                node = Sub(node, self.term())
            else:
                return node

    def term(self) -> Expression:
        node = self.unary()
        while True:
            if self._eat("*"):
                node = Mul(node, self.unary())
            elif self._eat("/"):
                node = Div(node, self.unary())
            else:
                return node

    def unary(self) -> Expression:
        if self._eat("-"):
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expression:
        node = self.atom()
        if self._eat("^"):
            return Pow(node, self.unary())
        return node

    def atom(self) -> Expression:
        self._skip_ws()
        if self.pos >= len(self.text):
            self._fail(("number", "name", "'('"))
        m = _NUMBER_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return Num(float(m.group()))
        m = _NAME_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            name = m.group()
            if self._peek() == "(":
                if name not in _FUNCS:
                    raise ExprSyntaxError(m.start(), tuple(FUNCTION_NAMES), repr(name))
                self.pos += 1
                arg = self.expr()
                if not self._eat(")"):
                    self._fail(("')'",))
                return Call(name, arg)
            return Var(name)
        if self._eat("("):
            node = self.expr()
            if not self._eat(")"):
                self._fail(("')'",))
            return node
        self._fail(("number", "name", "'('"))


def parse(text: str) -> Expression:
    if not text or text.isspace():
        raise ExprSyntaxError(0, ("number", "name", "'('"), "empty input")
    return _Parser(text).parse()


def _eval_node(node: Expression, env: dict) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise EvalError(f"unbound variable {node.name!r}") from None
    if isinstance(node, Neg):
        return -_eval_node(node.operand, env)
    if isinstance(node, Add):
        return _eval_node(node.left, env) + _eval_node(node.right, env)
    if isinstance(node, Sub):
        return _eval_node(node.left, env) - _eval_node(node.right, env)
    if isinstance(node, Mul):
        return _eval_node(node.left, env) * _eval_node(node.right, env)
    if isinstance(node, Div):
        num = _eval_node(node.left, env)
        den = _eval_node(node.right, env)
        if den == 0.0:
            raise EvalError("division by zero")
        return num / den
    if isinstance(node, Pow):
        return _eval_pow(node, env)
    if isinstance(node, Call):
        arg = _eval_node(node.arg, env)
        _check_fn_domain(node.func, arg)
        try:
            return _FUNCS[node.func](arg)
        except OverflowError:
            raise EvalError(f"overflow in {node.func}") from None
        except ValueError:
            raise EvalError(f"{node.func} undefined at {arg!r}") from None
    raise TypeError(f"not an expression node: {node!r}")


def _check_fn_domain(func: str, x: float) -> None:
    if func == "log" and x <= 0.0:
        raise EvalError(f"log of non-positive value {x!r}")
    if func == "sqrt" and x < 0.0:
        raise EvalError(f"sqrt of negative value {x!r}")
    if func in ("tan", "cot") and not math.isfinite(x):
        raise EvalError(f"{func} of non-finite value")
    if func == "cot" and math.sin(x) == 0.0:
        raise EvalError(f"cot undefined at {x!r} (sin is zero)")


def _literal_int_exponent(node: Expression):
    """Integer value of an exponent written as a (possibly negated) literal."""
    sign = 1
    while isinstance(node, Neg):
        sign = -sign
        node = node.operand
    if isinstance(node, Num) and float(node.value).is_integer():
        return sign * int(node.value)
    return None


def _eval_pow(node: Pow, env: dict) -> float:
    base = _eval_node(node.base, env)
    # Integer exponents up to 8 go through repeated multiplication so that
    # polynomial data stays exact; larger ones through math.pow.  Both
    # accept negative bases.
    n = _literal_int_exponent(node.exponent)
    if n is not None and abs(n) <= 8:
        if n == 0:
            return 1.0
        acc = base
        for _ in range(abs(n) - 1):
            acc = acc * base
        if n < 0:
            if acc == 0.0:
                raise EvalError("division by zero")
            return 1.0 / acc
        return acc
    if n is None:
        expo = _eval_node(node.exponent, env)
        if base <= 0.0:
            raise EvalError(f"power with non-positive base {base!r} requires an integer exponent")
    try:
        return math.exp(math.log(base) * expo) if n is None else math.pow(base, n)
    except OverflowError:
        raise EvalError("overflow in power evaluation") from None
    except ValueError:  # math.pow of a zero base to a negative power
        raise EvalError("division by zero") from None


def _check_finite(value: float) -> float:
    if not math.isfinite(value):
        raise EvalError(f"evaluation produced a non-finite value ({value!r})")
    return value


def evaluate(expr: Expression, ctx: dict) -> float:
    """Evaluate `expr` with every free variable bound in `ctx` (name -> float)."""
    out = _eval_node(expr, {k: float(v) for k, v in ctx.items()})
    return _check_finite(float(out))


# --- symbolic derivatives --------------------------------------------------------
# The constructors fold constants: zero terms and factors 1 drop out, numbers
# combine.  The rules keep the operation order of forward-mode differentiation,
# (da*b) + (a*db) and (da - (a/b)*db) / b, so both give the same doubles.

_ZERO, _ONE, _TWO = Num(0.0), Num(1.0), Num(2.0)


def _fold(cls, a: Expression, b: Expression) -> Expression:
    """cls(a, b), or its value when both operands are numbers."""
    if isinstance(a, Num) and isinstance(b, Num) and not (cls is Div and b.value == 0.0):
        return Num(_eval_node(cls(a, b), {}))
    return cls(a, b)


def _neg(a: Expression) -> Expression:
    if isinstance(a, Num):
        return _ZERO if a.value == 0.0 else Num(-a.value)
    return Neg(a)


def _add(a: Expression, b: Expression) -> Expression:
    return b if a == _ZERO else a if b == _ZERO else _fold(Add, a, b)


def _sub(a: Expression, b: Expression) -> Expression:
    return a if b == _ZERO else _neg(b) if a == _ZERO else _fold(Sub, a, b)


def _mul(a: Expression, b: Expression) -> Expression:
    if a == _ZERO or b == _ZERO:
        return _ZERO
    return b if a == _ONE else a if b == _ONE else _fold(Mul, a, b)


def _quotient(a: Expression, b: Expression, da: Expression, db: Expression) -> Expression:
    """d(a/b) = (da - (a/b)*db) / b.

    With da = 0 the numerator stays 0 - (a/b)*db; -(a/b)*db would differ in
    the sign of a zero.
    """
    if db == _ZERO:
        return _ZERO if da == _ZERO else _fold(Div, da, b)
    return Div(Sub(da, _mul(Div(a, b), db)), b)


# f'(u) of each function, as a tree over its argument u
_DERIVATIVE_RULES = {
    "sin": lambda u: Call("cos", u),
    "cos": lambda u: Neg(Call("sin", u)),
    "tan": lambda u: Add(_ONE, Pow(Call("tan", u), _TWO)),
    "exp": lambda u: Call("exp", u),
    "log": lambda u: Div(_ONE, u),
    "tanh": lambda u: Sub(_ONE, Pow(Call("tanh", u), _TWO)),
    "sqrt": lambda u: Div(Num(0.5), Call("sqrt", u)),
    "cot": lambda u: Neg(Add(_ONE, Pow(Call("cot", u), _TWO))),
}


def _pow_derivative(node: Pow, name: str) -> Expression:
    """Differentiate the power as `_eval_pow` evaluates it."""
    b, n = node.base, _literal_int_exponent(node.exponent)
    if n is None:
        return derivative(Call("exp", Mul(Call("log", b), node.exponent)), name)
    if abs(n) > 8:
        return _mul(_mul(Num(float(n)), Pow(b, Num(float(n - 1)))), derivative(b, name))
    if n == 0:
        return _ZERO
    acc = b
    for _ in range(abs(n) - 1):
        acc = Mul(acc, b)
    return derivative(acc if n > 0 else Div(_ONE, acc), name)


def derivative(expr: Expression, name: str) -> Expression:
    """d expr / d name as an expression tree, constants folded.

    The tree is evaluated like any other; where `expr` is undefined it may
    be too, so `gradient` and `hessian` evaluate `expr` first.
    """
    if isinstance(expr, Num):
        return _ZERO
    if isinstance(expr, Var):
        return _ONE if expr.name == name else _ZERO
    if isinstance(expr, Neg):
        return _neg(derivative(expr.operand, name))
    if isinstance(expr, Call):
        darg = derivative(expr.arg, name)
        return _ZERO if darg == _ZERO else _mul(_DERIVATIVE_RULES[expr.func](expr.arg), darg)
    if isinstance(expr, Pow):
        return _pow_derivative(expr, name)
    a, b = expr.left, expr.right
    da, db = derivative(a, name), derivative(b, name)
    if isinstance(expr, Add):
        return _add(da, db)
    if isinstance(expr, Sub):
        return _sub(da, db)
    if isinstance(expr, Mul):
        return _add(_mul(da, b), _mul(a, db))
    return _quotient(a, b, da, db)


# (tree, derivative) by (id of the tree, name).  Each entry keeps its tree
# alive, so the id is never reused; keying by value would hash the whole
# tree on every call.
_DERIVATIVES: dict[tuple[int, str], tuple[Expression, Expression]] = {}


def _cached_derivative(expr: Expression, name: str) -> Expression:
    hit = _DERIVATIVES.get((id(expr), name))
    if hit is None:
        hit = _DERIVATIVES[id(expr), name] = (expr, derivative(expr, name))
    return hit[1]


def _checked_env(expr: Expression, wrt: list[str], ctx: dict) -> dict:
    """Float bindings of ctx, after `expr` itself evaluated to a finite value there."""
    env = {k: float(v) for k, v in ctx.items()}
    for name in wrt:
        if name not in env:
            raise EvalError(f"unbound variable {name!r}")
    _check_finite(_eval_node(expr, env))
    return env


def gradient(expr: Expression, wrt: list[str], ctx: dict) -> np.ndarray:
    """First derivatives of `expr` with respect to the listed names, at `ctx`."""
    env = _checked_env(expr, wrt, ctx)
    out = [_eval_node(_cached_derivative(expr, name), env) for name in wrt]
    if not all(map(math.isfinite, out)):
        raise EvalError("gradient produced a non-finite value")
    return np.array(out, dtype=float)


def hessian(expr: Expression, wrt: list[str], ctx: dict) -> np.ndarray:
    """Second-derivative matrix of `expr`: the upper triangle, mirrored."""
    env = _checked_env(expr, wrt, ctx)
    k = len(wrt)
    out = np.empty((k, k))
    for i in range(k):
        first = _cached_derivative(expr, wrt[i])
        for j in range(i, k):
            out[i, j] = out[j, i] = _eval_node(_cached_derivative(first, wrt[j]), env)
    if not np.all(np.isfinite(out)):
        raise EvalError("hessian produced a non-finite value")
    return out


def free_variables(expr: Expression) -> set[str]:
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Num):
        return set()
    if isinstance(expr, Neg):
        return free_variables(expr.operand)
    if isinstance(expr, Call):
        return free_variables(expr.arg)
    if isinstance(expr, Pow):
        return free_variables(expr.base) | free_variables(expr.exponent)
    return free_variables(expr.left) | free_variables(expr.right)


_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4, Num: 5, Var: 5, Call: 5}


def _prec(node: Expression) -> int:
    return _PREC[type(node)]


def to_string(expr: Expression) -> str:
    """Render with the fewest parentheses that still round-trip the tree."""
    if isinstance(expr, Num):
        v = expr.value
        if float(v).is_integer() and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Call):
        return f"{expr.func}({to_string(expr.arg)})"
    if isinstance(expr, Neg):
        inner = to_string(expr.operand)
        if _prec(expr.operand) < _PREC[Neg]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expr, Pow):
        left = to_string(expr.base)
        if _prec(expr.base) <= _PREC[Pow]:
            left = f"({left})"
        right = to_string(expr.exponent)
        if _prec(expr.exponent) < _PREC[Neg]:
            right = f"({right})"
        return f"{left}^{right}"
    op = {Add: "+", Sub: "-", Mul: "*", Div: "/"}[type(expr)]
    mine = _prec(expr)
    left = to_string(expr.left)
    if _prec(expr.left) < mine:
        left = f"({left})"
    right = to_string(expr.right)
    if _prec(expr.right) <= mine:
        right = f"({right})"
    return f"{left}{op}{right}"
