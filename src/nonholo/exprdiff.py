"""Tiny scalar expression language with symbolic derivatives.

Potentials, constraint coefficients and deformation functions enter the
library as strings like ``"-y"`` or ``"v_x*v_y/(1+y^2)"``.  This module
parses them into immutable ASTs.  `derivative` differentiates a tree into
another tree, with constants folded.  `evaluate`, `gradient` and `hessian`
compile an expression (or a tuple of them) together with its derivative
trees into one straight-line Python function, built on first use and
cached, whose doubles and errors are those of the reference tree walk
`_eval_node`.  The same three functions take the bindings of a stack of
points, `Columns` (each name bound to a column of values), and give each
point's result on a leading axis: in one numpy pass (the column kernel)
when every operation is in the exact subset that numpy computes to math's
bits, and with the per-row function on each row otherwise and on a stack of
one row, where the column kernel's fixed cost would exceed it; the doubles
and errors are the same either way.  `field` is one per-row function for
the values and gradients of a tuple and the gradient of one more
expression: a system's mu, dmu and grad V at one point in one call.

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

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expression", "Num", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call",
    "ExprSyntaxError", "EvalError", "FUNCTION_NAMES", "Columns",
    "parse", "evaluate", "derivative", "gradient", "hessian", "field",
    "free_variables", "to_string",
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


# --- guarded primitives -----------------------------------------------------------
# Every domain check of the language lives in these helpers.  The tree walk
# and the compiled kernels both call them, so both raise the same EvalErrors.


def _check_fn_domain(func: str, x: float) -> None:
    if func == "log" and x <= 0.0:
        raise EvalError(f"log of non-positive value {x!r}")
    if func == "sqrt" and x < 0.0:
        raise EvalError(f"sqrt of negative value {x!r}")
    if func in ("tan", "cot") and not math.isfinite(x):
        raise EvalError(f"{func} of non-finite value")
    if func == "cot" and math.sin(x) == 0.0:
        raise EvalError(f"cot undefined at {x!r} (sin is zero)")


def _guard(func: str, fn):
    """fn with the domain check of `func`, overflow and math errors as EvalErrors."""
    checked = func in ("tan", "log", "sqrt", "cot")

    def guarded(x):
        if checked:
            _check_fn_domain(func, x)
        try:
            return fn(x)
        except OverflowError:
            raise EvalError(f"overflow in {func}") from None
        except ValueError:
            raise EvalError(f"{func} undefined at {x!r}") from None

    return guarded


# cot's zero divisor, like every domain error, is caught by `_check_fn_domain`
_FUNCS = {
    name: _guard(name, fn)
    for name, fn in {
        "sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp, "log": math.log,
        "tanh": math.tanh, "sqrt": math.sqrt, "cot": lambda x: math.cos(x) / math.sin(x),
    }.items()
}
FUNCTION_NAMES = tuple(_FUNCS)


def _div(num: float, den: float) -> float:
    if den == 0.0:
        raise EvalError("division by zero")
    return num / den


def _ipow(base: float, n: int) -> float:
    """base^n for a literal integer exponent with |n| > 8."""
    try:
        return math.pow(base, n)
    except OverflowError:
        raise EvalError("overflow in power evaluation") from None
    except ValueError:  # math.pow of a zero base to a negative power
        raise EvalError("division by zero") from None


def _pow(base: float, expo: float) -> float:
    """base^expo for any other exponent, as exp(log(base) * expo)."""
    if base <= 0.0:
        raise EvalError(f"power with non-positive base {base!r} requires an integer exponent")
    try:
        return math.exp(math.log(base) * expo)
    except OverflowError:
        raise EvalError("overflow in power evaluation") from None


def _check_finite(value: float) -> float:
    if not math.isfinite(value):
        raise EvalError(f"evaluation produced a non-finite value ({value!r})")
    return value


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
    """The reference tree walk; the compiled kernels reproduce it bit for bit."""
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
        return _div(_eval_node(node.left, env), _eval_node(node.right, env))
    if isinstance(node, Pow):
        return _eval_pow(node, env)
    if isinstance(node, Call):
        return _FUNCS[node.func](_eval_node(node.arg, env))
    raise TypeError(f"not an expression node: {node!r}")


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
    if n is None:
        return _pow(base, _eval_node(node.exponent, env))
    if abs(n) > 8:
        return _ipow(base, n)
    if n == 0:
        return 1.0
    acc = base
    for _ in range(abs(n) - 1):
        acc = acc * base
    return acc if n > 0 else _div(1.0, acc)


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


# --- compiled kernels ------------------------------------------------------------
# `evaluate`, `gradient` and `hessian` run straight-line Python generated
# from the expression and its derivative trees (source-transformation
# differentiation).  Each node becomes one statement over the same guarded
# helpers, in the tree walk's order, so a kernel gives the walk's doubles
# and raises its EvalErrors at the same points.  Identical subtrees, within
# one tree or across the value and the derivatives, are computed once.
#
# At `Columns`, the same statements are compiled a second time as a column
# kernel, each name bound to a numpy column of a stack of bindings (vector-mode
# source transformation).  numpy gives math's bits only on an exact subset:
# + - * /, literal integer powers |n| <= 8 (unrolled to products), and sin,
# cos, sqrt and cot where the probe below finds numpy equal to math.  A tree
# outside the subset (exp, log, tan, tanh, other powers) has no column
# kernel and runs the per-row kernel on each row.  A one-row stack runs the
# per-row kernel too: one numpy dispatch per statement costs more than one
# row in Python, so its column kernel is never built.
#
# The "field" kernel strings the statements of a "value" kernel, a
# "gradient" kernel of the same tuple and a "gradient" kernel of one more
# expression together.  A statement shared with an earlier one is not
# repeated, nor the check of a local already checked; neither can change a
# result or the first error, so one call gives the three calls' results.

# Probe points of the numpy/math comparison: signed zeros, the smallest
# subnormal and normal, the largest double, one point every five decades
# and a sweep over the first ten periods.  Python floats, so that importing
# this module runs no numpy loop.
_PROBE = [0.0, 5e-324, 2.2250738585072014e-308, 1e22, 1.7976931348623157e308,
          *(10.0**k for k in range(-300, 301, 5)), *(k / 4.0 for k in range(257))]
_PROBE += [-v for v in _PROBE]


def _column_functions(numpy_fns: dict) -> frozenset:
    """The functions (name -> numpy ufunc) that give math's bits at every probe point.

    sqrt is probed where it is defined, -0.0 included; cot = cos / sin
    joins when both sin and cos do.
    """
    same = set()
    for name, fn in numpy_fns.items():
        x = [v for v in _PROBE if v >= 0.0] if name == "sqrt" else _PROBE
        want = np.array([getattr(math, name)(v) for v in x])
        if fn(np.array(x)).tobytes() == want.tobytes():
            same.add(name)
    return frozenset(same | ({"cot"} if {"sin", "cos"} <= same else set()))


@functools.cache
def _column_funcs() -> frozenset:
    """The functions with a column form, probed once, when the first column kernel is built.

    A process that evaluates no stack never loads numpy's sin, cos and sqrt loops.
    """
    return _column_functions({"sin": np.sin, "cos": np.cos, "sqrt": np.sqrt})


class _Inexact(Exception):
    """A tree outside the exact subset of the column kernel."""


_KERNEL_GLOBALS = {
    "EvalError": EvalError, "_check_finite": _check_finite,
    "_div": _div, "_ipow": _ipow, "_pow": _pow, "np": np,
    **{f"_{name}": fn for name, fn in _FUNCS.items()},
}


def _kernel_source(kind: str, exprs: tuple, wrt: tuple, columns: bool = False) -> tuple[str, dict]:
    """Source of `kind` ("value", "gradient", "hessian" or "field") of exprs, and its globals.

    The kernel takes the bindings (name -> number) and returns the flat
    tuple of results: per expression its value, its gradient over wrt, or
    its Hessian over wrt row by row, the lower triangle mirrored from the
    upper; "field" the results of `field`.

    With `columns`, the column kernel instead: it takes the `Columns` of a
    stack of B points and returns the (B, k) array of the same results.  It
    raises no EvalError, only the KeyError of a name the stack does not
    bind.  It returns None where any row would raise in the per-row kernel:
    a zero divisor, or a checked local that is not finite (the value a
    gradient checks but does not return, and the base of a ^0, included).
    Every other failure of the per-row kernel makes a NaN, which reaches one
    of those locals.  A tree outside the exact subset raises _Inexact.
    """
    namespace = dict(_KERNEL_GLOBALS)
    lines: list[str] = []
    temps: dict[str, str] = {}  # right-hand side -> the local holding it
    divisors: list[str] = []  # column kernel: each must be nonzero in every row
    checked: list[str] = []  # column kernel: each must be finite in every row
    passed: set[str] = set()  # the locals checked so far

    def local(rhs: str) -> str:
        if rhs not in temps:
            temps[rhs] = f"t{len(temps)}"
            lines.append(f"{temps[rhs]} = {rhs}")
        return temps[rhs]

    def divide(num: str, den: str) -> str:
        if not columns:
            return f"_div({num}, {den})"
        divisors.append(den)
        return f"np.divide({num}, {den})"  # no ZeroDivisionError where both are Python floats

    def emit(node: Expression) -> str:
        """A literal or a local holding node's value, after the statements computing it."""
        if isinstance(node, Num):
            v = node.value
            if type(v) is not float or not math.isfinite(v):  # no exact literal
                name = f"_k{len(namespace)}"
                namespace[name] = v
                return name
            return f"({v!r})" if math.copysign(1.0, v) < 0.0 else repr(v)
        if isinstance(node, Var):
            rhs = f"ctx[{node.name!r}]" if columns else f"float(ctx[{node.name!r}])"
        elif isinstance(node, Neg):
            rhs = f"-{emit(node.operand)}"
        elif isinstance(node, Call):
            arg = emit(node.arg)
            if not columns:
                rhs = f"_{node.func}({arg})"
            elif node.func not in _column_funcs():
                raise _Inexact(node.func)
            elif node.func == "cot":
                rhs = divide(local(f"np.cos({arg})"), local(f"np.sin({arg})"))
            else:
                rhs = f"np.{node.func}({arg})"
        elif isinstance(node, Pow):
            base, n = emit(node.base), _literal_int_exponent(node.exponent)
            if n is None or abs(n) > 8:
                if columns:
                    raise _Inexact("power")
                rhs = f"_pow({base}, {emit(node.exponent)})" if n is None else f"_ipow({base}, {n})"
            elif n in (0, 1):
                if n == 0 and columns:  # the per-row kernel evaluates the base it drops
                    check([base], None)
                return "1.0" if n == 0 else base
            else:
                product = " * ".join([base] * abs(n))  # left to right, as the walk multiplies
                rhs = product if n > 0 else divide("1.0", local(product))
        else:
            left, right = emit(node.left), emit(node.right)
            if isinstance(node, Div):
                # a nonzero float literal needs no zero test
                d = node.right
                plain = isinstance(d, Num) and type(d.value) is float and d.value != 0.0
                rhs = f"{left} / {right}" if plain else divide(left, right)
            else:
                op = {Add: "+", Sub: "-", Mul: "*"}[type(node)]
                rhs = f"{left} {op} {right}"
        return local(rhs)

    def check(outs: list[str], message: str | None) -> None:
        # x - x is 0.0 for a finite x and nan, which is true, otherwise;
        # literals are finite and need no test, nor a local checked before
        computed = set(temps.values()).union(namespace)
        live = [o for o in dict.fromkeys(outs) if o in computed and o not in passed]
        passed.update(live)
        if columns:
            checked.extend(live)
        elif live:
            test = " or ".join(f"{o} - {o}" for o in live)
            lines.append(f"if {test}: {message}")

    def values(exprs) -> list[str]:
        out = []
        for expr in exprs:
            out.append(emit(expr))
            check(out[-1:], f"_check_finite({out[-1]})")
        return out

    def derivatives(exprs, hessian: bool = False) -> list[str]:
        if exprs:  # an unbound name in wrt fails before anything is evaluated
            for name in wrt:
                emit(Var(name))
        out = []
        for expr in exprs:
            values([expr])
            firsts = [derivative(expr, name) for name in wrt]
            if not hessian:
                grad = [emit(d) for d in firsts]
                check(grad, "raise EvalError('gradient produced a non-finite value')")
                out += grad
                continue
            k = len(wrt)
            upper = {(i, j): emit(derivative(firsts[i], wrt[j])) for i in range(k) for j in range(i, k)}
            check(list(upper.values()), "raise EvalError('hessian produced a non-finite value')")
            out += [upper[min(i, j), max(i, j)] for i in range(k) for j in range(k)]
        return out

    if kind == "value":
        results = values(exprs)
    elif kind == "field":
        results = values(exprs[:-1]) + derivatives(exprs[:-1]) + derivatives(exprs[-1:])
    else:
        results = derivatives(exprs, hessian=kind == "hessian")
    if not columns:
        lines.append(f"return ({''.join(r + ', ' for r in results)})")
    else:
        # One array holds the results, then the checked locals the kernel
        # does not return (every returned local is checked), so that one
        # test covers them all; the literals (a float's repr, a negative one
        # in parentheses) go in by one broadcast of a constant row.
        computed = set(temps.values()).union(namespace)
        cells = results + [c for c in checked if c not in results]
        namespace["_row"] = np.array([0.0 if c in computed else float(c.strip("()")) for c in cells])
        lines.append(f"out = np.empty((len(ctx.rows), {len(cells)}))")
        lines.append("out[:] = _row")
        lines += [f"out[:, {j}] = {c}" for j, c in enumerate(cells) if c in computed]
        tests = ["np.isfinite(out).all()", *(f"np.all({d})" for d in dict.fromkeys(divisors))]
        view = "out" if len(cells) == len(results) else f"out[:, :{len(results)}]"
        lines.append(f"return {view} if {' and '.join(tests)} else None")
    body = "".join(f"    {line}\n" for line in lines)
    return f"def kernel(ctx):\n{body}", namespace


def _compile(kind: str, exprs: tuple, wrt: tuple, columns: bool = False):
    """The kernel, or with `columns` the column kernel, None outside the exact subset."""
    try:
        source, namespace = _kernel_source(kind, exprs, wrt, columns)
    except _Inexact:
        return None
    label = "column kernel" if columns else "kernel"
    exec(compile(source, f"<exprdiff {kind} {label}>", "exec"), namespace)
    return namespace["kernel"]


# Kernels by (kind, id of the expression or tuple, wrt, columns), oldest
# first.  Each entry holds the object whose id
# it is keyed on, so the id cannot be reused while the entry lives; keying
# by value would hash the whole tree per call.  The cache is bounded because
# a process may build systems without end.
KERNEL_CACHE_SIZE = 32
_KERNELS: dict[tuple, tuple] = {}


def _kernel(kind: str, expr, wrt: tuple, columns: bool = False):
    """The cached kernel of `kind` for expr (or a tuple of them), see `_compile`."""
    key = (kind, id(expr), wrt, columns)
    hit = _KERNELS.get(key)
    if hit is None:
        exprs = expr if isinstance(expr, tuple) else (expr,)
        if len(_KERNELS) >= KERNEL_CACHE_SIZE:
            del _KERNELS[next(iter(_KERNELS))]
        hit = _KERNELS[key] = (expr, _compile(kind, exprs, wrt, columns))
    return hit[1]


class Columns(dict):
    """The bindings of a stack of points: each name -> the column of its values.

    Q (B, len(names)) holds one point per row.  `evaluate`, `gradient` and
    `hessian` take a Columns where they take a dict of numbers, and give
    each point's result on a leading axis of length B: row b is the call at
    dict(zip(names, Q[b])), bit for bit, and an error is the first failing
    row's.
    """

    def __init__(self, names, Q: np.ndarray):
        super().__init__(zip(names, Q.T))
        self.rows = Q


def _run(kind: str, expr, wrt, ctx: dict) -> tuple:
    """Flat results of the cached per-row kernel of `kind` for expr at ctx."""
    try:
        return _kernel(kind, expr, tuple(wrt))(ctx)
    except KeyError as exc:  # the first name the walk would have looked up in vain
        raise EvalError(f"unbound variable {exc.args[0]!r}") from None


def _run_columns(kind: str, expr, wrt, ctx: Columns, shape: tuple) -> np.ndarray:
    """Results of `kind` for expr at each point of ctx, shaped (B, *shape).

    The column kernel computes a stack of two or more rows at once when
    every tree is in the exact subset.  Otherwise, whenever some row would
    fail, and for one row, whose column kernel would cost more than the
    per-row kernel and is never built, the per-row kernel runs on each row
    in turn and raises the first failing row's EvalError.
    """
    wrt = tuple(wrt)
    column = _kernel(kind, expr, wrt, columns=True) if len(ctx.rows) > 1 else None
    out = None
    if column is not None:
        try:
            with np.errstate(all="ignore"):
                out = column(ctx)
        except KeyError:  # a name the stack does not bind: the per-row kernel names it
            pass
    if out is None:
        names = list(ctx)
        out = [_run(kind, expr, wrt, dict(zip(names, r))) for r in ctx.rows.tolist()]
    return np.asarray(out, dtype=float).reshape(len(ctx.rows), *shape)


def evaluate(expr, ctx: dict):
    """Value of `expr` with every free variable bound in `ctx` (name -> float).

    A tuple of expressions gives the array of their values.  Kernels are
    cached per object, so a caller that evaluates the same tuple again
    should pass the same tuple object.  At `Columns`, the values of each
    point stack on a leading axis.
    """
    if type(ctx) is Columns:
        return _run_columns("value", expr, (), ctx, (len(expr),) if isinstance(expr, tuple) else ())
    out = _run("value", expr, (), ctx)
    return np.array(out, dtype=float) if isinstance(expr, tuple) else float(out[0])


def gradient(expr, wrt: list[str], ctx: dict) -> np.ndarray:
    """First derivatives of `expr` with respect to the listed names, at `ctx`.

    `expr` is evaluated first, so a derivative never hides a domain error of
    the value.  A tuple of expressions gives one row per expression.  At
    `Columns`, the gradients of each point stack on a leading axis.
    """
    if type(ctx) is Columns:
        shape = (len(expr), len(wrt)) if isinstance(expr, tuple) else (len(wrt),)
        return _run_columns("gradient", expr, wrt, ctx, shape)
    out = np.array(_run("gradient", expr, wrt, ctx), dtype=float)
    return out.reshape(len(expr), len(wrt)) if isinstance(expr, tuple) else out


def hessian(expr, wrt: list[str], ctx: dict) -> np.ndarray:
    """Second-derivative matrix of `expr`: the upper triangle, mirrored.

    A tuple of expressions gives one matrix per expression.  At `Columns`,
    the matrices of each point stack on a leading axis.
    """
    k = len(wrt)
    shape = (len(expr), k, k) if isinstance(expr, tuple) else (k, k)
    if type(ctx) is Columns:
        return _run_columns("hessian", expr, wrt, ctx, shape)
    return np.array(_run("hessian", expr, wrt, ctx), dtype=float).reshape(shape)


def field(exprs: tuple, wrt: list[str], ctx: dict) -> np.ndarray:
    """evaluate(exprs[:-1]), gradient(exprs[:-1], wrt) and gradient(exprs[-1], wrt), flat.

    One kernel call at one point (a dict of numbers) gives the three calls'
    results, bit for bit, one after the other: a system's mu, dmu and grad V.
    The kernel runs the three kernels' statements in that order, so it
    raises the first of their errors.
    """
    return np.array(_run("field", exprs, wrt, ctx), dtype=float)


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
