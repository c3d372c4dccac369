"""Parser and symbolic derivative checks.

Derivatives are validated against central finite differences at random
points, round-tripping is validated structurally and bit-exactly on
generated trees, the error paths are pinned down to byte offsets, and
derivative trees are checked for folded constants and for failing
wherever the expression itself fails.  Stacked evaluation, through the
numpy column kernels or the per-row fallback, is checked against the
single calls bit for bit, errors included, and so is a system's fused
kernel of mu, dmu and grad V against the three accessors.
"""
from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonholo import exprdiff
from nonholo.exprdiff import (
    Add,
    Call,
    Div,
    EvalError,
    ExprSyntaxError,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Var,
    derivative,
    evaluate,
    free_variables,
    gradient,
    hessian,
    parse,
    to_string,
)
from nonholo.system import MechanicalSystem

# A pile of expressions exercising every operator and function, kept to
# domains where all of them are defined for inputs in (0.2, 1.8).
SAMPLE_EXPRESSIONS = [
    "x",
    "-x + 2*y",
    "x*y*z",
    "x/(1 + y^2)",
    "x^2 - y^3 + z^4",
    "x^-2",
    "sin(x)*cos(y) + tan(z/4)",
    "exp(x - y) + log(1 + x^2)",
    "sqrt(x^2 + y^2 + 1)",
    "tanh(x*y) - cot(1 + z)",
    "x^2*sin(y) / (2 + cos(z))",
    "exp(sin(x) + cos(y)^2)",
    "(x + y)^3 / (1 + z^2)",
    "log(exp(x)) + x*y/(z + 3)",
]

VARIABLES = ["x", "y", "z"]


def _fd_gradient(expr, ctx, h=1e-6):
    out = []
    for name in VARIABLES:
        up = dict(ctx)
        dn = dict(ctx)
        up[name] = ctx[name] + h
        dn[name] = ctx[name] - h
        out.append((evaluate(expr, up) - evaluate(expr, dn)) / (2 * h))
    return np.array(out)


def _fd_hessian(expr, ctx, h=1e-4):
    n = len(VARIABLES)
    out = np.empty((n, n))
    for i, ni in enumerate(VARIABLES):
        for j, nj in enumerate(VARIABLES):
            pp = dict(ctx)
            pm = dict(ctx)
            mp = dict(ctx)
            mm = dict(ctx)
            pp[ni] += h
            pp[nj] += h
            pm[ni] += h
            pm[nj] -= h
            mp[ni] -= h
            mp[nj] += h
            mm[ni] -= h
            mm[nj] -= h
            out[i, j] = (
                evaluate(expr, pp) - evaluate(expr, pm) - evaluate(expr, mp) + evaluate(expr, mm)
            ) / (4 * h * h)
    return out


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    checked = 0
    for text in SAMPLE_EXPRESSIONS:
        expr = parse(text)
        for _ in range(8):
            ctx = {nm: float(rng.uniform(0.2, 1.8)) for nm in VARIABLES}
            got = gradient(expr, VARIABLES, ctx)
            want = _fd_gradient(expr, ctx)
            scale = 1.0 + float(np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) < 1e-6 * scale, (
                f"gradient mismatch for {text} at {ctx}: {got} vs {want}"
            )
            checked += 1
    assert checked >= 100


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(7)
    for text in SAMPLE_EXPRESSIONS:
        expr = parse(text)
        for _ in range(4):
            ctx = {nm: float(rng.uniform(0.3, 1.6)) for nm in VARIABLES}
            got = hessian(expr, VARIABLES, ctx)
            want = _fd_hessian(expr, ctx)
            scale = 1.0 + float(np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) < 2e-4 * scale, (
                f"hessian mismatch for {text} at {ctx}"
            )


def test_hessian_is_exactly_symmetric():
    rng = np.random.default_rng(3)
    for text in SAMPLE_EXPRESSIONS:
        expr = parse(text)
        ctx = {nm: float(rng.uniform(0.3, 1.6)) for nm in VARIABLES}
        H = hessian(expr, VARIABLES, ctx)
        assert np.array_equal(H, H.T), f"hessian of {text} not bitwise symmetric"


def test_parse_shapes():
    expr = parse("1+y^2")
    assert expr == Add(Num(1.0), Pow(Var("y"), Num(2.0)))
    assert parse("a-b-c") == Sub(Sub(Var("a"), Var("b")), Var("c"))
    assert parse("a^b^c") == Pow(Var("a"), Pow(Var("b"), Var("c")))
    assert parse("-x^2") == Neg(Pow(Var("x"), Num(2.0)))
    assert parse("2*-x") == Mul(Num(2.0), Neg(Var("x")))
    assert parse("sin(x)/y") == Div(Call("sin", Var("x")), Var("y"))


def test_reaction_force_expression_evaluates():
    val = evaluate(parse("v_x*v_y/(1+y^2)"), {"v_x": 1.0, "v_y": 1.0, "y": 1.0})
    assert val == 0.5


def test_free_variables():
    assert free_variables(parse("v_x*v_y/(1+y^2)")) == {"v_x", "v_y", "y"}
    assert free_variables(parse("3.5")) == set()


def test_syntax_error_offsets():
    with pytest.raises(ExprSyntaxError) as ei:
        parse("x + * y")
    assert ei.value.offset == 4
    assert "byte 4" in str(ei.value)

    with pytest.raises(ExprSyntaxError) as ei:
        parse("sin(x")
    assert ei.value.offset == 5

    with pytest.raises(ExprSyntaxError) as ei:
        parse("x + y)")
    assert ei.value.offset == 5

    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError):
        parse("   ")


def test_unknown_function_is_rejected():
    with pytest.raises(ExprSyntaxError) as ei:
        parse("sinc(x)")
    assert "sinc" in str(ei.value) or ei.value.offset == 0


def test_unbound_variable_raises():
    with pytest.raises(EvalError) as ei:
        evaluate(parse("x + q7"), {"x": 1.0})
    assert "q7" in str(ei.value)


def test_domain_errors_never_return_nan():
    cases = [
        ("log(x)", {"x": -1.0}),
        ("log(x)", {"x": 0.0}),
        ("sqrt(x)", {"x": -0.5}),
        ("1/x", {"x": 0.0}),
        ("x^0.5", {"x": -2.0}),
        ("cot(x)", {"x": 0.0}),
        ("x^-1", {"x": 0.0}),
    ]
    for text, ctx in cases:
        with pytest.raises(EvalError):
            evaluate(parse(text), ctx)


def test_sqrt_at_zero_differentiation_rejected():
    assert evaluate(parse("sqrt(x)"), {"x": 0.0}) == 0.0
    with pytest.raises(EvalError):
        gradient(parse("sqrt(x)"), ["x"], {"x": 0.0})


def test_integer_powers_at_negative_base():
    assert evaluate(parse("x^3"), {"x": -2.0}) == -8.0
    assert evaluate(parse("x^-2"), {"x": -2.0}) == 0.25
    g = gradient(parse("x^3"), ["x"], {"x": -2.0})
    assert g[0] == 12.0


def test_gradient_of_constant_is_zero_vector():
    g = gradient(parse("3.5"), VARIABLES, {"x": 1.0, "y": 2.0, "z": 3.0})
    assert np.array_equal(g, np.zeros(3))


def test_to_string_round_trips_sample_expressions():
    for text in SAMPLE_EXPRESSIONS:
        expr = parse(text)
        again = parse(to_string(expr))
        assert again == expr, f"{text} -> {to_string(expr)} failed to round-trip"


# hypothesis strategy over ASTs: nonnegative numeric leaves only, since the
# parser itself never produces a negative Num (it wraps a Neg around it).
_leaf = st.one_of(
    st.sampled_from([Var("x"), Var("y"), Var("z")]),
    st.floats(min_value=0.0, max_value=9.5, allow_nan=False).map(Num),
)


def _branch(children, funcs=tuple(sorted(exprdiff.FUNCTION_NAMES)), exponents=None):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: Add(*ab)),
        st.tuples(children, children).map(lambda ab: Sub(*ab)),
        st.tuples(children, children).map(lambda ab: Mul(*ab)),
        st.tuples(children, children).map(lambda ab: Div(*ab)),
        st.tuples(children, children if exponents is None else exponents).map(
            lambda ab: Pow(*ab)
        ),
        children.map(Neg),
        st.tuples(st.sampled_from(funcs), children).map(lambda fa: Call(*fa)),
    )


_trees = st.recursive(_leaf, _branch, max_leaves=12)
# trees inside the column kernel's exact subset: integer powers |n| <= 8 and
# the functions numpy evaluates to math's bits (pinned below)
_EXACT_FUNCS = ("cos", "cot", "sin", "sqrt")
_small_exponents = st.integers(-8, 8).map(lambda n: Neg(Num(float(-n))) if n < 0 else Num(float(n)))
_exact_trees = st.recursive(
    _leaf,
    functools.partial(_branch, funcs=_EXACT_FUNCS, exponents=_small_exponents),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(_trees)
def test_print_parse_is_structural_identity(tree):
    assert parse(to_string(tree)) == tree


@settings(max_examples=150, deadline=None)
@given(_trees)
def test_print_parse_evaluates_bit_identically(tree):
    ctx = {"x": 0.7, "y": 1.3, "z": 0.45}
    try:
        want = evaluate(tree, ctx)
    except EvalError:
        return
    got = evaluate(parse(to_string(tree)), ctx)
    assert got == want


def test_integer_powers_above_8_at_negative_base():
    assert evaluate(parse("(-2)^9"), {}) == -512.0
    assert evaluate(parse("x^9"), {"x": -2.0}) == -512.0
    assert evaluate(parse("x^-9"), {"x": -2.0}) == -1.0 / 512.0
    assert gradient(parse("x^9"), ["x"], {"x": -2.0})[0] == 9.0 * 256.0
    assert gradient(parse("x^-9"), ["x"], {"x": -2.0})[0] == -9.0 / 1024.0
    assert hessian(parse("x^10/10"), ["x"], {"x": -0.5})[0, 0] == 9.0 / 256.0
    with pytest.raises(EvalError):
        evaluate(parse("x^-9"), {"x": 0.0})
    with pytest.raises(EvalError):
        evaluate(parse("x^400"), {"x": 10.0})


def test_functions_of_an_overflowed_argument_raise_eval_error():
    # x*x overflows to inf, where math.sin raises a bare ValueError
    for text in ("sin(x*x)", "cos(x*x)", "tan(x*x)", "cot(x*x)"):
        with pytest.raises(EvalError):
            evaluate(parse(text), {"x": 1e200})


def test_derivative_folds_constants():
    assert derivative(parse("-y"), "y") == Num(-1.0)
    assert derivative(parse("x*y + sin(x)/2"), "z") == Num(0.0)
    assert derivative(parse("3*x^2"), "x") == parse("3*(x+x)")


def test_gradient_evaluates_the_expression_first():
    # the derivative with respect to y is 1, but log(x) is undefined at x = -1
    with pytest.raises(EvalError):
        gradient(parse("log(x) + y"), ["y"], {"x": -1.0, "y": 0.0})
    with pytest.raises(EvalError):
        hessian(parse("log(x) + y"), ["y"], {"x": -1.0, "y": 0.0})


@settings(max_examples=300, deadline=None)
@given(_trees, st.sampled_from([0.0, 0.7, -1.3, 2.0]))
def test_derivatives_fail_wherever_the_value_fails(tree, y):
    ctx = {"x": 0.7, "y": y, "z": 0.0}
    try:
        evaluate(tree, ctx)
    except EvalError:
        with pytest.raises(EvalError):
            gradient(tree, VARIABLES, ctx)
        with pytest.raises(EvalError):
            hessian(tree, VARIABLES, ctx)


# --- compiled kernels against the reference tree walk ---------------------------
# The walk below is the evaluator the kernels replace: the value first, then
# each derivative tree, with the same finiteness checks.


def _walk_env(wrt, ctx):
    env = {k: float(v) for k, v in ctx.items()}
    for name in wrt:
        if name not in env:
            raise EvalError(f"unbound variable {name!r}")
    return env


def _walk_value(expr, ctx):
    return exprdiff._check_finite(float(exprdiff._eval_node(expr, _walk_env((), ctx))))


def _walk_gradient(expr, wrt, ctx):
    env = _walk_env(wrt, ctx)
    exprdiff._check_finite(exprdiff._eval_node(expr, env))
    out = np.array([exprdiff._eval_node(derivative(expr, name), env) for name in wrt])
    if not np.all(np.isfinite(out)):
        raise EvalError("gradient produced a non-finite value")
    return out


def _walk_hessian(expr, wrt, ctx):
    env = _walk_env(wrt, ctx)
    exprdiff._check_finite(exprdiff._eval_node(expr, env))
    k = len(wrt)
    out = np.empty((k, k))
    for i in range(k):
        first = derivative(expr, wrt[i])
        for j in range(i, k):
            out[i, j] = out[j, i] = exprdiff._eval_node(derivative(first, wrt[j]), env)
    if not np.all(np.isfinite(out)):
        raise EvalError("hessian produced a non-finite value")
    return out


def _outcome(fn, *args):
    """The result's bytes (sign of zero included), or the EvalError's message."""
    try:
        return np.asarray(fn(*args), dtype=float).tobytes()
    except EvalError as exc:
        return f"EvalError: {exc}"


# z is left unbound in the last one, so unbound-variable errors are compared too
_CONTEXTS = [
    {"x": 0.7, "y": 1.3, "z": 0.45},
    {"x": -1.3, "y": 0.0, "z": 2.0},
    {"x": 0.0, "y": -0.0, "z": 1e-3},
    {"x": 3.5, "y": -2.25, "z": -0.5},
    {"x": 0.7, "y": -2.5},
]


@settings(max_examples=300, deadline=None)
@given(_trees, st.sampled_from(_CONTEXTS), st.permutations(VARIABLES))
def test_kernels_match_the_tree_walk_bit_for_bit(tree, ctx, wrt):
    assert _outcome(evaluate, tree, ctx) == _outcome(_walk_value, tree, ctx)
    assert _outcome(gradient, tree, wrt, ctx) == _outcome(_walk_gradient, tree, wrt, ctx)
    assert _outcome(hessian, tree, wrt, ctx) == _outcome(_walk_hessian, tree, wrt, ctx)


def test_kernels_match_the_tree_walk_on_the_sample_expressions():
    # mixed partials depend on the order of differentiation in the last bits,
    # so both orders of wrt are compared
    rng = np.random.default_rng(11)
    for text in SAMPLE_EXPRESSIONS:
        tree = parse(text)
        for _ in range(4):
            ctx = {nm: float(rng.uniform(0.2, 1.8)) for nm in VARIABLES}
            for wrt in (VARIABLES, VARIABLES[::-1]):
                assert _outcome(gradient, tree, wrt, ctx) == _outcome(_walk_gradient, tree, wrt, ctx)
                assert _outcome(hessian, tree, wrt, ctx) == _outcome(_walk_hessian, tree, wrt, ctx)


def _stacked(fn, trees, *args):
    """The scalar calls in order: their stacked results, or the first EvalError."""
    try:
        return np.array([fn(tree, *args) for tree in trees], dtype=float).tobytes()
    except EvalError as exc:
        return f"EvalError: {exc}"


@settings(max_examples=150, deadline=None)
@given(st.lists(_trees, min_size=1, max_size=4), st.sampled_from(_CONTEXTS))
def test_tuple_form_equals_the_scalar_calls_stacked(trees, ctx):
    trees = tuple(trees)
    assert _outcome(evaluate, trees, ctx) == _stacked(evaluate, trees, ctx)
    assert _outcome(gradient, trees, VARIABLES, ctx) == _stacked(gradient, trees, VARIABLES, ctx)
    assert _outcome(hessian, trees, VARIABLES, ctx) == _stacked(hessian, trees, VARIABLES, ctx)


def test_tuple_form_shapes():
    trees = (parse("x*y"), parse("3"))
    ctx = {"x": 2.0, "y": 5.0}
    assert evaluate(trees, ctx).tolist() == [10.0, 3.0]
    assert gradient(trees, ["x", "y"], ctx).tolist() == [[5.0, 2.0], [0.0, 0.0]]
    assert hessian(trees, ["x", "y"], ctx).shape == (2, 2, 2)
    assert evaluate((), ctx).shape == (0,)
    assert gradient((), ["x", "y"], ctx).shape == (0, 2)


def test_kernel_keeps_signed_zeros_and_constant_literals():
    # folded derivative trees hold -0.0 as a number, which the parser never
    # makes; it must stay distinct from 0.0 in one kernel
    tree = Add(Mul(Num(-0.0), Var("x")), Mul(Num(0.0), Var("y")))
    assert np.copysign(1.0, evaluate(tree, {"x": 1.0, "y": 1.0})) == 1.0
    assert np.copysign(1.0, evaluate(tree, {"x": 1.0, "y": -1.0})) == -1.0
    # 1e400 is no literal: it is bound by name and still caught as non-finite
    with pytest.raises(EvalError, match="non-finite"):
        evaluate(parse("1e400*x"), {"x": 1.0})


# --- stacked evaluation against the per-row kernels -----------------------------
# At the Columns of a stack, evaluate, gradient and hessian run one column
# kernel where every tree is in the exact subset, and the per-row kernel
# otherwise; either way they must give the single calls' bits and their
# first error.

_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.7, -1.3, 2.0, math.pi, 1e-3]
_edge_stacks = st.lists(
    st.lists(st.sampled_from(_EDGE_VALUES), min_size=3, max_size=3), min_size=1, max_size=6
).map(np.array)


def _in_exact_subset(node) -> bool:
    """No exp, log, tan or tanh, no power but a literal integer |n| <= 8."""
    if isinstance(node, (Num, Var)):
        return True
    if isinstance(node, Neg):
        return _in_exact_subset(node.operand)
    if isinstance(node, Call):
        return node.func in _EXACT_FUNCS and _in_exact_subset(node.arg)
    if isinstance(node, Pow):
        n = exprdiff._literal_int_exponent(node.exponent)
        return n is not None and abs(n) <= 8 and _in_exact_subset(node.base)
    return _in_exact_subset(node.left) and _in_exact_subset(node.right)


def _wrt(kind):
    return () if kind == "value" else VARIABLES


def _call(kind, tree, wrt, ctx):
    """evaluate, gradient or hessian of tree at ctx (a dict of numbers or Columns)."""
    if kind == "value":
        return evaluate(tree, ctx)
    return {"gradient": gradient, "hessian": hessian}[kind](tree, wrt, ctx)


def _single_calls(kind, tree, Q):
    """The single call at each row in turn: the results stacked, or the first EvalError."""
    rows = [dict(zip(VARIABLES, r)) for r in Q.tolist()]
    return _outcome(lambda: [_call(kind, tree, _wrt(kind), ctx) for ctx in rows])


def _stacked_outcome(kind, tree, Q, wrt=None):
    wrt = _wrt(kind) if wrt is None else wrt
    return _outcome(_call, kind, tree, wrt, exprdiff.Columns(VARIABLES, Q))


def _column_kernel(kind, tree):
    return exprdiff._kernel(kind, tree, tuple(_wrt(kind)), columns=True)


def _check_stacked(kind, tree, Q):
    want = _single_calls(kind, tree, Q)
    assert _stacked_outcome(kind, tree, Q) == want
    column = _column_kernel(kind, tree)
    assert (column is not None) == _in_exact_subset(tree)
    if column is not None:
        with np.errstate(all="ignore"):
            out = column(exprdiff.Columns(VARIABLES, Q))
        # a stack with a failing row never takes the column kernel's result
        assert out is None or out.tobytes() == want


@pytest.mark.parametrize("kind", ["value", "gradient", "hessian"])
@settings(max_examples=300, deadline=None)
@given(tree=st.one_of(_exact_trees, _trees), Q=_edge_stacks)
def test_stacked_equals_the_per_row_kernels_bit_for_bit(kind, tree, Q):
    _check_stacked(kind, tree, Q)


@pytest.mark.parametrize("kind", ["value", "gradient", "hessian"])
def test_stacked_paths_on_fixed_trees(kind):
    Q = np.array([[0.7, 1.3, 0.45], [-0.0, 2.0, 5e-324], [1e300, -1.3, 0.0]])
    for text in ["x*y - z/2", "x^-2 + y^8", "sqrt(y)*cot(x)", "sin(x)^0 + cos(y)", "x/z"]:
        tree = parse(text)
        assert _in_exact_subset(tree)
        _check_stacked(kind, tree, Q)
        _check_stacked(kind, tree, Q[:1])
    for text in ["exp(x)", "log(1 + y^2)", "tan(x)", "tanh(y)", "x^1.5", "x^9", "y^x"]:
        tree = parse(text)
        assert not _in_exact_subset(tree)
        _check_stacked(kind, tree, Q[:1])


def test_stacked_error_is_the_first_failing_rows():
    # row 0 alone is fine; rows 1 and 2 fail, each with its own message
    Q = np.array([[0.7, 1.3, 0.45], [1.0, -2.0, 0.0], [0.5, -1.0, -0.0]])
    cases = [
        ("x/z", "division by zero"),
        ("sin(x)/z", "division by zero"),
        ("exp(x)/z", "division by zero"),
        # 1/(1/z) is 0.0 at z = 0, so only the zero divisor shows the failure
        ("1/(1/z) + x", "division by zero"),
        # the NaN of sqrt(-2) is dropped by ^0, so only the checked base shows it
        ("sqrt(y)^0 + x", "sqrt of negative value -2.0"),
    ]
    for text, message in cases:
        tree = parse(text)
        for kind in ("value", "gradient", "hessian"):
            want = _single_calls(kind, tree, Q)
            assert want == f"EvalError: {message}"
            assert _stacked_outcome(kind, tree, Q) == want
            assert _stacked_outcome(kind, tree, Q[:1]) == _single_calls(kind, tree, Q[:1])
    # a name outside the stack's columns fails at the first row, as a single call does
    for kind, wrt in (("value", ()), ("gradient", ["x", "w"]), ("hessian", ["w", "x"])):
        tree = parse("x + w") if kind == "value" else parse("x*y")
        assert _stacked_outcome(kind, tree, Q, wrt) == "EvalError: unbound variable 'w'"
    # the per-row kernel's first error wins over a name the stack does not bind
    # (row 1 divides by z = 0 before it looks w up)
    tree = parse("x/z + w")
    assert _stacked_outcome("value", tree, Q[1:]) == _single_calls("value", tree, Q[1:])
    assert _single_calls("value", tree, Q[1:]) == "EvalError: division by zero"


def test_numpy_sin_cos_sqrt_give_maths_bits():
    # The column kernel binds np.sin, np.cos and np.sqrt where the probe finds
    # them equal to math; this pins that on the probe points and
    # on a seeded sample of about 10^5 values.
    assert exprdiff._column_funcs() == set(_EXACT_FUNCS)
    rng = np.random.default_rng(2024)
    sample = np.concatenate([
        exprdiff._PROBE,
        rng.uniform(-10.0, 10.0, 40_000),
        rng.standard_normal(30_000) * 1e4,
        np.exp(rng.uniform(-700.0, 700.0, 30_000)) * rng.choice([-1.0, 1.0], 30_000),
    ])
    for name, x in (("sin", sample), ("cos", sample), ("sqrt", np.abs(sample))):
        want = np.array([getattr(math, name)(v) for v in x.tolist()])
        assert getattr(np, name)(x).tobytes() == want.tobytes(), name


def test_a_probe_mismatch_sends_sin_to_the_per_row_path(monkeypatch):
    def sin_one_ulp_up(x):
        return np.nextafter(np.sin(x), np.inf)

    funcs = exprdiff._column_functions({"sin": sin_one_ulp_up, "cos": np.cos, "sqrt": np.sqrt})
    assert funcs == {"cos", "sqrt"}  # cot = cos / sin leaves with sin
    monkeypatch.setattr(exprdiff, "_column_funcs", lambda: funcs)
    monkeypatch.setattr(exprdiff, "_KERNELS", {})
    Q = np.array([[0.7, 1.3, 0.45], [-0.0, 2.0, 3.0], [1e3, -1.3, 0.25]])
    # (text, has a value column kernel, has a gradient one): cos' derivative is -sin
    cases = [("sin(x)*y", False, False), ("cot(z) + x", False, False), ("cos(x)", True, False),
             ("x*sqrt(y^2)", True, True)]
    for text, *columns in cases:
        tree = parse(text)
        for kind, column in zip(("value", "gradient"), columns):
            assert (_column_kernel(kind, tree) is not None) == column
            assert _stacked_outcome(kind, tree, Q) == _single_calls(kind, tree, Q)


# --- the fused field kernel ------------------------------------------------------
# A system's mu_dmu_grad_v_at runs one "field" kernel on one configuration; it
# must give mu_at, mu_jac_at and grad_v_at bit for bit, or raise the first
# error of the three calls made in that order.


def _field_outcome(fn):
    try:
        return [(a.shape, a.tobytes()) for a in fn()]
    except EvalError as exc:
        return f"EvalError: {exc}"


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(_trees, min_size=3, max_size=3), max_size=2), _trees)
def test_fused_field_kernel_equals_the_three_accessors(mu, V):
    try:
        sys = MechanicalSystem(VARIABLES, np.eye(3), V, mu)
    except EvalError:  # a constant entry that does not evaluate
        return
    for ctx in _CONTEXTS[:4]:
        q = np.array([ctx[name] for name in VARIABLES])
        want = _field_outcome(lambda: (sys.mu_at(q), sys.mu_jac_at(q), sys.grad_v_at(q)))
        assert _field_outcome(lambda: sys.mu_dmu_grad_v_at(q)) == want


def test_fused_field_kernel_raises_the_first_accessors_error():
    # at z = 0 V always fails; mu fails first in the first case, only its
    # derivative 0.5/sqrt(z) in the second, nothing before V in the third
    q = np.array([0.7, 1.3, 0.0])
    V = "log(x - 1)"
    cases = [
        ([["log(z - 1)", "1", "0"]], "log of non-positive value -1.0"),
        ([["sqrt(z)", "1", "0"]], "division by zero"),
        ([["x", "1", "0"]], "log of non-positive value -0.30000000000000004"),
    ]
    for mu, message in cases:
        sys = MechanicalSystem(VARIABLES, np.eye(3), V, mu)
        assert _field_outcome(lambda: sys.mu_dmu_grad_v_at(q)) == f"EvalError: {message}"
        want = _field_outcome(lambda: (sys.mu_at(q), sys.mu_jac_at(q), sys.grad_v_at(q)))
        assert _field_outcome(lambda: sys.mu_dmu_grad_v_at(q)) == want
