"""Parser and symbolic derivative checks.

Derivatives are validated against central finite differences at random
points, round-tripping is validated structurally and bit-exactly on
generated trees, the error paths are pinned down to byte offsets, and
derivative trees are checked for folded constants and for failing
wherever the expression itself fails.
"""
from __future__ import annotations

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


def _branch(children):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: Add(*ab)),
        st.tuples(children, children).map(lambda ab: Sub(*ab)),
        st.tuples(children, children).map(lambda ab: Mul(*ab)),
        st.tuples(children, children).map(lambda ab: Div(*ab)),
        st.tuples(children, children).map(lambda ab: Pow(*ab)),
        children.map(Neg),
        st.tuples(st.sampled_from(sorted(exprdiff.FUNCTION_NAMES)), children).map(
            lambda fa: Call(*fa)
        ),
    )


_trees = st.recursive(_leaf, _branch, max_leaves=12)


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
