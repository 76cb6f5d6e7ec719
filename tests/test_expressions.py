"""Whitelisted expression grammar and JSON model configuration."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import riskswitch as rs
from riskswitch import ExpressionError, compile_expression, load_model, model_from_spec

from _oracles import at_rows


def test_arithmetic_matches_numpy():
    f = compile_expression("0.5 * x1^2 - x2 / 4 + 1", 2)
    X = np.array([[1.0, 2.0], [-3.0, 0.5]])
    np.testing.assert_allclose(f(X, *at_rows(X, 0, 1.0)), 0.5 * X[:, 0] ** 2 - X[:, 1] / 4 + 1)


def test_caret_is_exponentiation_not_xor():
    f = compile_expression("x1^3", 1)
    np.testing.assert_allclose(f(np.array([[2.0]]), *at_rows([0], 0, 0.0)), [8.0])


def test_regime_and_control_variables():
    f = compile_expression("(1 + k) * xi * x1", 1)
    X = np.array([[2.0], [2.0]])
    assert f(X, np.array([0, 1]), np.full(2, 1.5)).tolist() == [3.0, 6.0]


def test_functions_and_unary():
    f = compile_expression("max(exp(-x1), min(sqrt(abs(x1)), 2))", 1)
    X = np.array([[4.0], [-0.1]])
    expected = np.maximum(np.exp(-X[:, 0]), np.minimum(np.sqrt(np.abs(X[:, 0])), 2))
    np.testing.assert_allclose(f(X, *at_rows(X, 0, 0.0)), expected)


def test_constant_expression_broadcasts():
    f = compile_expression("sqrt(2)", 1)
    out = f(np.zeros((5, 1)), *at_rows(range(5), 0, 0.0))
    assert out.shape == (5,)
    np.testing.assert_allclose(out, np.sqrt(2.0))


@pytest.mark.parametrize("src", [
    "__import__('os')",
    "x1.real",
    "lambda: 1",
    "x1 if k else x2",
    "x1 > 0",
    "foo(x1)",
    "min(x1)",           # wrong arity
    "max(x1, x2, x1)",
    "x3",                # out of range for dim=2
    "y",
    "'str'",
    "[1, 2]",
    "x1 % 2",
    "x1 // 2",
    "x1 + 1 / 0",        # a constant subexpression is evaluated at compile time
    "(-8) ^ 0.5",        # complex, not real
])
def test_grammar_rejections(src):
    with pytest.raises(ExpressionError):
        compile_expression(src, 2)


def test_non_string_rejected():
    with pytest.raises(ExpressionError):
        compile_expression(3.0, 1)


def test_unparseable_rejected():
    with pytest.raises(ExpressionError, match="cannot parse"):
        compile_expression("x1 +* 2", 1)


CUSTOM = {
    "name": "custom-ou",
    "dim": 1,
    "num_regimes": 2,
    "controls": [1.0, 2.0],
    "drift": ["-(1 + k) * xi * x1"],
    "diffusion": [["sqrt(2)"]],
    "rates": [["-1", "1"], ["1", "-1"]],
    "cost": "0.05 * (1 + k) * x1^2",
}


def test_model_from_spec_custom():
    m = model_from_spec(CUSTOM)
    assert m.name == "custom-ou"
    assert m.dim == 1 and m.num_regimes == 2
    X = np.array([[2.0]])
    np.testing.assert_allclose(m.drift(X, *at_rows(X, 1, 2.0)), [[-8.0]])
    np.testing.assert_allclose(m.cost(X, *at_rows(X, 1, 1.0)), [0.4])
    np.testing.assert_allclose(m.rates(X, *at_rows(X, 1.0))[0], [[-1, 1], [1, -1]])
    # configured models satisfy the sampled hypotheses and solve end to end
    assert rs.validate_model(m, 3.0, samples=64).passed
    sol = rs.solve_semilinear(m, rs.grid_for_resolution(1, 3.0, 10))
    assert sol.converged and np.isfinite(sol.eigenpair.eigenvalue)


@pytest.mark.parametrize("constant, value", [("abs(0)", 0.0), ("min(0, 1)", 0.0),
                                             ("max(1, 2)", 2.0), ("abs(-3) / 2", 1.5)])
def test_constant_functions_of_integer_literals_fold(constant, value):
    # numpy folds abs, min and max of int literals to numpy integers
    m = model_from_spec(dict(CUSTOM, cost="%s + x1^2" % constant))
    X = np.array([[0.0], [2.0]])
    assert m.cost(X, *at_rows(X, 1, 1.0)).tolist() == [value, value + 4.0]
    assert rs.validate_model(m, 3.0, samples=64).passed


def test_model_from_spec_builtin_form():
    m = model_from_spec({"builtin": "lq", "params": {"q": 0.1875, "controls": [1, 2]}})
    assert m.name == "lq"
    assert m.params["q"] == 0.1875


def test_model_from_spec_errors():
    with pytest.raises(ExpressionError):
        model_from_spec([1, 2])
    with pytest.raises(ExpressionError, match="missing key"):
        model_from_spec({"dim": 1})
    with pytest.raises(ExpressionError, match="params"):
        model_from_spec({"builtin": "lq", "params": 3})
    bad = dict(CUSTOM, drift=["-x1", "-x1"])  # one expression too many for dim=1
    with pytest.raises(ExpressionError, match="drift"):
        model_from_spec(bad)
    bad = dict(CUSTOM, diffusion=[["1", "0"]])
    with pytest.raises(ExpressionError, match="diffusion"):
        model_from_spec(bad)
    bad = dict(CUSTOM, rates=[["-1", "1"]])
    with pytest.raises(ExpressionError, match="rates"):
        model_from_spec(bad)


def test_malformed_rate_rows_surface_at_validation():
    # the grammar cannot see that rows sum to zero; the model validator must
    bad = dict(CUSTOM, rates=[["-1", "0.5"], ["1", "-1"]])
    m = model_from_spec(bad)
    with pytest.raises(ValueError):
        rs.validate_model(m, 2.0, samples=16)


def test_load_model_roundtrip(tmp_path):
    p = tmp_path / "model.json"
    p.write_text(json.dumps(CUSTOM))
    m = load_model(p)
    assert m.name == "custom-ou"

    p2 = tmp_path / "broken.json"
    p2.write_text("{not json")
    with pytest.raises(ExpressionError, match="invalid JSON"):
        load_model(p2)

    with pytest.raises(OSError):
        load_model(tmp_path / "missing.json")


def test_tanh():
    f = compile_expression("tanh(2 * x1)", 1)
    X = np.array([[0.3], [-4.0]])
    assert f(X, *at_rows(X, 0, 0.0)).tobytes() == np.tanh(2 * X[:, 0]).tobytes()


PARAMETRIZED = dict(CUSTOM, params={"kappa": [1.0, 2.0], "q": 0.05, "rho": 1.5},
                    drift=["-kappa * xi * x1"], rates=[["-rho", "rho"], ["rho", "-rho"]],
                    cost="q * (1 + k) * x1^2")


def test_named_and_per_regime_parameters():
    m = model_from_spec(PARAMETRIZED)
    X = np.array([[2.0], [-1.0]])
    for k, kappa in enumerate([1.0, 2.0]):
        assert m.drift(X, *at_rows(X, k, 1.5)).tobytes() == (-kappa * 1.5 * X).tobytes()
    assert m.cost(X, *at_rows(X, 1, 1.0)).tobytes() == (0.05 * 2.0 * X[:, 0] ** 2).tobytes()
    np.testing.assert_array_equal(m.rates(X, *at_rows(X, 2.0))[1], [[-1.5, 1.5], [1.5, -1.5]])
    assert m.params == {"config": PARAMETRIZED}


@pytest.mark.parametrize("name", ["x1", "x3", "k", "xi", "exp", "tanh", "min", "_a", "if", "a-b"])
def test_parameter_named_like_a_variable_or_function_rejected(name):
    with pytest.raises(ExpressionError, match="parameter name"):
        model_from_spec(dict(CUSTOM, params={name: 1.0}))


@pytest.mark.parametrize("overrides, message", [
    ({"params": {"kappa": [1.0, 2.0, 3.0]}}, "one per regime"),
    ({"params": {"kappa": "fast"}}, "one per regime"),
    ({"params": [1.0]}, "params"),
    # the rates take no regime, so no per-regime parameter; the diffusion no control
    ({"params": {"r": [1.0, 2.0]}, "rates": [["-r", "r"], ["1", "-1"]]}, "unknown variable 'r'"),
    ({"rates": [["-1 - k", "1 + k"], ["1", "-1"]]}, "unknown variable 'k'"),
    ({"diffusion": [["sqrt(xi)"]]}, "unknown variable 'xi'"),
    ({"cost": "q * x1^2"}, "unknown variable 'q'"),
])
def test_parameter_and_variable_errors(overrides, message):
    with pytest.raises(ExpressionError, match=message):
        model_from_spec(dict(CUSTOM, **overrides))


def test_shared_subexpressions_and_a_bare_coordinate():
    f = compile_expression("x1 / sqrt(1 + x1^2) + sqrt(1 + x1^2)", 1)
    X = np.array([[0.5], [3.0]])
    s = np.sqrt(1 + X[:, 0] ** 2)
    assert f(X, *at_rows(X, 0, 0.0)).tobytes() == (X[:, 0] / s + s).tobytes()
    g = compile_expression("x1", 1)
    out = g(X, *at_rows(X, 0, 0.0))
    out[:] = 7.0  # a copy, never a view of the states
    assert X[0, 0] == 0.5


# a spec whose coefficients read the regime, per-regime parameters, the
# control and the state together; its rates depend on the state and control
ROW_WISE = {
    "name": "row-wise", "dim": 2, "num_regimes": 3, "controls": [0.5, 1.0, 2.0],
    "params": {"kappa": [1.0, 2.0, 0.5], "s": [1.0, 1.5, 0.7], "rho": 0.8},
    "drift": ["-kappa * xi * x1 + k * tanh(x2)", "-exp(-k * xi) * x2 + s"],
    "diffusion": [["s", "0"], ["0.1 * k", "sqrt(1 + x1^2)"]],
    "rates": [["-rho * (1 + 0.1 * x1^2) * xi - 0.5", "rho * (1 + 0.1 * x1^2) * xi", "0.5"],
              ["xi", "-xi - tanh(x2)^2", "tanh(x2)^2"],
              ["0.3", "0.2 * xi", "-0.3 - 0.2 * xi"]],
    "cost": "0.05 * (1 + k) * (x1^2 + x2^2) + exp(-xi * kappa)",
}


def row_wise_model(name):
    return model_from_spec(ROW_WISE) if name == "json" else rs.make_builtin(name)


@pytest.mark.parametrize("name", ["lq", "ou2", "dip", "bounded2d", "json"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40))
def test_row_wise_evaluation_equals_per_regime_and_control(name, seed, n):
    # one call over rows of mixed regimes and controls gives, row by row,
    # the bits of one call per (regime, control) over that group's rows
    m = row_wise_model(name)
    rng = np.random.default_rng(seed)
    X = rng.normal(scale=2.0, size=(n, m.dim))
    K = rng.integers(0, m.num_regimes, n)
    C = rng.integers(0, m.num_controls, n)
    xi = m.controls[C]
    mixed = (m.drift(X, K, xi), m.diffusion(X, K), m.rates(X, xi), m.cost(X, K, xi))
    for k in range(m.num_regimes):
        for c in range(m.num_controls):
            g = np.flatnonzero((K == k) & (C == c))
            ks, xis = at_rows(g, k, m.controls[c])
            grouped = (m.drift(X[g], ks, xis), m.diffusion(X[g], ks), m.rates(X[g], xis),
                       m.cost(X[g], ks, xis))
            for whole, part in zip(mixed, grouped):
                assert whole.shape[1:] == part.shape[1:]
                assert whole[g].tobytes() == np.asarray(part, dtype=float).tobytes()


def certificate_of(lyap):
    """The compiled certificate of candidate ``lyap`` on a 2-D, two-regime spec."""
    return model_from_spec({
        "dim": 2, "num_regimes": 2, "controls": [1.0], "drift": ["0", "0"],
        "diffusion": [["1", "0"], ["0", "1"]], "rates": [["-1", "1"], ["1", "-1"]],
        "cost": "0", "certificate": {"lyap": lyap, "ell": "abs(x1)", "beta": 1.0,
                                     "compact_radius": 1.0, "mode": "geometric"}}).certificate


def smooth(depth=3):
    """Smooth grammar expressions over x1, x2 and k whose values and
    derivatives stay moderate on [-1, 1]^2."""
    leaf = st.sampled_from(["x1", "x2", "k", "0.5", "2"])
    if depth == 0:
        return leaf
    sub = smooth(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, st.sampled_from("+-*"), sub).map("(%s %s %s)".__mod__),
        st.tuples(sub, sub).map("(%s / (1 + (%s)^2))".__mod__),
        st.tuples(sub, st.sampled_from(["2", "3", "(2 + k)"])).map("(%s)^%s".__mod__),
        sub.map("exp(tanh(%s))".__mod__), sub.map("sqrt(1 + (%s)^2)".__mod__),
        sub.map("tanh(%s)".__mod__), sub.map("(-%s)".__mod__), sub.map("(+%s)".__mod__))


@settings(max_examples=200, deadline=None)
@given(lyap=smooth(), seed=st.integers(0, 2 ** 32 - 1))
def test_compiled_derivatives_match_central_differences(lyap, seed):
    cert = certificate_of(lyap)
    X = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(8, 2))
    K = np.arange(8) % 2
    h, e = 1e-6, np.eye(2) * 1e-6
    value, grad, hess = cert.lyap(X, K), cert.grad(X, K), cert.hess(X, K)
    assert grad.shape == (8, 2) and hess.shape == (8, 2, 2)
    fd_grad = np.stack([(cert.lyap(X + e[i], K) - cert.lyap(X - e[i], K)) / (2 * h)
                        for i in range(2)], axis=1)
    fd_hess = np.stack([(cert.grad(X + e[j], K) - cert.grad(X - e[j], K)) / (2 * h)
                        for j in range(2)], axis=2)
    scale = 1.0 + np.abs(value) + np.abs(grad).max(axis=1) + np.abs(hess).max(axis=(1, 2))
    assert np.all(np.abs(fd_grad - grad) <= 1e-6 * scale[:, None]), lyap
    assert np.all(np.abs(fd_hess - hess) <= 1e-6 * scale[:, None, None]), lyap
    np.testing.assert_array_equal(hess, hess.transpose(0, 2, 1))


@pytest.mark.parametrize("lyap, message", [
    ("1 + abs(x1)", "differentiate abs"),
    ("x1^2 + abs(k)", "differentiate abs"),
    ("exp(min(x1, x2))", "differentiate min"),
    ("max(1, x1^2)", "differentiate max"),
    ("2 ^ x1", "exponent may not depend on x"),
    ("x1 ^ (1 + x2 * k)", "exponent may not depend on x"),
    ("exp(x1 ^ abs(x2))", "exponent may not depend on x"),
])
def test_certificate_without_derivative_rejected(lyap, message):
    # the refusal names the candidate, so a long lyap shows where it fails
    with pytest.raises(ExpressionError, match=message) as err:
        certificate_of(lyap)
    assert "(certificate lyap %r)" % lyap in str(err.value)


def test_constant_subexpression_folds_before_differentiation():
    # abs(2) is the constant 2 before lyap is differentiated
    X = np.array([[0.5, -1.0], [2.0, 3.0]])
    grad = certificate_of("abs(2) * x1^2").grad(X, np.zeros(2, dtype=int))
    assert grad.tobytes() == np.stack([2.0 * (2 * X[:, 0] ** 1), np.zeros(2)], axis=1).tobytes()


def test_certificate_entry_errors():
    spec = dict(CUSTOM, certificate={"lyap": "exp(x1^2)", "beta": 1.0})
    with pytest.raises(ExpressionError, match="certificate is missing key 'ell'"):
        model_from_spec(spec)
    spec["certificate"] = {"lyap": "exp(x1^2)", "ell": "1", "beta": 1.0,
                           "compact_radius": 1.0, "mode": "geometric"}
    assert model_from_spec(spec).certificate.mode is rs.CertificateMode.GEOMETRIC
    spec["certificate"]["lyap"] = "exp(xi * x1^2)"
    with pytest.raises(ExpressionError, match="unknown variable 'xi'"):
        model_from_spec(spec)


def test_derivative_rules_bitwise():
    # grad and hess are the numpy expressions the differentiation rules
    # build, term by term: each rule of + - * / ^, unary -, exp, sqrt and
    # tanh, with products by 0 and 1 and sums with 0 folded
    X = np.random.default_rng(11).normal(scale=1.5, size=(64, 2))
    K = np.arange(64) % 2

    def same(cert, grad, hess):
        assert cert.grad(X[:, :len(grad)], K).tobytes() == np.stack(grad, axis=1).tobytes()
        hess = np.stack([np.stack(row, axis=1) for row in hess], axis=1)
        assert cert.hess(X[:, :len(grad)], K).tobytes() == hess.tobytes()

    x1, x2 = X[:, 0], X[:, 1]
    # lq: exp(x1^2 / 4)
    V = np.exp(x1 ** 2 / 4)
    D = 2 * x1 ** 1 / 4
    same(rs.make_builtin("lq").certificate, [V * D], [[V * D * D + V * (2 * x1 ** 0 / 4)]])
    # bounded2d: exp(0.5 * sqrt(1 + (x1^2 + x2^2)))
    r = np.sqrt(1 + (x1 ** 2 + x2 ** 2))
    V, q = np.exp(0.5 * r), 0.5 / r
    dp = [2 * x1 ** 1, 2 * x2 ** 1]
    dr = [q * d for d in dp]
    du = [0.5 * d for d in dr]
    g = [V * d for d in du]
    dq = [-(q * d) / r for d in dr]
    h01 = g[1] * du[0] + V * (0.5 * (dq[1] * dp[0]))
    same(rs.make_builtin("bounded2d").certificate, g,
         [[g[0] * du[0] + V * (0.5 * (dq[0] * dp[0] + q * (2 * x1 ** 0))), h01],
          [h01, g[1] * du[1] + V * (0.5 * (dq[1] * dp[1] + q * (2 * x2 ** 0)))]])
    # binary and unary minus and tanh; d(x1 - x2)/dx2 and d(-x2)/dx2 fold to -1
    t, n = np.tanh(x1 - x2), -x2
    c = 1 - t * t
    h01 = -(c * -1 * t + t * (c * -1))
    same(certificate_of("tanh(x1 - x2) - (-x2)^3"), [c, c * -1 - 3 * n ** 2 * -1],
         [[-(c * t + t * c), h01], [h01, h01 * -1 - 3 * (2 * n ** 1 * -1) * -1]])


CERTIFIED = dict(CUSTOM, certificate={"lyap": "exp(x1^2 / 8)", "ell": "x1^2 / 8", "beta": 0.5,
                                      "compact_radius": 2.0, "mode": "inf_compact"})


@pytest.mark.parametrize("overrides", [
    {"dim": 1.5}, {"dim": True}, {"dim": "1"}, {"num_regimes": 0, "rates": []},
    {"num_regimes": 1.9, "rates": [["0"]]}, {"num_regimes": True, "rates": [["0"]]},
    {"num_regimes": "2"},
    {"controls": "12"}, {"controls": ["1", 2.0]}, {"controls": [True]}, {"controls": 1.0},
    {"params": {"q": "0.5"}}, {"params": {"q": True}}, {"params": {"kappa": [1.0, "2"]}},
    {"certificate": dict(CERTIFIED["certificate"], beta="nan")},
    {"certificate": dict(CERTIFIED["certificate"], beta=True)},
    {"certificate": dict(CERTIFIED["certificate"], compact_radius=float("inf"))},
    {"certificate": dict(CERTIFIED["certificate"], compact_radius=float("nan"))},
])
def test_spec_values_are_not_coerced(overrides):
    # float() and int() would read each of these as a number
    with pytest.raises(ExpressionError):
        model_from_spec(dict(CERTIFIED, **overrides))
