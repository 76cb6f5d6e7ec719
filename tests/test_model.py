"""Model hypothesis validation and Lyapunov certificate checking."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import riskswitch as rs

import _oracles as orc


def test_builtin_registry():
    assert set(rs.BUILTIN_MODELS) == {"lq", "ou2", "bounded2d", "dip"}
    for name in rs.BUILTIN_MODELS:
        m = rs.make_builtin(name)
        assert m.num_regimes >= 1 and m.dim in (1, 2)
        assert m.num_controls == len(m.controls)
    with pytest.raises(ValueError, match="unknown builtin"):
        rs.make_builtin("nope")


def test_builtin_param_override():
    m = rs.make_builtin("lq", q=0.25, controls=(1.0,))
    assert m.params["q"] == 0.25
    assert m.num_controls == 1
    with pytest.raises(ValueError):
        rs.make_builtin("lq", q=-1.0)
    with pytest.raises(ValueError):
        rs.make_builtin("dip", dip=(2.0, 2.0))  # deeper than the tail plateau


def test_model_constructor_rejects_bad_shapes():
    kw = dict(name="m", dim=1, num_regimes=1,
              drift=lambda X, k, xi: -X, diffusion=lambda X, k: np.ones((X.shape[0], 1, 1)),
              rates=lambda X, xi: np.zeros((X.shape[0], 1, 1)),
              cost=lambda X, k, xi: np.zeros(X.shape[0]))
    with pytest.raises(ValueError):
        rs.SwitchingModel(controls=[], **kw)
    with pytest.raises(ValueError):
        rs.SwitchingModel(controls=[[1.0]], **kw)
    with pytest.raises(ValueError):
        rs.SwitchingModel(controls=[1.0], **{**kw, "dim": 0})


def test_covariance_is_half_sigma_sigma_t():
    m = rs.make_builtin("bounded2d")
    X = np.array([[0.3, -1.1], [0.0, 0.0]])
    a = rs.coefficients(m, X).covariance[0]
    assert a.shape == (2, 2, 2)
    np.testing.assert_allclose(a[0], np.eye(2), atol=1e-14)  # sigma = sqrt(2) I


def test_coefficients_equal_direct_calls():
    def same(stacked, direct):
        direct = np.asarray(direct, dtype=float)
        assert stacked.shape == direct.shape
        assert stacked.tobytes() == direct.tobytes()

    rng = np.random.default_rng(17)
    for _ in range(10):
        m, g = orc.random_instance(rng)
        X = g.interior_points()
        co = rs.coefficients(m, X)
        for k in range(m.num_regimes):
            (ks,) = orc.at_rows(X, k)
            sig = m.diffusion(X, ks)
            same(co.diffusion[k], sig)
            same(co.covariance[k], 0.5 * np.einsum("nij,nkj->nik", sig, sig))
            for c, xi in enumerate(m.controls):
                same(co.drift[k, c], m.drift(X, *orc.at_rows(X, k, xi)))
                same(co.cost[k, c], m.cost(X, *orc.at_rows(X, k, xi)))
        for c, xi in enumerate(m.controls):
            same(co.rates[c], m.rates(X, *orc.at_rows(X, xi)))


def test_coefficients_name_a_non_finite_entry():
    m = rs.make_builtin("ou2", controls=(1.0, 2.0))
    X = np.array([[0.5], [1.5], [-1.0]])

    def rates(X, xi):
        out = np.array(m.rates(X, xi))
        out[1:, 1, :][xi[1:] == 2.0] = np.inf
        return out

    with pytest.raises(rs.NonFiniteCoefficientError) as info:
        rs.coefficients(dataclasses.replace(m, rates=rates), X)
    err = info.value
    assert (err.coefficient, err.regime, err.control, err.value) == ("rates", 1, 2.0, np.inf)
    np.testing.assert_array_equal(err.state, [1.5])
    assert "rates is not finite at x=[1.5] (regime 1, control 2): inf" == str(err)


def test_with_cost_replaces_and_renames():
    m = rs.make_builtin("lq")
    m2 = m.with_cost(lambda X, k, xi: np.full(X.shape[0], 0.3), suffix="flat")
    assert m2.name == "lq-flat"
    assert m2.cost(np.zeros((4, 1)), *orc.at_rows(range(4), 0, 1.0))[0] == 0.3
    # original untouched
    assert m.cost(np.ones((1, 1)), *orc.at_rows([0], 0, 1.0))[0] == pytest.approx(0.1875)


@pytest.mark.parametrize("name", sorted(rs.BUILTIN_MODELS))
def test_validate_model_passes_on_builtins(name):
    m = rs.make_builtin(name)
    rep = rs.validate_model(m, box_radius=5.0, samples=200, seed=3)
    assert rep.passed, {k: (r.passed, r.detail) for k, r in rep.results.items()}
    d = rep.as_dict()
    assert set(d["hypotheses"]) == {
        "local_lipschitz", "affine_growth", "nondegeneracy", "switching_irreducible"}
    assert d["passed"] is True


def test_validate_model_flags_degenerate_diffusion():
    m = rs.make_builtin("lq")
    bad = dataclasses.replace(m, diffusion=lambda X, k: np.zeros((X.shape[0], 1, 1)))
    rep = rs.validate_model(bad, box_radius=3.0, samples=100)
    assert not rep.results["nondegeneracy"].passed
    assert not rep.passed


def test_validate_model_flags_superlinear_growth():
    m = rs.make_builtin("lq")
    bad = dataclasses.replace(m, drift=lambda X, k, xi: X ** 3)  # outward cubic
    rep = rs.validate_model(bad, box_radius=6.0, samples=300)
    assert not rep.results["affine_growth"].passed


def test_validate_model_flags_reducible_switching():
    m = rs.make_builtin("ou2")
    oneway = np.array([[-1.0, 1.0], [0.0, 0.0]])  # no route back to regime 0

    def rates(X, xi):
        return np.broadcast_to(oneway, (X.shape[0], 2, 2)).copy()

    rep = rs.validate_model(dataclasses.replace(m, rates=rates), box_radius=3.0, samples=64)
    assert not rep.results["switching_irreducible"].passed


@pytest.mark.parametrize("radius", [np.inf, np.nan, 0.0, -1.0])
def test_validate_model_refuses_a_box_radius_not_finite_and_positive(radius):
    with pytest.raises(ValueError, match="box_radius must be positive and finite"):
        rs.validate_model(rs.make_builtin("lq"), box_radius=radius, samples=16)


@pytest.mark.parametrize("samples", [0, 1, -3])
def test_sampling_checks_refuse_fewer_than_two_samples(samples):
    # both split their samples in halves
    m = rs.make_builtin("lq")
    for check in (rs.validate_model, rs.validate_near_monotone):
        with pytest.raises(ValueError, match="samples must be >= 2"):
            check(m, 2.0, samples=samples)


def test_validate_model_rejects_malformed_rates():
    m = rs.make_builtin("ou2")

    def bad_rows(X, xi):
        return np.broadcast_to(np.array([[-1.0, 0.5], [1.0, -1.0]]),
                               (X.shape[0], 2, 2)).copy()

    def neg_off(X, xi):
        return np.broadcast_to(np.array([[1.0, -1.0], [2.0, -2.0]]),
                               (X.shape[0], 2, 2)).copy()

    with pytest.raises(ValueError):
        rs.validate_model(dataclasses.replace(m, rates=bad_rows), 3.0, samples=32)
    with pytest.raises(ValueError):
        rs.validate_model(dataclasses.replace(m, rates=neg_off), 3.0, samples=32)


# ---------------------------------------------------------------------------
# certificates


def certified(name, **entry):
    """The builtin ``name`` compiled from its spec, its certificate entry
    updated by ``entry``."""
    spec = rs.BUILTIN_MODELS[name]
    return rs.model_from_spec({**spec, "certificate": {**spec["certificate"], **entry}})


def test_lq_certificate_passes():
    m = rs.make_builtin("lq")
    rep = rs.check_lyapunov(m, m.certificate, rs.grid_for_resolution(1, 4.0, 25))
    assert rep.status == "pass"
    assert rep.margin_min > 1.0  # wide margin; regression guard only
    assert rep.side_condition_ok
    assert rep.as_dict()["mode"] == "inf_compact"


def test_ou2_certificate_passes():
    m = rs.make_builtin("ou2")
    rep = rs.check_lyapunov(m, m.certificate, rs.grid_for_resolution(1, 4.0, 25))
    assert rep.status == "pass"
    assert rep.margin_min > 0.01


def test_bounded2d_certificate_passes_geometric():
    m = rs.make_builtin("bounded2d")
    rep = rs.check_lyapunov(m, m.certificate, rs.grid_for_resolution(2, 4.0, 4))
    assert rep.status == "pass"
    assert rep.mode == "geometric"
    assert rep.side_condition_ok  # constant rate 0.15 dominates the bounded cost


def closed_form_margins(name, m, X):
    """(regime, control, node) margins of the shipped lq or ou2 certificate:
    with V = exp(x^2 / c), V' = 2x/c V and V'' = (2/c + 4x^2/c^2) V, and
    a = 1, b = -kappa_k xi x, rows of the rate matrix summing to zero."""
    p, x = m.params, X[:, 0]
    c, ell, kappa = (4.0, x**2 / 4 - 1, [1.0]) if name == "lq" else \
        (8.0, x**2 / 8, p["kappa"])
    V = np.exp(x**2 / c)
    ball = np.abs(x) <= 2.0
    beta = m.certificate.beta
    return np.array([[beta * ball - ell * V - (2 / c + 4 * x**2 / c**2) * V
                      + kappa[k] * xi * x * (2 * x / c) * V for xi in m.controls]
                     for k in range(m.num_regimes)])


@pytest.mark.parametrize("name", ["lq", "ou2"])
def test_margins_equal_the_closed_forms(name):
    m = rs.make_builtin(name, controls=(0.5, 1.0, 2.0))
    g = rs.grid_for_resolution(1, 4.0, 25)
    rep = rs.check_lyapunov(m, m.certificate, g)
    expected = closed_form_margins(name, m, g.interior_points())
    assert rep.margins.shape == expected.shape == (m.num_regimes, 3, g.num_interior)
    np.testing.assert_allclose(rep.margins, expected, rtol=1e-12, atol=1e-12 * m.certificate.beta)
    assert rep.margin_min == rep.margins.min()
    if name == "ou2":  # the form of the paper's example
        x = g.interior_points()[:, 0]
        kx = np.array(m.params["kappa"])[:, None, None] * m.controls[:, None] * x**2
        ou2 = 0.5 * (np.abs(x) <= 2) + np.exp(x**2 / 8) * (kx / 4 - 3 * x**2 / 16 - 0.25)
        np.testing.assert_allclose(rep.margins, ou2, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("overrides", [{}, {
    "diffusion": [["sqrt(2)", "0.5 * tanh(x2)"], ["0.3", "1"]],
    "certificate": {**rs.BUILTIN_MODELS["bounded2d"]["certificate"],
                    "lyap": "(1 + k) * exp(0.5 * sqrt(1 + (x1^2 + x2^2)))"}}])
def test_bounded2d_margins_match_central_differences(overrides):
    # the shipped certificate, and one whose V differs between the regimes
    # under a diffusion with off-diagonal covariance
    m = rs.model_from_spec({**rs.BUILTIN_MODELS["bounded2d"], **overrides})
    g = rs.grid_for_resolution(2, 2.0, 4)
    X, h, N = g.interior_points(), 1e-4, m.num_regimes
    cert = m.certificate

    def V(Y, k):
        return cert.lyap(Y, np.full(len(Y), k))

    e = np.eye(2) * h
    grad = np.array([[(V(X + e[i], k) - V(X - e[i], k)) / (2 * h) for i in range(2)]
                     for k in range(N)])                          # (N, dim, n)
    hess = np.array([[[(V(X + e[i] + e[j], k) - V(X + e[i] - e[j], k)
                        - V(X - e[i] + e[j], k) + V(X - e[i] - e[j], k)) / (4 * h * h)
                       for j in range(2)] for i in range(2)] for k in range(N)])
    co = rs.coefficients(m, X)
    Vx = np.array([V(X, k) for k in range(N)])
    LV = (np.einsum("knij,kijn->kn", co.covariance, hess)[:, None]
          + np.einsum("kcnd,kdn->kcn", co.drift, grad)
          + np.einsum("cnkj,jn->kcn", co.rates, Vx))
    ball = np.linalg.norm(X, axis=1) <= cert.compact_radius
    ell = np.array([cert.ell(X, np.full(len(X), k)) for k in range(N)])
    expected = (cert.beta * ball - ell * Vx)[:, None] - LV
    rep = rs.check_lyapunov(m, cert, g)
    np.testing.assert_allclose(rep.margins, expected, rtol=1e-7, atol=1e-7)


def test_constant_candidate_fails():
    # V = 1 has LV = 0, so the inequality reduces to 0 <= beta*ball - ell,
    # violated wherever ell > 0 outside the ball
    m = certified("lq", lyap="1")
    rep = rs.check_lyapunov(m, m.certificate, rs.grid_for_resolution(1, 4.0, 25))
    assert rep.status == "fail"
    assert rep.margin_min < 0


def test_tight_margin_at_the_origin_is_exact():
    # the origin's margin is beta - 1/4, the smallest on the grid; at
    # beta = 0.25005 it is 5e-5, and exact, so the check passes
    m = certified("ou2", beta=0.25005)
    rep = rs.check_lyapunov(m, m.certificate, rs.grid_for_resolution(1, 4.0, 25))
    assert rep.status == "pass"
    assert rep.argmin_state.tolist() == [0.0]
    assert rep.margin_min == pytest.approx(0.25005 - 0.25, rel=1e-9)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 0 / 0 at the origin
def test_non_finite_drift_fails():
    # V = 1 + |x1| has a kink at the origin, where L V is not finite
    m = certified("lq", lyap="1 + sqrt(x1^2)", ell="0", beta=100.0, compact_radius=10.0)
    rep = rs.check_lyapunov(m, m.certificate, rs.grid_for_resolution(1, 1.0, 4))
    assert rep.status == "fail"
    assert rep.margin_min == -np.inf and rep.argmin_state.tolist() == [0.0]


def test_certificate_below_one_rejected():
    m = certified("lq", lyap="0.5", ell="0", beta=1.0, compact_radius=1.0, mode="geometric")
    with pytest.raises(ValueError, match=">= 1"):
        rs.check_lyapunov(m, m.certificate, rs.grid_for_resolution(1, 2.0, 10))


@settings(max_examples=20, deadline=None)
@given(extra=st.floats(min_value=1e-3, max_value=5.0))
def test_margin_monotone_in_beta(extra):
    # raising beta weakens the claim, so a passing certificate keeps passing
    # and the reported margin never decreases
    m = rs.make_builtin("ou2")
    g = rs.grid_for_resolution(1, 4.0, 10)
    base = m.certificate
    r0 = rs.check_lyapunov(m, base, g)
    r1 = rs.check_lyapunov(m, dataclasses.replace(base, beta=base.beta + extra), g)
    assert r1.margin_min >= r0.margin_min - 1e-12
    assert r1.status == "pass"


def test_certificate_dim3_is_checked():
    r2 = "(x1^2 + x2^2 + x3^2)"
    m = rs.model_from_spec({
        "dim": 3, "num_regimes": 1, "controls": [1.0], "drift": ["-x1", "-x2", "-x3"],
        "diffusion": [["sqrt(2)", "0", "0"], ["0", "sqrt(2)", "0"], ["0", "0", "sqrt(2)"]],
        "rates": [["0"]], "cost": "0.05 * " + r2,
        "certificate": {"lyap": "exp(%s / 8)" % r2, "ell": r2 + " / 8", "beta": 1.0,
                        "compact_radius": 4.0, "mode": "inf_compact"}})
    g = rs.GridSpec(3, 4.0, 9)
    rep = rs.check_lyapunov(m, m.certificate, g)
    # L V = (3/4 - 3 r^2 / 16) V, so the margin is beta 1{r <= 4} + (r^2/16 - 3/4) V
    r2 = np.einsum("nd,nd->n", g.interior_points(), g.interior_points())
    expected = 1.0 * (r2 <= 16) + (r2 / 16 - 0.75) * np.exp(r2 / 8)
    np.testing.assert_allclose(rep.margins[0, 0], expected, rtol=1e-12, atol=1e-12)
    assert rep.status == "pass" and rep.margin_min == pytest.approx(expected.min(), rel=1e-12)


# the builtins are specs compiled by riskswitch.expressions; their values must
# be, bit for bit, those of the hand-written closures they replaced
OVERRIDES = {
    "lq": {"q": 0.3, "controls": (0.5, 1.5, 3.0)},
    "ou2": {"kappa": (0.5, 3.0), "q": (0.02, 0.2), "rho": 2.5},
    "bounded2d": {"pull": 1.5, "cost_scale": 0.3, "rho": 0.4, "controls": (0.5,)},
    "dip": {"pull": 1.0, "tail": 2.0, "dip": (1.5, 0.3), "width": 0.5, "rho": 1.5},
}


def assert_same_coefficients(m, ref, rng):
    def same(a, b):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()

    for n in (1, 5, 300):
        X = rng.normal(scale=3.0, size=(n, ref.dim))
        X[0] = 0.0
        for k in range(ref.num_regimes):
            (ks,) = orc.at_rows(X, k)
            same(m.diffusion(X, ks), ref.diffusion(X, ks))
            for xi in ref.controls:
                same(m.drift(X, *orc.at_rows(X, k, xi)), ref.drift(X, *orc.at_rows(X, k, xi)))
                same(m.cost(X, *orc.at_rows(X, k, xi)), ref.cost(X, *orc.at_rows(X, k, xi)))
        for xi in ref.controls:
            same(m.rates(X, *orc.at_rows(X, xi)), ref.rates(X, *orc.at_rows(X, xi)))


@pytest.mark.parametrize("overridden", [False, True])
@pytest.mark.parametrize("name", sorted(rs.BUILTIN_MODELS))
def test_builtin_specs_equal_the_closures_bitwise(name, overridden):
    params = OVERRIDES[name] if overridden else {}
    m, ref = rs.make_builtin(name, **params), orc.BUILTIN_CLOSURES[name](**params)
    assert m.params == ref.params and list(m.params) == list(ref.params)
    np.testing.assert_array_equal(m.controls, ref.controls)
    assert_same_coefficients(m, ref, np.random.default_rng(5))
    cert, expected = m.certificate, orc.builtin_certificate(name)
    assert (cert is None) == (expected is None)
    if cert is not None:
        lyap, ell, beta, radius, mode = expected
        X = np.random.default_rng(6).normal(scale=3.0, size=(50, m.dim))
        for k in range(m.num_regimes):
            (ks,) = orc.at_rows(X, k)
            assert cert.lyap(X, ks).tobytes() == lyap(X, ks).tobytes()
            assert cert.ell(X, ks).tobytes() == ell(X, ks).tobytes()
        assert (cert.beta, cert.compact_radius, cert.mode.value) == (beta, radius, mode)


@pytest.mark.parametrize("name", sorted(rs.BUILTIN_MODELS))
def test_builtin_spec_round_trips_through_json(name):
    spec = json.loads(json.dumps(rs.BUILTIN_MODELS[name]))
    m = rs.model_from_spec(spec)
    assert m.name == name
    assert_same_coefficients(m, rs.make_builtin(name), np.random.default_rng(8))
    # a spec read from JSON is a custom model, whatever its name, and carries
    # the certificate of its spec
    assert m.params == {"config": spec}
    cert, ref = m.certificate, rs.make_builtin(name).certificate
    assert (cert is None) == (ref is None) == ("certificate" not in spec)
    if cert is not None:
        X = np.random.default_rng(9).normal(scale=3.0, size=(50, m.dim))
        for k in range(m.num_regimes):
            (ks,) = orc.at_rows(X, k)
            for f in ("lyap", "ell", "grad", "hess"):
                assert getattr(cert, f)(X, ks).tobytes() == getattr(ref, f)(X, ks).tobytes()


def test_the_certificate_comes_from_the_spec():
    m = rs.make_builtin("ou2")
    assert m.certificate is not None
    assert m.with_cost(lambda X, k, xi: np.zeros(len(X))).certificate is None
    assert dataclasses.replace(m, name="ou2").certificate is None
    assert rs.make_builtin("dip").certificate is None
    spec = {key: v for key, v in rs.BUILTIN_MODELS["ou2"].items() if key != "certificate"}
    assert rs.model_from_spec(spec).certificate is None


def test_builtin_override_errors():
    with pytest.raises(TypeError, match="no parameter 'theta'"):
        rs.make_builtin("bounded2d", theta=1.0)
    with pytest.raises(ValueError, match="one per regime"):
        rs.make_builtin("ou2", q=0.05)
    with pytest.raises(ValueError, match="kappa"):
        rs.make_builtin("ou2", kappa=(1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match="a number"):
        rs.make_builtin("lq", q=(0.1,))
    with pytest.raises(ValueError, match="rho must be positive"):
        rs.make_builtin("ou2", rho=0.0)


def test_constant_coefficients_are_read_only_views():
    m = rs.make_builtin("bounded2d")
    X = np.zeros((7, 2))
    K = np.array([0, 1, 1, 0, 1, 0, 0])
    for out in (m.diffusion(X, K), m.rates(X, np.full(7, 0.7))):
        assert out.shape == (7, 2, 2) and not out.flags.writeable
    np.testing.assert_array_equal(m.rates(X, np.full(7, 0.7))[3], [[-1.0, 1.0], [1.0, -1.0]])
    # a diffusion that depends on the regime alone reads each row's regime
    # from its table, into an array of its own
    spec = {**rs.BUILTIN_MODELS["ou2"], "params": {"s": [1.0, 2.0], "rho": 1.0, "q": 0.1},
            "drift": ["-x1"], "diffusion": [["s"]], "cost": "q * x1^2"}
    sig = rs.model_from_spec(spec).diffusion(np.zeros((7, 1)), K)
    assert sig.shape == (7, 1, 1) and sig.flags.writeable
    np.testing.assert_array_equal(sig[:, 0, 0], np.array([1.0, 2.0])[K])
