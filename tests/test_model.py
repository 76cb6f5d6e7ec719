"""Model hypothesis validation and Lyapunov certificate checking."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import riskswitch as rs
from riskswitch.model import builtin_certificate, CertificateMode, LyapunovCertificate

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


def test_lq_certificate_passes():
    m = rs.make_builtin("lq")
    rep = rs.check_lyapunov(m, builtin_certificate(m), rs.grid_for_resolution(1, 4.0, 25))
    assert rep.status == "pass"
    assert rep.margin_min > 1.0  # wide margin; regression guard only
    assert rep.side_condition_ok
    assert rep.as_dict()["mode"] == "inf_compact"


def test_ou2_certificate_passes():
    m = rs.make_builtin("ou2")
    rep = rs.check_lyapunov(m, builtin_certificate(m), rs.grid_for_resolution(1, 4.0, 25))
    assert rep.status == "pass"
    assert rep.margin_min > 0.01


def test_bounded2d_certificate_passes_geometric():
    m = rs.make_builtin("bounded2d")
    rep = rs.check_lyapunov(m, builtin_certificate(m), rs.grid_for_resolution(2, 4.0, 4))
    assert rep.status == "pass"
    assert rep.mode == "geometric"
    assert rep.side_condition_ok  # constant rate 0.15 dominates the bounded cost


def test_constant_candidate_fails():
    # V = 1 has LV = 0, so the inequality reduces to 0 <= beta*ball - ell,
    # violated wherever ell > 0 outside the ball
    m = rs.make_builtin("lq")
    cert = LyapunovCertificate(
        lyap=lambda X, k: np.ones(X.shape[0]),
        ell=lambda X, k: X[:, 0] ** 2 / 4.0 - 1.0,
        beta=2.0, compact_radius=2.0, mode=CertificateMode.INF_COMPACT)
    rep = rs.check_lyapunov(m, cert, rs.grid_for_resolution(1, 4.0, 25))
    assert rep.status == "fail"
    assert rep.margin_min < 0


def test_truncation_dominated_margin_is_inconclusive():
    # on the npu=25 grid the origin margin is beta - 0.2500250... and the
    # truncation estimate there is 5.4e-5, so this beta lands the minimum
    # margin inside (0, truncation): the checker must refuse to certify
    m = rs.make_builtin("ou2")
    cert = dataclasses.replace(builtin_certificate(m), beta=0.25005)
    rep = rs.check_lyapunov(m, cert, rs.grid_for_resolution(1, 4.0, 25))
    assert rep.status == "inconclusive"
    assert 0 <= rep.margin_min < rep.truncation_at_argmin


def test_certificate_below_one_rejected():
    m = rs.make_builtin("lq")
    cert = LyapunovCertificate(
        lyap=lambda X, k: np.full(X.shape[0], 0.5),
        ell=lambda X, k: np.zeros(X.shape[0]),
        beta=1.0, compact_radius=1.0, mode=CertificateMode.GEOMETRIC)
    with pytest.raises(ValueError, match=">= 1"):
        rs.check_lyapunov(m, cert, rs.grid_for_resolution(1, 2.0, 10))


@settings(max_examples=20, deadline=None)
@given(extra=st.floats(min_value=1e-3, max_value=5.0))
def test_margin_monotone_in_beta(extra):
    # raising beta weakens the claim, so a passing certificate keeps passing
    # and the reported margin never decreases
    m = rs.make_builtin("ou2")
    g = rs.grid_for_resolution(1, 4.0, 10)
    base = builtin_certificate(m)
    r0 = rs.check_lyapunov(m, base, g)
    r1 = rs.check_lyapunov(m, dataclasses.replace(base, beta=base.beta + extra), g)
    assert r1.margin_min >= r0.margin_min - 1e-12
    assert r1.status == "pass"


def test_certificate_dim3_not_implemented():
    m = dataclasses.replace(
        rs.make_builtin("lq"), dim=3,
        drift=lambda X, k, xi: -X,
        diffusion=lambda X, k: np.broadcast_to(np.eye(3) * math.sqrt(2),
                                               (X.shape[0], 3, 3)).copy(),
        cost=lambda X, k, xi: np.einsum("nd,nd->n", X, X))
    cert = LyapunovCertificate(
        lyap=lambda X, k: np.exp(np.einsum("nd,nd->n", X, X) / 8.0),
        ell=lambda X, k: np.zeros(X.shape[0]),
        beta=1.0, compact_radius=1.0, mode=CertificateMode.INF_COMPACT)
    with pytest.raises(NotImplementedError):
        rs.check_lyapunov(m, cert, rs.build_grid(3, 1.0, 5))


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
    cert, expected = builtin_certificate(m), orc.builtin_certificate(name)
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
    # a spec read from JSON is a custom model, whatever its name
    assert builtin_certificate(m) is None


def test_only_make_builtin_attaches_a_certificate():
    m = rs.make_builtin("ou2")
    assert builtin_certificate(m) is not None
    assert builtin_certificate(m.with_cost(lambda X, k, xi: np.zeros(len(X)))) is None
    assert builtin_certificate(dataclasses.replace(m, name="ou2")) is None
    assert builtin_certificate(rs.make_builtin("dip")) is None


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
