"""The command line's exit-code contract under generated JSON models.

Every run of ``cli.main`` on a model drawn from the spec grammar must keep
four rules: no exception escapes ``main``; the exit code is 0, 1, 2 or 3;
on exit 2 or 3 stdout is the JSON error and no command artifact is written;
on exit 0 no artifact holds a NaN or an infinity.  The models have 1-2
coordinates and 1-2 regimes, expressions of depth <= 3 over x, k and xi,
constants up to 1e19 and degenerate diffusions, and sometimes a Lyapunov
certificate whose candidate is drawn from the whole grammar (so abs, min
and max, which the compiler refuses to differentiate, come up too), and run
at small sizes through ``solve``, ``verify`` (with and without a 64-path
simulation), ``simulate`` and ``validate --near-monotone``.
"""

import contextlib
import io
import json
import os
import re
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from riskswitch.cli import main

# large constants make the eigensolver's shift round (see test_cli's huge costs)
CONSTANTS = ["0", "0.5", "1", "2", "1e15", "1e17", "1e19"]
NON_FINITE = {"nan", "-nan", "inf", "-inf", "infinity", "-infinity"}
GRID = ["--radius", "2", "--nodes-per-unit", "5"]
PATHS = ["--paths", "64", "--step", "0.02", "--horizon", "1"]


def expressions(variables, depth=3):
    """Expressions of depth at most ``depth`` over ``variables`` and CONSTANTS."""
    leaf = st.sampled_from(variables + CONSTANTS)
    if depth == 0:
        return leaf
    sub = expressions(variables, depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, st.sampled_from("+-*/^"), sub).map("(%s %s %s)".__mod__),
        st.tuples(st.sampled_from(["exp", "sqrt", "abs", "tanh"]), sub).map("%s(%s)".__mod__),
        st.tuples(st.sampled_from(["min", "max"]), sub, sub).map("%s(%s, %s)".__mod__),
        sub.map("-%s".__mod__))


@st.composite
def models(draw):
    dim, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    x = ["x%d" % (i + 1) for i in range(dim)]
    entry, cost = expressions(x + ["k"]), expressions(x + ["k", "xi"])
    diffusion = draw(st.one_of(
        st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim),
        st.just([["0"] * dim] * dim),
        entry.map(lambda e: [[e] * dim] * dim)))  # rank one
    rates = [["0"]]
    if n == 2:
        a, b = (draw(st.one_of(st.sampled_from(CONSTANTS), expressions(x + ["xi"]).map(
            "abs(%s)".__mod__))) for _ in range(2))
        rates = [["-(%s)" % a, a], [b, "-(%s)" % b]]
    spec = {"name": "generated", "dim": dim, "num_regimes": n,
            "controls": draw(st.sampled_from([[1.0], [1.0, 2.0], [0.5, 1.0, 2.0]])),
            "drift": draw(st.lists(expressions(x + ["k", "xi"]), min_size=dim,
                                   max_size=dim)),
            "diffusion": diffusion, "rates": rates,
            "cost": draw(st.one_of(cost, cost.map("abs(%s)".__mod__)))}
    if draw(st.booleans()):
        # exp of a square is >= 1, so those candidates reach the drift check
        lyap = expressions(x + ["k"])
        spec["certificate"] = {
            "lyap": draw(st.one_of(lyap, lyap.map("exp((%s)^2)".__mod__))),
            "ell": draw(expressions(x + ["k"])),
            "beta": draw(st.sampled_from([0.0, 0.5, 1e19])),
            "compact_radius": draw(st.sampled_from([0.5, 2.0])),
            "mode": draw(st.sampled_from(["inf_compact", "geometric"]))}
    return spec


def commands(functional):
    return [["solve"] + GRID,
            ["verify", "--skip-simulation", "--alt-policies", "1", "--samples", "16"] + GRID,
            ["verify", "--alt-policies", "1", "--samples", "16", "--rate-policies", "1",
             "--fk-horizon", "0.02"] + GRID + PATHS,
            ["simulate", "--functional", functional] + PATHS,
            ["validate", "--near-monotone", "--samples", "32"] + GRID]


def holds_non_finite(path):
    with open(path) as fh:
        return any(t.lower() in NON_FINITE for t in re.split(r"[\s,:\[\]{}\"]+", fh.read()))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow, 0/0 and the like
@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(spec=models(), functional=st.sampled_from(["rate", "mean-position", "paths"]))
@example(spec={"name": "huge-cost", "dim": 1, "num_regimes": 1, "controls": [1, 2],
               "drift": ["-xi * x1"], "diffusion": [["sqrt(2)"]], "rates": [["0"]],
               "cost": "1e19"}, functional="rate")
def test_generated_models_keep_the_exit_code_contract(spec, functional):
    with tempfile.TemporaryDirectory() as tmp:
        model = os.path.join(tmp, "model.json")
        with open(model, "w") as fh:
            json.dump(spec, fh)
        for i, argv in enumerate(commands(functional)):
            out = os.path.join(tmp, str(i))
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv + ["--model", model, "--output-dir", out])
            assert code in (0, 1, 2, 3), argv
            # run_meta.json is written by main after every command; it echoes argv
            artifacts = [f for f in os.listdir(out) if f != "run_meta.json"]
            if code in (2, 3):
                assert json.loads(buf.getvalue())["exit_code"] == code
                assert artifacts == [], argv
            if code == 0:
                assert not [f for f in artifacts
                            if holds_non_finite(os.path.join(out, f))], argv
