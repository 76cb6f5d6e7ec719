"""Model specs: the expression grammar and the one compiler of every model.

A spec is a JSON object (see README "JSON model configs"): ``dim``,
``num_regimes``, ``controls``, optional named ``params``, ``drift`` (one
expression per coordinate), ``diffusion`` (dim x dim), ``rates`` (N x N,
rows summing to zero) and ``cost``; or ``{"builtin": name, "params": ...}``,
which names one of the specs in :data:`riskswitch.model.BUILTIN_MODELS`.

Grammar (whitelisted Python expression syntax): ``+ - * / ^`` (``^`` is
exponentiation), unary ``-``/``+``, ``exp sqrt abs tanh`` and binary
``min max`` (elementwise), numeric literals, the coordinates ``x1 .. xd``,
``k`` (regime, 0-based; not in the rates), ``xi`` (control value; not in the
diffusion), and the spec's parameters: a number, or a list with one entry
per regime that is read at regime ``k``.

Each coefficient compiles once into one generated function of straight-line
numpy code: one operation per node of its entries' expression DAG.  Its nodes
are hash-consed, so each distinct subexpression is one node, computed once,
and every subexpression without a variable is folded at compile time.  A
certificate's gradient and Hessian are nodes of its candidate's DAG, which
the compiler differentiates node by node.  The functions are row-wise (``k``
and ``xi`` hold one value per row; a per-regime parameter is read at each
row's regime), and evaluation order is that of the expressions as written,
so the values are bit for bit what evaluating each entry with numpy gives.
A coefficient that depends on neither x nor xi is tabulated once and returns
a gather of its per-regime table, or, without k, a read-only broadcast view.
"""

import ast
import collections
import json
import keyword
import numbers
import re

import numpy as np

from .model import CertificateMode, LyapunovCertificate, SwitchingModel, make_builtin


class ExpressionError(ValueError):
    pass


_FUNCTIONS = {"exp": (np.exp, 1), "sqrt": (np.sqrt, 1), "abs": (np.abs, 1),
              "tanh": (np.tanh, 1), "min": (np.minimum, 2), "max": (np.maximum, 2)}
_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "**"}
# no leading underscore: generated names have one
_PARAM_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_VARIABLE = re.compile(r"x\d+\Z|k\Z|xi\Z")
# rows of the broadcast view behind a tabulated coefficient (stride 0, no memory)
_VIEW_ROWS = 1 << 40


def _real(value):
    """A number of the spec: not a bool or a string, which float() would coerce."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _count(spec, key):
    value = spec[key]
    if not (isinstance(value, numbers.Integral) and _real(value) and value >= 1):
        raise ExpressionError("%s must be a positive integer, got %r" % (key, value))
    return int(value)


def _parameters(spec_params, num_regimes):
    """A spec's named parameters, each a float or a tuple of one float per regime."""
    if not isinstance(spec_params, dict):
        raise ExpressionError("'params' must be an object")
    out = {}
    for name, value in spec_params.items():
        if not (isinstance(name, str) and _PARAM_NAME.match(name)) or keyword.iskeyword(name) \
                or _VARIABLE.match(name) or name in _FUNCTIONS:
            raise ExpressionError("parameter name %r must be an identifier that is not a "
                                  "variable (x1.., k, xi) or a function" % (name,))
        if isinstance(value, np.ndarray):
            value = value.tolist()
        if _real(value):
            out[name] = float(value)
        elif isinstance(value, (list, tuple)) and len(value) == num_regimes \
                and all(map(_real, value)):
            out[name] = tuple(float(v) for v in value)
        else:
            raise ExpressionError("parameter %s must be a number or a list of %d numbers, "
                                  "one per regime; got %r" % (name, num_regimes, value))
    return out


# d f(u) / du of each differentiable function, a node of the DAG of f(u)
_CHAIN = {"exp": lambda code, f: f,
          "sqrt": lambda code, f: code.op("/", code.constant(0.5), f),
          "tanh": lambda code, f: code.op("-", code.constant(1), code.op("*", f, f))}


class _Code:
    """The expression DAG of one coefficient, or of a certificate's candidate
    with its derivatives, and the code it generates.

    A node is (template, args, deps), ``deps`` the subset of {"x", "k",
    "xi"} its value depends on; one without deps is folded into a constant
    by the arithmetic the call would make.  A repeated (template, args)
    pair, constant (by type and repr) or name returns the node made before.
    A generated function computes the nodes its roots reach; one used more
    than once there gets a temporary, all others are inlined, so their
    arrays are freed as soon as their one consumer has run.
    """

    def __init__(self, params, dim, *variables):
        self.params, self.dim = params, dim
        self.variables = frozenset(["x%d" % (i + 1) for i in range(dim)] + list(variables))
        self.env = {"__builtins__": {}, "_empty": np.empty, "_float": float}
        self.env.update((name, fn) for name, (fn, _) in _FUNCTIONS.items())
        self.nodes, self.ids, self.bindings = [], {}, {}

    def _node(self, template, args=(), deps=None):
        key = (template, args)
        if key in self.ids:
            return self.ids[key]
        if deps is None:
            deps = frozenset().union(*(self.nodes[a][2] for a in args))
            if not deps:
                text = template % tuple(self.nodes[a][0] for a in args)
                try:
                    value = eval(text, self.env)
                except ArithmeticError as exc:
                    raise ExpressionError("constant subexpression fails: %s" % exc) from None
                # abs, min and max of int literals fold to numpy integers
                if isinstance(value, (np.integer, np.floating)):
                    value = float(value)
                if not isinstance(value, (int, float)):
                    raise ExpressionError("constant %r is not a real number" % (value,))
                return self.ids.setdefault(key, self.constant(value))
        self.nodes.append((template, args, deps))
        return self.ids.setdefault(key, len(self.nodes) - 1)

    def constant(self, value):
        key = (type(value), repr(value))  # keeps 0 and 0.0 and -0.0 apart
        if key not in self.ids:
            name = "_c%d" % len(self.env)
            self.env[name] = value
            self.ids[key] = self._node(name, deps=frozenset())
        return self.ids[key]

    def op(self, symbol, a, b):
        return self._node("(%%s %s %%s)" % symbol, (a, b))

    def _name(self, name):
        value = self.params.get(name)
        if isinstance(value, float):
            return self.constant(value)
        if isinstance(value, tuple) and "k" in self.variables:
            self.env["_p_" + name] = np.array(value)
            line, dep = "%s = _p_%s[_k]" % (name, name), "k"
        elif name not in self.variables:
            allowed = sorted(self.variables) + sorted(
                p for p, v in self.params.items() if isinstance(v, float) or "k" in self.variables)
            raise ExpressionError("unknown variable %r (allowed: %s)" % (name, ", ".join(allowed)))
        elif name in ("k", "xi"):
            line, dep = ("k = _k.astype(_float)" if name == "k" else None), name
        else:
            line, dep = "%s = _X[:, %d]" % (name, int(name[1:]) - 1), "x"
        node = self._node(name, deps=frozenset([dep]))
        if line:
            self.bindings[node] = line
        return node

    def expression(self, source):
        """The node of one expression, checked against the grammar."""
        if not isinstance(source, str):
            raise ExpressionError("expression must be a string, got %r" % (source,))
        try:
            tree = ast.parse(source.replace("^", "**"), mode="eval").body
        except SyntaxError as exc:
            raise ExpressionError("cannot parse expression %r: %s" % (source, exc)) from None
        return self._visit(tree)

    def _visit(self, node):
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return self.op(_BINOPS[type(node.op)], self._visit(node.left), self._visit(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            return self._node("(-%s)" if isinstance(node.op, ast.USub) else "(+%s)",
                              (self._visit(node.operand),))
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
                raise ExpressionError("only %s may be called" % ", ".join(_FUNCTIONS))
            arity = _FUNCTIONS[node.func.id][1]
            if len(node.args) != arity or node.keywords:
                raise ExpressionError("%s takes exactly %d positional argument(s)"
                                      % (node.func.id, arity))
            return self._node("%s(%s)" % (node.func.id, ", ".join(["%s"] * arity)),
                              tuple(self._visit(a) for a in node.args))
        if isinstance(node, ast.Name):
            return self._name(node.id)
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return self.constant(node.value)
        raise ExpressionError("syntax %s is not in the grammar"
                              % type(getattr(node, "op", node)).__name__)

    def _is(self, node, value):
        return not self.nodes[node][2] and self.env[self.nodes[node][0]] == value

    def _sum(self, a, b, symbol="+"):
        """a + b (or a - b), folding a zero term."""
        if self._is(b, 0):
            return a
        if self._is(a, 0):
            return b if symbol == "+" else self._node("(-%s)", (b,))
        return self.op(symbol, a, b)

    def _product(self, a, b):
        """a * b, folding a factor 0 or 1."""
        if self._is(a, 0) or self._is(b, 0):
            return self.constant(0)
        if self._is(a, 1) or self._is(b, 1):
            return b if self._is(a, 1) else a
        return self.op("*", a, b)

    def derivative(self, node, x):
        """d node / d x for a coordinate name ``x``, a node of the same DAG."""
        template, args, _ = self.nodes[node]
        if not args:
            return self.constant(int(template == x))
        d = lambda i: self.derivative(args[i], x)
        if template in ("(%s + %s)", "(%s - %s)"):
            return self._sum(d(0), d(1), template[4])
        if template == "(%s * %s)":
            return self._sum(self._product(d(0), args[1]), self._product(args[0], d(1)))
        if template == "(%s / %s)":  # (a' - (a / b) b') / b
            top = self._sum(d(0), self._product(node, d(1)), "-")
            return top if self._is(top, 0) else self.op("/", top, args[1])
        if template == "(%s ** %s)":
            if "x" in self.nodes[args[1]][2]:
                raise ExpressionError("cannot differentiate ^: an exponent may not depend on x")
            power = self.op("**", args[0], self.op("-", args[1], self.constant(1)))
            return self._product(self._product(args[1], power), d(0))
        if template in ("(-%s)", "(+%s)"):
            du = d(0)
            return du if template == "(+%s)" or self._is(du, 0) else self._node("(-%s)", (du,))
        function = template[:template.index("(")]
        if function not in _CHAIN:
            raise ExpressionError("cannot differentiate %s: only %s and + - * / ^ have "
                                  "derivatives" % (function, ", ".join(_CHAIN)))
        return self._product(_CHAIN[function](self, node), d(0))


def _compile(code, roots, shape, num_regimes):
    """One function ``fn(X, [k,] [xi]) -> (n, *shape)`` of the nodes
    ``roots`` (row-major over ``shape``) at the states X (n, dim), with
    ``k`` (n,) integers and ``xi`` (n,) floats, one per row."""
    uses = collections.Counter(roots)  # within the nodes the roots reach
    for i in range(max(roots), -1, -1):
        if uses[i]:
            uses.update(code.nodes[i][1])
    body, names = [code.bindings[i] for i in sorted(uses) if i in code.bindings], {}

    def render(i):
        template, args, _ = code.nodes[i]
        return names.get(i) or template % tuple(render(a) for a in args)

    for i in sorted(uses):
        if code.nodes[i][1] and uses[i] > 1:
            body.append("_t%d = %s" % (i, render(i)))
            names[i] = "_t%d" % i
    texts = [render(r) for r in roots]
    deps = frozenset().union(*(code.nodes[r][2] for r in roots))
    args = ", ".join(["_X"] + ["_k"] * ("k" in code.variables) + ["xi"] * ("xi" in code.variables))
    if len(texts) == 1 and deps:
        # a bare variable is returned as a copy, never as a view of an argument
        text = "(+%s)" % texts[0] if _VARIABLE.match(texts[0]) else texts[0]
        body.append("return " + text + "[:, None]" * len(shape))
    else:
        body.append("_out = _empty((_X.shape[0], %s))" % "".join("%d, " % s for s in shape))
        body += ["_out[:, %s] = %s" % (", ".join(map(str, index)), text)
                 for index, text in zip(np.ndindex(*shape), texts)]
        body.append("return _out")
    fn = _define(args, body, code.env)
    if "x" in deps or "xi" in deps:
        return fn
    table = np.concatenate([fn(np.zeros((1, code.dim)), *[np.array([k])] * ("k" in code.variables),
                               *[np.zeros(1)] * ("xi" in code.variables))
                            for k in range(num_regimes if "k" in deps else 1)])
    if "k" in deps:
        return _define(args, ["return _table[_k]"], {"_table": table})
    view = np.broadcast_to(table[0], (_VIEW_ROWS,) + shape)
    return _define(args, ["return _view[:_X.shape[0]]"], {"_view": view})


def _define(args, body, env):
    source = "def _fn(%s):\n%s\n" % (args, "\n".join("    " + line for line in body))
    exec(compile(source, "<model-expression>", "exec"), env)
    return env["_fn"]


def compile_expression(source, dim):
    """Compile one grammar expression into ``fn(X, k, xi) -> (n,)`` for
    states X of shape (n, dim), regimes k (n,) and controls xi (n,)."""
    code = _Code({}, dim, "k", "xi")
    return _compile(code, [code.expression(source)], (), 1)


def compile_model(spec, builtin=False):
    """SwitchingModel of a full spec.

    A custom model records the spec as ``params["config"]``; a builtin
    records its named parameters and controls instead.  Either carries the
    certificate of its spec's ``certificate`` entry, if any, whose ``lyap``
    comes with its gradient and Hessian, differentiated in the grammar.
    """
    try:
        dim, num_regimes = _count(spec, "dim"), _count(spec, "num_regimes")
        controls = spec["controls"]
        drift, diffusion, rates = spec["drift"], spec["diffusion"], spec["rates"]
        cost = spec["cost"]
    except KeyError as exc:
        raise ExpressionError("model configuration is missing key %s" % exc) from None
    if isinstance(controls, np.ndarray):
        controls = controls.tolist()
    if not isinstance(controls, (list, tuple)) or not all(map(_real, controls)):
        raise ExpressionError("controls must be a list of numbers, got %r" % (controls,))
    controls = [float(c) for c in controls]
    if len(drift) != dim:
        raise ExpressionError("drift must list %d expressions" % dim)
    if len(diffusion) != dim or any(len(row) != dim for row in diffusion):
        raise ExpressionError("diffusion must be a %dx%d nested list" % (dim, dim))
    if len(rates) != num_regimes or any(len(row) != num_regimes for row in rates):
        raise ExpressionError("rates must be a %dx%d nested list" % (num_regimes, num_regimes))
    params = _parameters(spec.get("params", {}), num_regimes)

    def function(sources, shape, *variables):
        code = _Code(params, dim, *variables)
        return _compile(code, [code.expression(s) for s in sources], shape, num_regimes)

    model = SwitchingModel(
        name=str(spec.get("name", "custom")), dim=dim, num_regimes=num_regimes,
        controls=controls, drift=function(drift, (dim,), "k", "xi"),
        diffusion=function([s for row in diffusion for s in row], (dim, dim), "k"),
        rates=function([s for row in rates for s in row], (num_regimes, num_regimes), "xi"),
        cost=function([cost], (), "k", "xi"),
        params=({**{name: list(v) if isinstance(v, tuple) else v for name, v in params.items()},
                 "controls": controls} if builtin else {"config": dict(spec)}))
    cert = spec.get("certificate")
    if cert is not None:
        try:
            lyap, ell, beta, radius, mode = (cert[key] for key in
                                             ("lyap", "ell", "beta", "compact_radius", "mode"))
        except KeyError as exc:
            raise ExpressionError("certificate is missing key %s" % exc) from None
        for key, value in (("beta", beta), ("compact_radius", radius)):
            if not (_real(value) and np.isfinite(value)):
                raise ExpressionError("certificate %s must be a finite number, got %r"
                                      % (key, value))
        code, x = _Code(params, dim, "k"), ["x%d" % (i + 1) for i in range(dim)]
        root = code.expression(lyap)  # checks the grammar before differentiating
        try:
            grad = [code.derivative(root, name) for name in x]
            hess = [code.derivative(grad[min(i, j)], x[max(i, j)])
                    for i in range(dim) for j in range(dim)]
        except ExpressionError as exc:
            raise ExpressionError("%s (certificate lyap %r)" % (exc, lyap)) from None
        object.__setattr__(model, "certificate", LyapunovCertificate(
            lyap=_compile(code, [root], (), num_regimes), ell=function([ell], (), "k"),
            beta=float(beta), compact_radius=float(radius), mode=CertificateMode(mode),
            grad=_compile(code, grad, (dim,), num_regimes),
            hess=_compile(code, hess, (dim, dim), num_regimes)))
    return model


def model_from_spec(spec):
    """Build a SwitchingModel from a decoded configuration dictionary."""
    if not isinstance(spec, dict):
        raise ExpressionError("model configuration must be a JSON object")
    if "builtin" in spec:
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise ExpressionError("'params' must be an object")
        return make_builtin(spec["builtin"], **params)
    return compile_model(spec)


def load_model(path):
    """Load a model configuration from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ExpressionError("invalid JSON in %s: %s" % (path, exc)) from None
    return model_from_spec(spec)
