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
numpy code: one operation per node of its entries' expression DAG, each
distinct subexpression computed once, and every subexpression without a
variable folded at compile time.  The functions are row-wise (``k`` and
``xi`` hold one value per row; a per-regime parameter is read at each row's
regime), and evaluation order is that of the expressions as written, so the
values are bit for bit what evaluating each entry with numpy gives.  A
coefficient that depends on neither x nor xi is tabulated once and returns a
gather of its per-regime table, or, without k, a read-only broadcast view.
"""

import ast
import json
import keyword
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
_COORDINATE = re.compile(r"x\d+\Z")
# rows of the broadcast view behind a tabulated coefficient (stride 0, no memory)
_VIEW_ROWS = 1 << 40


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
        try:
            arr = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            arr = np.empty(0)
        if arr.ndim == 0 or arr.shape == (num_regimes,):
            out[name] = float(arr) if arr.ndim == 0 else tuple(arr.tolist())
        else:
            raise ExpressionError("parameter %s must be a number or a list of %d numbers, "
                                  "one per regime; got %r" % (name, num_regimes, value))
    return out


def _parse(source):
    """The syntax tree of one expression (not yet checked against the grammar)."""
    if not isinstance(source, str):
        raise ExpressionError("expression must be a string, got %r" % (source,))
    try:
        return ast.parse(source.replace("^", "**"), mode="eval").body
    except SyntaxError as exc:
        raise ExpressionError("cannot parse expression %r: %s" % (source, exc)) from None


def _is(node, value):
    return isinstance(node, ast.Constant) and node.value == value


def _sum(a, b, op=ast.Add):
    """a + b (or a - b), folding a zero term."""
    if _is(b, 0):
        return a
    if _is(a, 0):
        return b if op is ast.Add else ast.UnaryOp(ast.USub(), b)
    return ast.BinOp(a, op(), b)


def _product(a, b):
    """a * b, folding a factor 0 or 1."""
    if _is(a, 0) or _is(b, 0):
        return ast.Constant(0)
    if _is(a, 1) or _is(b, 1):
        return b if _is(a, 1) else a
    return ast.BinOp(a, ast.Mult(), b)


# d f(u) / du of each differentiable function, from the node f(u)
_CHAIN = {"exp": lambda node: node,
          "sqrt": lambda node: ast.BinOp(ast.Constant(0.5), ast.Div(), node),
          "tanh": lambda node: ast.BinOp(ast.Constant(1), ast.Sub(),
                                         ast.BinOp(node, ast.Mult(), node))}


def _derivative(node, x):
    """The tree of d node / d x for a coordinate name ``x``, of a tree that
    compiled in the grammar: again a grammar tree, sharing the subtrees of
    ``node``, with products by 0 and 1 and sums with 0 folded."""
    if isinstance(node, ast.BinOp):
        a, b, op = node.left, node.right, type(node.op)
        if op in (ast.Add, ast.Sub):
            return _sum(_derivative(a, x), _derivative(b, x), op)
        if op is ast.Mult:
            return _sum(_product(_derivative(a, x), b), _product(a, _derivative(b, x)))
        if op is ast.Div:  # (a' - (a / b) b') / b
            top = _sum(_derivative(a, x), _product(node, _derivative(b, x)), ast.Sub)
            return top if _is(top, 0) else ast.BinOp(top, ast.Div(), b)
        if any(isinstance(n, ast.Name) and _COORDINATE.match(n.id) for n in ast.walk(b)):
            raise ExpressionError("cannot differentiate %s: an exponent may not depend on x"
                                  % ast.unparse(node).replace("**", "^"))
        power = ast.BinOp(a, ast.Pow(), ast.BinOp(b, ast.Sub(), ast.Constant(1)))
        return _product(_product(b, power), _derivative(a, x))
    if isinstance(node, ast.UnaryOp):
        du = _derivative(node.operand, x)
        return du if isinstance(node.op, ast.UAdd) or _is(du, 0) else ast.UnaryOp(ast.USub(), du)
    if isinstance(node, ast.Call):
        if node.func.id not in _CHAIN:
            raise ExpressionError("cannot differentiate %s: only %s and + - * / ^ have "
                                  "derivatives" % (node.func.id, ", ".join(_CHAIN)))
        return _product(_CHAIN[node.func.id](node), _derivative(node.args[0], x))
    return ast.Constant(int(isinstance(node, ast.Name) and node.id == x))


class _Code:
    """The expression DAG of one coefficient and the code it generates.

    A node is (template, args, deps), ``deps`` the subset of {"x", "k",
    "xi"} its value depends on; one without deps is folded into a constant
    by the arithmetic the call would make.  A node used more than once gets
    a temporary; all others are inlined, so their arrays are freed as soon
    as their one consumer has run.
    """

    def __init__(self, params, variables):
        self.params, self.variables = params, variables
        self.env = {"__builtins__": {}, "_empty": np.empty, "_float": float}
        self.env.update((name, fn) for name, (fn, _) in _FUNCTIONS.items())
        self.bindings, self.nodes, self.uses, self.memo = [], [], [], {}

    def _node(self, template, args=(), deps=None):
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
                return self._constant(value)
        for a in args:
            self.uses[a] += 1
        self.nodes.append((template, args, deps))
        self.uses.append(0)
        return len(self.nodes) - 1

    def _constant(self, value):
        name = "_c%d" % len(self.env)
        self.env[name] = value
        return self._node(name, deps=frozenset())

    def _name(self, name):
        value = self.params.get(name)
        if isinstance(value, float):
            return self._constant(value)
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
        if line:
            self.bindings.append(line)
        return self._node(name, deps=frozenset([dep]))

    def operand(self, node):
        key = ast.dump(node)
        if key not in self.memo:
            self.memo[key] = self._visit(node)
        return self.memo[key]

    def _visit(self, node):
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return self._node("(%%s %s %%s)" % _BINOPS[type(node.op)],
                              (self.operand(node.left), self.operand(node.right)))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            return self._node("(-%s)" if isinstance(node.op, ast.USub) else "(+%s)",
                              (self.operand(node.operand),))
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
                raise ExpressionError("only %s may be called" % ", ".join(_FUNCTIONS))
            arity = _FUNCTIONS[node.func.id][1]
            if len(node.args) != arity or node.keywords:
                raise ExpressionError("%s takes exactly %d positional argument(s)"
                                      % (node.func.id, arity))
            return self._node("%s(%s)" % (node.func.id, ", ".join(["%s"] * arity)),
                              tuple(self.operand(a) for a in node.args))
        if isinstance(node, ast.Name):
            return self._name(node.id)
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return self._constant(node.value)
        raise ExpressionError("syntax %s is not in the grammar"
                              % type(getattr(node, "op", node)).__name__)

    def entry(self, source):
        root = self.operand(source if isinstance(source, ast.AST) else _parse(source))
        self.uses[root] += 1
        return root

    def body(self, roots):
        """Statements up to the entries, and the text of each entry."""
        lines, names = list(self.bindings), {}

        def text(i):
            template, args, _ = self.nodes[i]
            return names.get(i) or template % tuple(text(a) for a in args)

        for i, (_, args, _) in enumerate(self.nodes):
            if args and self.uses[i] > 1:
                lines.append("_t%d = %s" % (i, text(i)))
                names[i] = "_t%d" % i
        return lines, [text(r) for r in roots]


def _compile(sources, shape, dim, params, num_regimes, *variables):
    """One function ``fn(X, [k,] [xi]) -> (n, *shape)`` of the entries
    ``sources`` (row-major over ``shape``) at the states X (n, dim), with
    ``k`` (n,) integers and ``xi`` (n,) floats, one per row."""
    code = _Code(params, frozenset(["x%d" % (i + 1) for i in range(dim)] + list(variables)))
    roots = [code.entry(s) for s in sources]
    deps = frozenset().union(*(code.nodes[r][2] for r in roots))
    body, texts = code.body(roots)
    args = ", ".join(["_X"] + ["_k"] * ("k" in variables) + ["xi"] * ("xi" in variables))
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
    table = np.concatenate([fn(np.zeros((1, dim)), *[np.array([k])] * ("k" in variables),
                               *[np.zeros(1)] * ("xi" in variables))
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
    return _compile([source], (), dim, {}, 1, "k", "xi")


def compile_model(spec, builtin=False):
    """SwitchingModel of a full spec.

    A custom model records the spec as ``params["config"]``; a builtin
    records its named parameters and controls instead.  Either carries the
    certificate of its spec's ``certificate`` entry, if any, whose ``lyap``
    comes with its gradient and Hessian, differentiated in the grammar.
    """
    try:
        dim, num_regimes = int(spec["dim"]), int(spec["num_regimes"])
        controls = [float(c) for c in spec["controls"]]
        drift, diffusion, rates = spec["drift"], spec["diffusion"], spec["rates"]
        cost = spec["cost"]
    except KeyError as exc:
        raise ExpressionError("model configuration is missing key %s" % exc) from None
    if len(drift) != dim:
        raise ExpressionError("drift must list %d expressions" % dim)
    if len(diffusion) != dim or any(len(row) != dim for row in diffusion):
        raise ExpressionError("diffusion must be a %dx%d nested list" % (dim, dim))
    if len(rates) != num_regimes or any(len(row) != num_regimes for row in rates):
        raise ExpressionError("rates must be a %dx%d nested list" % (num_regimes, num_regimes))
    params = _parameters(spec.get("params", {}), num_regimes)

    def function(sources, shape, *variables):
        return _compile(sources, shape, dim, params, num_regimes, *variables)

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
        lyap, x = _parse(lyap), ["x%d" % (i + 1) for i in range(dim)]
        lyap_fn = function([lyap], (), "k")  # checks the grammar before differentiating
        grad = [_derivative(lyap, name) for name in x]
        object.__setattr__(model, "certificate", LyapunovCertificate(
            lyap=lyap_fn, ell=function([ell], (), "k"), beta=float(beta),
            compact_radius=float(radius), mode=CertificateMode(mode),
            grad=function(grad, (dim,), "k"),
            hess=function([_derivative(grad[min(i, j)], x[max(i, j)])
                           for i in range(dim) for j in range(dim)], (dim, dim), "k")))
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
