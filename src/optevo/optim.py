"""Expression-tree optimizers: four update functions, compiled once per text.

A candidate optimizer is four expression trees — x_func, y_func, z_func,
weight_func — evaluated in that order once per training step for every
weight tensor. x, y, z are per-weight auxiliary buffers (zero-initialized);
`grad` is the current gradient and `alpha` the current weight values. Each
function sees the freshly computed values of the functions before it. The
weight function may read the auxiliaries and the weights but never the raw
gradient: any use of the gradient has to be routed through an auxiliary.

`compile_spec` turns the four trees into nested closures over the raw ops of
`tensor._IMPL`, with variable-free subtrees folded to constants through
`elementwise`. `SpecStepper` is the one runner of those closures: it holds
one weight tensor's x, y and z, and the tests check its updates against
`eval_expr` in `tests/oracles.py`, a tree interpreter. `grad_tainted` finds
the variables the gradient can reach, from the read sets each spec keeps;
when the weights are not among them, `SpecStepper` needs no backward pass.
Evolution builds one `SpecStepper` per phenotype text and gives each trial a
shallow copy of it, so a text's rule is compiled, and its taint found, once.

The built-in rules live here too, each a phenotype text with its
hyperparameters filled in, parsed as an evolved rule's text is; Nesterov's
look-ahead is reformulated at the current point. Adam is the one native
stepper: its bias-corrected rescale depends on the step count, which the
four-function form cannot see.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations
from operator import itemgetter

import numpy as np

from .grammar import TOKEN_RE
from .nn import Stepper
from .sched import PolicyTree, ScheduledSGD
from .tensor import _IMPL, ARITY, OpCode, Tensor, elementwise

VAR_NAMES = ("x", "y", "z", "grad", "alpha")
# Every set of variable names, made once: each spec keeps four read sets for
# its lifetime, and sharing these instead costs it no memory
_NAME_SETS = {s: s for r in range(len(VAR_NAMES) + 1)
              for s in map(frozenset, combinations(VAR_NAMES, r))}

# Variables each function slot may reference. The weight slot excludes grad:
# that omission is the gradient barrier, checked at construction and enforced
# again at evaluation time by not binding grad for the weight slot.
SLOT_VARS = {
    "x_func": frozenset({"x", "grad", "alpha"}),
    "y_func": frozenset({"x", "y", "grad", "alpha"}),
    "z_func": frozenset({"x", "y", "z", "grad", "alpha"}),
    "weight_func": frozenset({"x", "y", "z", "alpha"}),
}
# The variable each slot writes, in slot order: the weight slot writes alpha.
SLOT_OUTPUTS = ("x", "y", "z", "alpha")

SIGN_STEP = 9e-4  # fixed per-step magnitude of the sign-of-gradient rule

OP_NAMES = {op.value: op for op in OpCode}


class ExprError(ValueError):
    pass


class SpecValidationError(ValueError):
    pass


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str

    def __post_init__(self):
        if self.name not in VAR_NAMES:
            raise ExprError(f"unknown variable {self.name!r}")


@dataclass(frozen=True)
class Apply:
    op: OpCode
    args: tuple  # of Expr

    def __post_init__(self):
        if len(self.args) != ARITY[self.op]:
            raise ExprError(
                f"{self.op.value} expects {ARITY[self.op]} args, got {len(self.args)}"
            )


Expr = Const | Var | Apply


def referenced_vars(e: Expr) -> frozenset:
    if isinstance(e, Var):
        return frozenset({e.name})
    if isinstance(e, Apply):
        return frozenset().union(*(referenced_vars(a) for a in e.args))
    return frozenset()


# --- canonical prefix-notation text ----------------------------------------


def serialize_expr(e: Expr) -> str:
    if isinstance(e, Const):
        return repr(float(e.value))
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Apply):
        return f"{e.op.value}({', '.join(serialize_expr(a) for a in e.args)})"
    raise ExprError(f"not an expression node: {e!r}")


def parse_expr(text: str) -> Expr:
    """Parse `op(arg, arg)` / variable / float-literal prefix notation."""
    tokens = TOKEN_RE.findall(text)
    expr, pos = _parse(tokens, 0)
    if pos != len(tokens):
        raise ExprError(f"trailing tokens after expression: {tokens[pos:]}")
    return expr


def _parse(tokens: list, pos: int):
    if pos >= len(tokens):
        raise ExprError("unexpected end of expression")
    tok = tokens[pos]
    if tok in "(),":
        raise ExprError(f"unexpected {tok!r}")
    if pos + 1 < len(tokens) and tokens[pos + 1] == "(":
        if tok not in OP_NAMES:
            raise ExprError(f"unknown operation {tok!r}")
        op = OP_NAMES[tok]
        pos += 2
        args = []
        while True:
            arg, pos = _parse(tokens, pos)
            args.append(arg)
            if pos >= len(tokens):
                raise ExprError(f"unterminated call to {op.value}")
            if tokens[pos] == ",":
                pos += 1
                continue
            if tokens[pos] == ")":
                return Apply(op, tuple(args)), pos + 1
            raise ExprError(f"expected ',' or ')', got {tokens[pos]!r}")
    if tok in VAR_NAMES:
        return Var(tok), pos + 1
    try:
        value = float(tok)
    except ValueError:
        raise ExprError(f"unrecognized token {tok!r}") from None
    return Const(value), pos + 1


# --- optimizer specs --------------------------------------------------------


@dataclass(frozen=True)
class OptimizerSpec:
    x_func: Expr
    y_func: Expr
    z_func: Expr
    weight_func: Expr
    name: str = "custom"
    # the variables each slot's tree reads, in slot order
    reads: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        reads = tuple(_NAME_SETS[referenced_vars(getattr(self, slot))]
                      for slot in SLOT_VARS)
        object.__setattr__(self, "reads", reads)
        for (slot, allowed), names in zip(SLOT_VARS.items(), reads):
            extra = names - allowed
            if extra:
                detail = "gradient barrier: " if "grad" in extra else ""
                raise SpecValidationError(
                    f"{detail}{slot} may not reference {sorted(extra)}"
                )

    def phenotype(self) -> str:
        """Canonical one-line text; also the fitness-cache key."""
        return " ; ".join(
            serialize_expr(f)
            for f in (self.x_func, self.y_func, self.z_func, self.weight_func)
        )


def spec_from_phenotype(text: str, name: str = "evolved") -> OptimizerSpec:
    parts = text.split(";")
    if len(parts) != 4:
        raise ExprError(
            f"expected 4 ';'-separated update functions, got {len(parts)}"
        )
    x, y, z, w = (parse_expr(p) for p in parts)
    return OptimizerSpec(x, y, z, w, name=name)


def spec_to_json(spec: OptimizerSpec) -> str:
    return json.dumps(
        {
            "name": spec.name,
            "x_func": serialize_expr(spec.x_func),
            "y_func": serialize_expr(spec.y_func),
            "z_func": serialize_expr(spec.z_func),
            "weight_func": serialize_expr(spec.weight_func),
        },
        indent=2,
    )


def spec_from_json(text: str) -> OptimizerSpec:
    d = json.loads(text)
    return OptimizerSpec(
        parse_expr(d["x_func"]),
        parse_expr(d["y_func"]),
        parse_expr(d["z_func"]),
        parse_expr(d["weight_func"]),
        name=d.get("name", "custom"),
    )


# --- compiling a spec --------------------------------------------------------


def _compile(e: Expr):
    """(fn, value) for `e`, built bottom-up in one pass. A variable-free `e`
    has its folded constant in `value`, reached through `elementwise` one op
    at a time as the tree interpreter `eval_expr(e, {})` of `tests/oracles.py`
    would; otherwise `value` is None. `fn` is a function of the variable list
    [x, y, z, grad, alpha] computing `e` with the interpreter's ops: same
    ufuncs, operand order and dtypes."""
    if isinstance(e, Var):
        return itemgetter(VAR_NAMES.index(e.name)), None
    if isinstance(e, Const):
        value = np.float64(e.value)
        return (lambda v: value), value
    if not isinstance(e, Apply):
        raise ExprError(f"not an expression node: {e!r}")
    parts = [_compile(a) for a in e.args]
    if all(c is not None for _, c in parts):
        value = elementwise(e.op, *(c for _, c in parts))
        return (lambda v: value), value
    f = _IMPL[e.op]
    if len(parts) == 1:
        a = parts[0][0]
        return (lambda v: f(a(v))), None
    (a, ca), (b, cb) = parts
    if ca is not None:
        return (lambda v: f(ca, b(v))), None
    if cb is not None:
        return (lambda v: f(a(v), cb)), None
    return (lambda v: f(a(v), b(v))), None


def compile_spec(spec: OptimizerSpec) -> tuple:
    """The spec's four slot functions, in evaluation order."""
    return tuple(_compile(getattr(spec, slot))[0] for slot in SLOT_VARS)


def grad_tainted(spec: OptimizerSpec) -> frozenset:
    """The variables whose values can depend on the gradient: `grad`, and the
    output of every slot (x, y, z, or alpha for the weight slot) whose tree
    reads a tainted variable. A slot also reads its own and later slots'
    values from the step before, hence the fixpoint."""
    reads = dict(zip(SLOT_OUTPUTS, spec.reads))
    tainted = {"grad"}
    grown = True
    while grown:
        grown = False
        for out, names in reads.items():
            if out not in tainted and names & tainted:
                tainted.add(out)
                grown = True
    return frozenset(tainted)


# --- hyperparameters and built-in specs --------------------------------------


@dataclass(frozen=True)
class HyperParams:
    lr: float = 0.01
    mom: float = 0.9
    rho: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-7
    c1: float = 0.08922
    c2: float = 0.0891

    def __post_init__(self):
        for name in ("lr", "mom", "rho", "beta1", "beta2", "epsilon", "c1", "c2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"hyperparameter {name} must be finite")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")

    @classmethod
    def defaults_for(cls, name: str, **values) -> "HyperParams":
        """The family's defaults, with these values set. Library-default
        learning rates: 1e-3 for the adaptive-moment pair, 1e-2 for the
        plain-SGD family."""
        return cls(**{"lr": 0.001 if name in ("rmsprop", "adam") else 0.01, **values})


def _filled(name: str, template: str, **consts) -> OptimizerSpec:
    """The spec of `template` with each {constant} written as repr(float(v)),
    the text `serialize_expr` writes: it parses back to the same float, so
    the spec's phenotype is the template with its constants filled in."""
    text = template.format(**{k: repr(float(v)) for k, v in consts.items()})
    return spec_from_phenotype(text, name=name)


def _sgd_spec(hp: HyperParams) -> OptimizerSpec:
    # w' = w - lr * g, staged through x
    return _filled("sgd", "subtract(alpha, multiply({lr}, grad)) ; y ; z ; x", lr=hp.lr)


def _momentum_spec(hp: HyperParams) -> OptimizerSpec:
    # x' = mom * x - lr * g; w' = w + x'
    return _filled("momentum", "subtract(multiply({mom}, x), multiply({lr}, grad)) ; y ; z"
                   " ; add(alpha, x)", mom=hp.mom, lr=hp.lr)


def _nesterov_spec(hp: HyperParams) -> OptimizerSpec:
    # momentum with a look-ahead gradient, reformulated at the current point:
    # x' = mom * x - lr * g; w' = (w + mom * x') - lr * g. lr * g is staged
    # through y, because the weight slot may not read the gradient
    return _filled("nesterov", "subtract(multiply({mom}, x), multiply({lr}, grad))"
                   " ; multiply({lr}, grad) ; z ; subtract(add(alpha, multiply({mom}, x)), y)",
                   mom=hp.mom, lr=hp.lr)


def _rmsprop_spec(hp: HyperParams) -> OptimizerSpec:
    # x' = rho * x + (1 - rho) * g^2; w' = w - lr * g / (sqrt(x') + eps)
    return _filled("rmsprop", "add(multiply({rho}, x), multiply({rho_c}, square(grad)))"
                   " ; divide_no_nan(multiply({lr}, grad), add(sqrt(x), {eps})) ; z"
                   " ; subtract(alpha, y)", rho=hp.rho, rho_c=1.0 - hp.rho, lr=hp.lr,
                   eps=hp.epsilon)


def _sign_spec(hp: HyperParams) -> OptimizerSpec:
    # w' = w - 9e-4 * sign(g); the step size is part of the rule, not tunable
    return _filled("sign", "multiply({step}, sign(grad)) ; y ; z ; subtract(alpha, x)",
                   step=SIGN_STEP)


def _ades_spec(hp: HyperParams) -> OptimizerSpec:
    # y' = (1 - c1) * y - (c1 * y^2 + c2 * y * g + c2 * g); w' = w + y'
    return _filled("ades", "x ; subtract(multiply({c1_c}, y), add(multiply({c1}, square(y)),"
                   " add(multiply({c2}, multiply(y, grad)), multiply({c2}, grad)))) ; z"
                   " ; add(alpha, y)", c1_c=1.0 - hp.c1, c1=hp.c1, c2=hp.c2)


def adam_core_spec(hp: HyperParams) -> OptimizerSpec:
    """Adam without bias correction — the t-free core the grammar can express.

    x' = b1*x + (1-b1)*g; y' = b2*y + (1-b2)*g^2; z' = lr*x'/(sqrt(y')+eps);
    w' = w - z'.
    """
    return _filled("adam_core", "add(multiply({b1}, x), multiply({b1_c}, grad))"
                   " ; add(multiply({b2}, y), multiply({b2_c}, square(grad)))"
                   " ; divide_no_nan(multiply({lr}, x), add(sqrt(y), {eps})) ; subtract(alpha, z)",
                   b1=hp.beta1, b1_c=1.0 - hp.beta1, b2=hp.beta2, b2_c=1.0 - hp.beta2,
                   lr=hp.lr, eps=hp.epsilon)


# --- steppers: nn.Stepper subclasses -----------------------------------------


class SpecStepper(Stepper):
    """Drives an OptimizerSpec over one weight tensor, whose auxiliaries
    x, y, z it holds: zeros of the weights' shape on the first update.

    When no gradient reaches the weights (`needs_grad` false),
    `update(w, None)` runs only the slots the weights depend on; the others
    keep their values. Real gradients always run all four slots.

    A `copy.copy` of a stepper not yet updated is a fresh stepper of the
    same spec that shares the compiled slots. Sharing is safe: the slots
    hold only ufuncs, item getters and folded constants (numpy scalars, or
    0-d arrays from divide_no_nan), and nothing writes into them. An update
    writes only into `w`; it rebinds x, y and z, which may then be a folded
    constant, but never writes into them.
    """

    def __init__(self, spec: OptimizerSpec):
        self.spec = spec
        self.name = spec.name
        self.x = self.y = self.z = None
        self._slots = compile_spec(spec)
        tainted = grad_tainted(spec)
        self.needs_grad = "alpha" in tainted
        if not self.needs_grad:
            self._lean_slots = tuple(
                itemgetter(i) if out in tainted else f
                for i, (out, f) in enumerate(zip(SLOT_OUTPUTS, self._slots))
            )

    def update(self, w: Tensor, g: Tensor | None) -> None:
        if self.x is None:
            self.x, self.y, self.z = (np.zeros(w.shape) for _ in range(3))
        fx, fy, fz, fw = self._lean_slots if g is None else self._slots
        v = [self.x, self.y, self.z, g, w]
        v[0] = fx(v)
        v[1] = fy(v)
        v[2] = fz(v)
        v[3] = None  # the weight slot never sees the gradient
        new_w = fw(v)
        # an auxiliary that is the weight buffer itself (x_func = alpha)
        # would follow the in-place weight write, so only that one is copied
        self.x, self.y, self.z = (a.copy() if a is w else a for a in v[:3])
        w[...] = new_w


class AdamStepper(Stepper):
    """Bias-corrected Adam. Native because the rescale z_t depends on the
    global step count t, which spec expressions cannot see:
    x' = b1*x + (1-b1)*g; y' = b2*y + (1-b2)*g^2;
    z_t = lr*sqrt(1-b2^t)/(1-b1^t); w' = w - z_t*x'/(sqrt(y')+eps).
    Updating `avg` and `sq` in place gives the same bytes but was slower on
    the 2-16-2 net's tensors (44.6 -> 53.0 us per update, stepped one by
    one), so each step allocates.
    """

    name = "adam"

    def __init__(
        self,
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-7,
    ):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.avg = None
        self.sq = None

    def update(self, w: Tensor, g: Tensor) -> None:
        if self.avg is None:
            self.avg = np.zeros_like(w)
            self.sq = np.zeros_like(w)
        self.t += 1
        zt = self.lr * math.sqrt(1.0 - self.beta2**self.t) / (1.0 - self.beta1**self.t)
        self.avg = self.beta1 * self.avg + (1.0 - self.beta1) * g
        self.sq = self.beta2 * self.sq + (1.0 - self.beta2) * np.square(g)
        w -= zt * self.avg / (np.sqrt(self.sq) + self.epsilon)


_BUILDERS = {
    "sgd": _sgd_spec,
    "momentum": _momentum_spec,
    "nesterov": _nesterov_spec,
    "rmsprop": _rmsprop_spec,
    "adam": lambda hp: AdamStepper(hp.lr, hp.beta1, hp.beta2, hp.epsilon),
    "sign": _sign_spec,
    "ades": _ades_spec,
}
BUILTIN_NAMES = tuple(_BUILDERS)
# the HyperParams fields each built-in reads; sign's step is part of its rule
BUILTIN_READS = {"sgd": ("lr",), "momentum": ("lr", "mom"), "nesterov": ("lr", "mom"),
                 "rmsprop": ("lr", "rho", "epsilon"), "adam": ("lr", "beta1", "beta2", "epsilon"),
                 "sign": (), "ades": ("c1", "c2")}


def builtin(name: str, hp: HyperParams | None = None):
    """A built-in rule's OptimizerSpec, or the native stepper for adam."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown optimizer {name!r}; expected one of {BUILTIN_NAMES}")
    return _BUILDERS[name](HyperParams.defaults_for(name) if hp is None else hp)


def make_stepper(opt, hp: HyperParams | None = None) -> Stepper:
    """Normalize a builtin name / OptimizerSpec / policy tree / Stepper into a
    Stepper. Policy trees run as ScheduledSGD from its default initial rate."""
    if isinstance(opt, str):
        opt = builtin(opt, hp)
    if isinstance(opt, OptimizerSpec):
        return SpecStepper(opt)
    if isinstance(opt, PolicyTree):
        return ScheduledSGD(opt)
    if isinstance(opt, Stepper):
        return opt
    raise TypeError(f"cannot build a stepper from {opt!r}")
