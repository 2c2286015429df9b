"""Expression-tree optimizers: four update functions, compiled once per stepper.

A candidate optimizer is four expression trees — x_func, y_func, z_func,
weight_func — evaluated in that order once per training step for every
weight tensor. x, y, z are per-weight auxiliary buffers (zero-initialized);
`grad` is the current gradient and `alpha` the current weight values. Each
function sees the freshly computed values of the functions before it. The
weight function may read the auxiliaries and the weights but never the raw
gradient: any use of the gradient has to be routed through an auxiliary.

`compile_spec` turns the four trees into nested closures over the raw ops of
`tensor._IMPL`, with variable-free subtrees folded to constants through
`elementwise`; `SpecStepper` and `step` both run those closures. `eval_expr`
walks a tree op by op and is kept as the reference the compiled code is
tested against. `grad_tainted` finds the variables the gradient can reach;
when the weights are not among them, `SpecStepper` needs no backward pass.

Hand-built specs for the classic first-order optimizers live here too, next
to native steppers for the two rules the four-function form cannot express
(a look-ahead gradient, a step-count-dependent rescale).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from operator import itemgetter

import numpy as np

from .grammar import TOKEN_RE
from .nn import Stepper
from .sched import PolicyTree, ScheduledSGD
from .tensor import _IMPL, ARITY, OpCode, Tensor, elementwise, tensor

VAR_NAMES = ("x", "y", "z", "grad", "alpha")

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


class UnboundVariableError(KeyError):
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


def eval_expr(e: Expr, env: dict) -> Tensor:
    """Recursive elementwise evaluation; constants broadcast as scalars."""
    if isinstance(e, Const):
        return np.float64(e.value)
    if isinstance(e, Var):
        if e.name not in env:
            raise UnboundVariableError(e.name)
        return env[e.name]
    if isinstance(e, Apply):
        return elementwise(e.op, *(eval_expr(a, env) for a in e.args))
    raise ExprError(f"not an expression node: {e!r}")


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

    def __post_init__(self):
        for slot, allowed in SLOT_VARS.items():
            extra = referenced_vars(getattr(self, slot)) - allowed
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


# --- per-weight state and the step rule -------------------------------------


@dataclass
class OptState:
    x: Tensor
    y: Tensor
    z: Tensor

    @classmethod
    def zeros(cls, shape) -> "OptState":
        return cls(
            np.zeros(shape, dtype=np.float64),
            np.zeros(shape, dtype=np.float64),
            np.zeros(shape, dtype=np.float64),
        )


def _compile(e: Expr):
    """(fn, value) for `e`, built bottom-up in one pass. A variable-free `e`
    has its folded constant in `value`, reached through `elementwise` one op
    at a time as `eval_expr(e, {})` would; otherwise `value` is None. `fn` is
    a function of the variable list [x, y, z, grad, alpha] computing `e` with
    the interpreter's ops: same ufuncs, operand order and dtypes."""
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


def _advance(slots: tuple, state: OptState, w: Tensor, g: Tensor):
    """Run compiled slots once for one weight tensor, under the caller's
    errstate: rebinds state's buffers and returns the new weights."""
    fx, fy, fz, fw = slots
    v = [state.x, state.y, state.z, g, w]
    v[0] = fx(v)
    v[1] = fy(v)
    v[2] = fz(v)
    v[3] = None  # the weight slot never sees the gradient
    new_w = fw(v)
    # a state that is the weight buffer itself (x_func = alpha) would follow
    # the in-place weight write, so only that one is copied
    state.x, state.y, state.z = (a.copy() if a is w else a for a in v[:3])
    return new_w


def step(
    spec: OptimizerSpec, state: OptState, w: Tensor, grad: Tensor
) -> tuple:
    """One update: returns (new_w, new_state); never mutates its inputs."""
    new_state = replace(state)
    with np.errstate(all="ignore"):
        new_w = _advance(compile_spec(spec), new_state, tensor(w), tensor(grad))
    return new_w, new_state


def grad_tainted(spec: OptimizerSpec) -> frozenset:
    """The variables whose values can depend on the gradient: `grad`, and the
    output of every slot (x, y, z, or alpha for the weight slot) whose tree
    reads a tainted variable. A slot also reads its own and later slots'
    values from the step before, hence the fixpoint."""
    reads = {out: referenced_vars(getattr(spec, slot))
             for slot, out in zip(SLOT_VARS, SLOT_OUTPUTS)}
    tainted = {"grad"}
    grown = True
    while grown:
        grown = False
        for out, names in reads.items():
            if out not in tainted and names & tainted:
                tainted.add(out)
                grown = True
    return frozenset(tainted)


# --- hyperparameters and hand-built specs ------------------------------------


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
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"hyperparameter {name} must be finite")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")

    @classmethod
    def defaults_for(cls, name: str) -> "HyperParams":
        # library-default learning rates: 1e-3 for the adaptive-moment pair,
        # 1e-2 for the plain-SGD family
        return cls(lr=0.001 if name in ("rmsprop", "adam") else 0.01)


_X, _Y, _Z, _GRAD, _ALPHA = Var("x"), Var("y"), Var("z"), Var("grad"), Var("alpha")


def _c(v: float) -> Const:
    return Const(float(v))


def _ap(op: OpCode, *args) -> Apply:
    return Apply(op, tuple(args))


def _sgd_spec(hp: HyperParams) -> OptimizerSpec:
    # w' = w - lr * g, staged through x
    return OptimizerSpec(
        x_func=_ap(OpCode.SUBTRACT, _ALPHA, _ap(OpCode.MULTIPLY, _c(hp.lr), _GRAD)),
        y_func=_Y,
        z_func=_Z,
        weight_func=_X,
        name="sgd",
    )


def _momentum_spec(hp: HyperParams) -> OptimizerSpec:
    # x' = mom * x - lr * g; w' = w + x'
    return OptimizerSpec(
        x_func=_ap(
            OpCode.SUBTRACT,
            _ap(OpCode.MULTIPLY, _c(hp.mom), _X),
            _ap(OpCode.MULTIPLY, _c(hp.lr), _GRAD),
        ),
        y_func=_Y,
        z_func=_Z,
        weight_func=_ap(OpCode.ADD, _ALPHA, _X),
        name="momentum",
    )


def _rmsprop_spec(hp: HyperParams) -> OptimizerSpec:
    # x' = rho * x + (1 - rho) * g^2; w' = w - lr * g / (sqrt(x') + eps)
    return OptimizerSpec(
        x_func=_ap(
            OpCode.ADD,
            _ap(OpCode.MULTIPLY, _c(hp.rho), _X),
            _ap(OpCode.MULTIPLY, _c(1.0 - hp.rho), _ap(OpCode.SQUARE, _GRAD)),
        ),
        y_func=_ap(
            OpCode.DIVIDE_NO_NAN,
            _ap(OpCode.MULTIPLY, _c(hp.lr), _GRAD),
            _ap(OpCode.ADD, _ap(OpCode.SQRT, _X), _c(hp.epsilon)),
        ),
        z_func=_Z,
        weight_func=_ap(OpCode.SUBTRACT, _ALPHA, _Y),
        name="rmsprop",
    )


def _sign_spec(hp: HyperParams) -> OptimizerSpec:
    # w' = w - 9e-4 * sign(g); the step size is part of the rule, not tunable
    return OptimizerSpec(
        x_func=_ap(OpCode.MULTIPLY, _c(SIGN_STEP), _ap(OpCode.SIGN, _GRAD)),
        y_func=_Y,
        z_func=_Z,
        weight_func=_ap(OpCode.SUBTRACT, _ALPHA, _X),
        name="sign",
    )


def _ades_spec(hp: HyperParams) -> OptimizerSpec:
    # y' = (1 - c1) * y - (c1 * y^2 + c2 * y * g + c2 * g); w' = w + y'
    return OptimizerSpec(
        x_func=_X,
        y_func=_ap(
            OpCode.SUBTRACT,
            _ap(OpCode.MULTIPLY, _c(1.0 - hp.c1), _Y),
            _ap(
                OpCode.ADD,
                _ap(OpCode.MULTIPLY, _c(hp.c1), _ap(OpCode.SQUARE, _Y)),
                _ap(
                    OpCode.ADD,
                    _ap(OpCode.MULTIPLY, _c(hp.c2), _ap(OpCode.MULTIPLY, _Y, _GRAD)),
                    _ap(OpCode.MULTIPLY, _c(hp.c2), _GRAD),
                ),
            ),
        ),
        z_func=_Z,
        weight_func=_ap(OpCode.ADD, _ALPHA, _Y),
        name="ades",
    )


def adam_core_spec(hp: HyperParams) -> OptimizerSpec:
    """Adam without bias correction — the t-free core the grammar can express.

    x' = b1*x + (1-b1)*g; y' = b2*y + (1-b2)*g^2; z' = lr*x'/(sqrt(y')+eps);
    w' = w - z'.
    """
    return OptimizerSpec(
        x_func=_ap(
            OpCode.ADD,
            _ap(OpCode.MULTIPLY, _c(hp.beta1), _X),
            _ap(OpCode.MULTIPLY, _c(1.0 - hp.beta1), _GRAD),
        ),
        y_func=_ap(
            OpCode.ADD,
            _ap(OpCode.MULTIPLY, _c(hp.beta2), _Y),
            _ap(OpCode.MULTIPLY, _c(1.0 - hp.beta2), _ap(OpCode.SQUARE, _GRAD)),
        ),
        z_func=_ap(
            OpCode.DIVIDE_NO_NAN,
            _ap(OpCode.MULTIPLY, _c(hp.lr), _X),
            _ap(OpCode.ADD, _ap(OpCode.SQRT, _Y), _c(hp.epsilon)),
        ),
        weight_func=_ap(OpCode.SUBTRACT, _ALPHA, _Z),
        name="adam_core",
    )


# --- steppers: nn.Stepper subclasses -----------------------------------------


class SpecStepper(Stepper):
    """Drives an OptimizerSpec over one weight tensor, whose auxiliaries
    x, y, z live in `state`.

    When no gradient reaches the weights (`needs_grad` false),
    `update(w, None)` runs only the slots the weights depend on; the others
    keep their state. Real gradients always run all four slots.
    """

    def __init__(self, spec: OptimizerSpec):
        self.spec = spec
        self.name = spec.name
        self.state = None
        self._slots = compile_spec(spec)
        tainted = grad_tainted(spec)
        self.needs_grad = "alpha" in tainted
        if not self.needs_grad:
            self._lean_slots = tuple(
                itemgetter(i) if out in tainted else f
                for i, (out, f) in enumerate(zip(SLOT_OUTPUTS, self._slots))
            )

    def update(self, w: Tensor, g: Tensor | None) -> None:
        if self.state is None:
            self.state = OptState.zeros(w.shape)
        slots = self._lean_slots if g is None else self._slots
        with np.errstate(all="ignore"):  # non-finite results become the failed flag
            self._assign(w, _advance(slots, self.state, w, g))


class NesterovStepper(Stepper):
    """Momentum with a look-ahead gradient, reformulated at the current point:
    x' = mom*x - lr*g; w' = w + mom*x' - lr*g. Native because the four-function
    form cannot evaluate gradients anywhere but the current weights.
    """

    name = "nesterov"

    def __init__(self, lr: float = 0.01, mom: float = 0.9):
        self.lr = lr
        self.mom = mom
        self.velocity = None

    def update(self, w: Tensor, g: Tensor) -> None:
        if self.velocity is None:
            self.velocity = np.zeros_like(w)
        with np.errstate(all="ignore"):  # non-finite results become the failed flag
            self.velocity = self.mom * self.velocity - self.lr * g
            self._assign(w, w + self.mom * self.velocity - self.lr * g)


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
        zt = self.lr * np.sqrt(1.0 - self.beta2**self.t) / (1.0 - self.beta1**self.t)
        with np.errstate(all="ignore"):  # non-finite results become the failed flag
            self.avg = self.beta1 * self.avg + (1.0 - self.beta1) * g
            self.sq = self.beta2 * self.sq + (1.0 - self.beta2) * np.square(g)
            self._assign(w, w - zt * self.avg / (np.sqrt(self.sq) + self.epsilon))


BUILTIN_NAMES = ("sgd", "momentum", "nesterov", "rmsprop", "adam", "sign", "ades")

_SPEC_BUILDERS = {
    "sgd": _sgd_spec,
    "momentum": _momentum_spec,
    "rmsprop": _rmsprop_spec,
    "sign": _sign_spec,
    "ades": _ades_spec,
}


def builtin(name: str, hp: HyperParams | None = None):
    """A hand-built OptimizerSpec, or a native stepper for nesterov/adam."""
    hp = HyperParams.defaults_for(name) if hp is None else hp
    if name in _SPEC_BUILDERS:
        return _SPEC_BUILDERS[name](hp)
    if name == "nesterov":
        return NesterovStepper(hp.lr, hp.mom)
    if name == "adam":
        return AdamStepper(hp.lr, hp.beta1, hp.beta2, hp.epsilon)
    raise ValueError(f"unknown optimizer {name!r}; expected one of {BUILTIN_NAMES}")


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
