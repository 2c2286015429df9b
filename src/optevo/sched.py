"""Learning-rate policies: decision trees over (epoch, previous lr).

A policy is evaluated once per epoch, before the epoch's first batch, and
returns the learning rate SGD will use for that whole epoch. Trees branch on
comparisons against the epoch counter or the previous rate and end in
positive constant leaves, so a policy can express step decays, warm-up
ramps, or cyclic schedules (by making the next rate a function of the
current one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grammar import TOKEN_RE
from .nn import Stepper
from .tensor import Tensor

COMPARATORS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

CONDITION_VARS = ("epoch", "lr")


class PolicyError(ValueError):
    pass


@dataclass(frozen=True)
class Comparison:
    var: str
    op: str
    threshold: float

    def __post_init__(self):
        if self.var not in CONDITION_VARS:
            raise PolicyError(f"condition variable must be epoch or lr, got {self.var!r}")
        if self.op not in COMPARATORS:
            raise PolicyError(f"unknown comparator {self.op!r}")
        if not np.isfinite(self.threshold):
            raise PolicyError("threshold must be finite")


@dataclass(frozen=True)
class Leaf:
    lr: float

    def __post_init__(self):
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise PolicyError(f"leaf learning rate must be finite and > 0, got {self.lr}")


@dataclass(frozen=True)
class If:
    cond: Comparison
    then: "PolicyTree"
    other: "PolicyTree"


PolicyTree = Leaf | If


def eval_policy(p: PolicyTree, epoch: int, prev_lr: float) -> float:
    """Descend the tree once; pure in (tree, epoch, prev_lr)."""
    while isinstance(p, If):
        value = epoch if p.cond.var == "epoch" else prev_lr
        p = p.then if COMPARATORS[p.cond.op](value, p.cond.threshold) else p.other
    return p.lr


def serialize_policy(p: PolicyTree) -> str:
    if isinstance(p, Leaf):
        return repr(float(p.lr))
    return (
        f"if({p.cond.var} {p.cond.op} {repr(float(p.cond.threshold))}, "
        f"{serialize_policy(p.then)}, {serialize_policy(p.other)})"
    )


def parse_policy(text: str) -> PolicyTree:
    tokens = TOKEN_RE.findall(text)
    tree, pos = _parse(tokens, 0)
    if pos != len(tokens):
        raise PolicyError(f"trailing tokens after policy: {tokens[pos:]}")
    return tree


def _expect(tokens, pos, want):
    if pos >= len(tokens) or tokens[pos] != want:
        got = tokens[pos] if pos < len(tokens) else "end of input"
        raise PolicyError(f"expected {want!r}, got {got!r}")
    return pos + 1


def _parse(tokens, pos):
    if pos >= len(tokens):
        raise PolicyError("unexpected end of policy")
    tok = tokens[pos]
    if tok == "if":
        pos = _expect(tokens, pos + 1, "(")
        if pos + 2 >= len(tokens):
            raise PolicyError("truncated condition")
        var, op, thr = tokens[pos], tokens[pos + 1], tokens[pos + 2]
        try:
            cond = Comparison(var, op, float(thr))
        except ValueError as e:
            raise PolicyError(str(e)) from None
        pos = _expect(tokens, pos + 3, ",")
        then, pos = _parse(tokens, pos)
        pos = _expect(tokens, pos, ",")
        other, pos = _parse(tokens, pos)
        pos = _expect(tokens, pos, ")")
        return If(cond, then, other), pos
    try:
        lr = float(tok)
    except ValueError:
        raise PolicyError(f"unrecognized token {tok!r}") from None
    return Leaf(lr), pos + 1


class ScheduledSGD(Stepper):
    """Plain SGD whose learning rate is set per epoch by a policy tree."""

    name = "scheduled_sgd"

    def __init__(self, policy: PolicyTree, initial_lr: float = 0.01):
        if not (np.isfinite(initial_lr) and initial_lr > 0):
            raise PolicyError("initial learning rate must be finite and > 0")
        self.policy = policy
        self.current_lr = initial_lr

    def begin_epoch(self, epoch: int) -> None:
        self.current_lr = eval_policy(self.policy, epoch, self.current_lr)

    def update(self, w: Tensor, g: Tensor) -> None:
        w[...] = w - self.current_lr * g
