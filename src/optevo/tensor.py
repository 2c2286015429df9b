"""Dense float64 buffers, the elementwise op set, and a splittable RNG.

Tensors are plain numpy float64 arrays. Arithmetic is strictly elementwise:
operands must have identical shapes, except that a true scalar (0-d array or
Python float) may combine with any tensor. NaN and Inf are representable and
propagate; penalizing them is the fitness layer's job, not this one's.
"""

from __future__ import annotations

import zlib
from enum import Enum

import numpy as np

Tensor = np.ndarray


class ShapeMismatchError(ValueError):
    pass


def tensor(values) -> Tensor:
    """Build a float64 tensor from nested lists / arrays / scalars."""
    return np.asarray(values, dtype=np.float64)


def _is_scalar(a: Tensor) -> bool:
    return np.ndim(a) == 0


def check_binary_shapes(a: Tensor, b: Tensor) -> None:
    """Exact shape agreement, or one operand a true scalar."""
    if _is_scalar(a) or _is_scalar(b):
        return
    if np.shape(a) != np.shape(b):
        raise ShapeMismatchError(
            f"shape mismatch: {np.shape(a)} vs {np.shape(b)}"
        )


def _divide_no_nan(a: Tensor, b: Tensor) -> Tensor:
    """a / b elementwise, with 0 wherever the denominator is exactly 0.
    Unchecked: float64 operands that share a shape or of which one is 0-d."""
    out = np.zeros(np.shape(b) or np.shape(a), dtype=np.float64)
    np.divide(a, b, out=out, where=(b != 0))
    return out


class OpCode(Enum):
    ADD = "add"
    SUBTRACT = "subtract"
    MULTIPLY = "multiply"
    POW = "pow"
    SQUARE = "square"
    DIVIDE_NO_NAN = "divide_no_nan"
    SQRT = "sqrt"
    NEGATIVE = "negative"
    SIGN = "sign"


ARITY = {
    OpCode.ADD: 2,
    OpCode.SUBTRACT: 2,
    OpCode.MULTIPLY: 2,
    OpCode.POW: 2,
    OpCode.SQUARE: 1,
    OpCode.DIVIDE_NO_NAN: 2,
    OpCode.SQRT: 1,
    OpCode.NEGATIVE: 1,
    OpCode.SIGN: 1,
}


# The raw op callables, shared by `elementwise` and the update-rule compiler
# in optim. They take float64 operands already checked for shape; sqrt of a
# negative and pow with a negative base and fractional exponent yield NaN.
_IMPL = {
    OpCode.ADD: np.add,
    OpCode.SUBTRACT: np.subtract,
    OpCode.MULTIPLY: np.multiply,
    OpCode.POW: np.power,
    OpCode.SQUARE: np.square,
    OpCode.DIVIDE_NO_NAN: _divide_no_nan,
    OpCode.SQRT: np.sqrt,
    OpCode.NEGATIVE: np.negative,
    OpCode.SIGN: np.sign,
}


def elementwise(op: OpCode, *args: Tensor) -> Tensor:
    """Apply one op from the shared operation set, with shape checking."""
    if len(args) != ARITY[op]:
        raise ValueError(f"{op.value} expects {ARITY[op]} args, got {len(args)}")
    args = [tensor(a) for a in args]
    if len(args) == 2:
        check_binary_shapes(*args)
    with np.errstate(all="ignore"):
        return _IMPL[op](*args)


def _tag32(tag) -> int:
    if isinstance(tag, str):
        return zlib.crc32(tag.encode("utf-8"))
    return int(tag) & 0xFFFFFFFF


class Rng:
    """Deterministic, splittable random stream (counter-based Philox).

    The same seed always reproduces the same stream, and children derived
    via ``child(...)`` are statistically independent of the parent and of
    each other by construction of the underlying seed sequence.
    """

    def __init__(self, seed: int, _key: tuple = ()):
        self.seed = int(seed)
        self._key = tuple(_key)
        self._generator = None

    @property
    def generator(self) -> np.random.Generator:
        """The stream itself, built on the first draw: many streams only ever
        name children, and the SeedSequence + Philox set-up costs more than
        a small draw."""
        if self._generator is None:
            seq = np.random.SeedSequence(self.seed, spawn_key=self._key)
            self._generator = np.random.Generator(np.random.Philox(seq))
        return self._generator

    def child(self, *tags) -> "Rng":
        """Derive an independent stream named by the given tags."""
        return Rng(self.seed, self._key + tuple(_tag32(t) for t in tags))

    # thin passthroughs for the handful of draws the codebase uses
    def integers(self, low, high=None, size=None):
        return self.generator.integers(low, high, size=size)

    def random(self, size=None):
        return self.generator.random(size=size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.generator.uniform(low, high, size=size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.generator.normal(loc, scale, size=size)

    def shuffle(self, a):
        self.generator.shuffle(a)

    def permutation(self, n):
        return self.generator.permutation(n)

    def choice(self, a, size=None, replace=True):
        return self.generator.choice(a, size=size, replace=replace)

    def __repr__(self):
        return f"Rng(seed={self.seed}, key={self._key})"
