"""Plain float64 buffers, the elementwise op set, and a splittable RNG.

Tensors are plain numpy float64 arrays. Arithmetic is strictly elementwise:
operands must have identical shapes, except that a true scalar (0-d array or
Python float) may combine with any tensor. NaN and Inf are representable and
propagate; penalizing them is the fitness layer's job, not this one's.
"""

from __future__ import annotations

import functools
import zlib
from enum import Enum

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


@functools.lru_cache(maxsize=64)
def _root_state(seed: int) -> tuple:
    """(pool, hash constant) of SeedSequence(seed) once its run entropy is
    mixed: its pool, and the constant after the 16 hashes of a seed of up to
    four 32-bit words plus 4 per further word."""
    words = max(1, -(-seed.bit_length() // 32))
    pool = tuple(np.random.SeedSequence(seed).pool.tolist())
    return pool, _INIT_A * pow(_MULT_A, 16 + 4 * max(0, words - 4), 1 << 32) & _M32


def _mix(pool: tuple, hash_const: int, words) -> tuple:
    """SeedSequence's mixing of spawn-key words into a pool: each word,
    hashed anew for each pool word, is mixed into it. Returns the new
    (pool, hash constant)."""
    pool = list(pool)
    for word in words:
        for i in range(4):
            value = word ^ hash_const
            hash_const = hash_const * _MULT_A & _M32
            value = value * hash_const & _M32
            value ^= value >> 16
            mixed = (_MIX_L * pool[i] - _MIX_R * value) & _M32
            pool[i] = mixed ^ mixed >> 16
    return tuple(pool), hash_const


class _MixedPool(ISeedSequence):
    """A seed sequence whose entropy is already mixed into `pool`: its
    `generate_state` is SeedSequence's, so Philox draws the same key."""

    def __init__(self, pool: tuple):
        self.pool = pool

    def generate_state(self, n_words, dtype=np.uint32):
        dtype = np.dtype(dtype)
        hash_const = _INIT_B
        state = []
        for i in range(n_words * dtype.itemsize // 4):
            value = self.pool[i % 4] ^ hash_const
            hash_const = hash_const * _MULT_B & _M32
            value = value * hash_const & _M32
            state.append(value ^ value >> 16)
        return np.array(state, dtype=np.uint32).view(dtype)


class Rng:
    """Deterministic, splittable random stream (counter-based Philox).

    The stream of `Rng(seed).child(*tags)` is that of
    `Philox(SeedSequence(seed, spawn_key=<tag words>))`, the tags read as
    32-bit words (strings by CRC-32), so the same seed and tags always
    reproduce it, and children are statistically independent of the parent
    and of each other by construction of the seed sequence.

    Streams are keyed by prefix: SeedSequence mixes the spawn-key words into
    its pool one after another, so each Rng keeps the pool mixed so far, and
    a child mixes in only its own tags. Philox then reads its key from that
    pool without a SeedSequence of its own.
    """

    def __init__(self, seed: int, _key: tuple = (), _state: tuple | None = None):
        self.seed = int(seed)
        self._key = tuple(_key)
        self._state = _mix(*_root_state(self.seed), self._key) if _state is None else _state
        self._generator = None

    @property
    def generator(self) -> np.random.Generator:
        """The stream itself, built on the first draw: many streams only ever
        name children, and the Philox set-up costs more than a small draw."""
        if self._generator is None:
            self._generator = np.random.Generator(np.random.Philox(_MixedPool(self._state[0])))
        return self._generator

    def child(self, *tags) -> "Rng":
        """Derive an independent stream named by the given tags."""
        words = tuple(_tag32(t) for t in tags)
        return Rng(self.seed, self._key + words, _mix(*self._state, words))

    # thin passthroughs for the handful of draws the codebase uses
    def integers(self, low, high=None, size=None):
        return self.generator.integers(low, high, size=size)

    def random(self, size=None):
        return self.generator.random(size=size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.generator.uniform(low, high, size=size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.generator.normal(loc, scale, size=size)

    def permutation(self, n):
        return self.generator.permutation(n)

    def choice(self, a, size=None, replace=True):
        return self.generator.choice(a, size=size, replace=replace)

    def __repr__(self):
        return f"Rng(seed={self.seed}, key={self._key})"
