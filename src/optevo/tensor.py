"""Plain float64 buffers, the elementwise op set, and keyed random streams.

Tensors are plain numpy float64 arrays. Arithmetic is strictly elementwise:
operands must have identical shapes, except that a true scalar (0-d array or
Python float) may combine with any tensor. NaN and Inf are representable and
propagate; penalizing them is the fitness layer's job, not this one's.

Every random draw comes from a keyed stream: the stream of a seed and tags
is the Philox stream of numpy's `SeedSequence(seed, spawn_key=tags)`.
Philox is counter-based, so a stream is its 128-bit key, which SeedSequence
hashes from a 4-word pool after mixing in the seed and each tag word in
turn. `Streams` holds N streams as an (N, 4) uint32 pool array and one hash
constant per stream, so seeds of any width mix in one batch. A child mixes
each tag into every stream with a few uint32 array operations, and `keys`
hashes every Philox key at once; these are the only copies of the two
hashes, which an `Rng`, one stream, uses as a `Streams` of one.

Every draw is a one-shot draw (`Streams.draw`, `Rng.draw`, `draw_one`):
one shared generator, re-keyed per stream through its `state` setter, gives
exactly the numbers of a fresh generator of the stream. A stream of many
draws, such as a mutation, is one draw fn that makes them all and no keyed
draw of its own. An `Rng` names streams and has no generator of its own.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=16)
def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**j modulo 2**32 for j < n, as uint32: a hash constant
    and its next n - 1 successors."""
    return np.array([init * pow(mult, j, 1 << 32) & _M32 for j in range(n)], dtype=np.uint32)


# generate_state's hash constants before and after each of the 4 key words
_B_CONSTS = _hash_consts(_INIT_B, _MULT_B, 5)
_KEY_XOR, _KEY_MULT = _B_CONSTS[:4], _B_CONSTS[1:]
_MIX_L32, _MIX_R32 = np.uint32(_MIX_L), np.uint32(_MIX_R)

# the one generator of every one-shot draw, re-keyed per stream
_SHARED = np.random.Generator(np.random.Philox(0))
_SHARED_BITS = _SHARED.bit_generator


def _column_words(tag) -> np.ndarray:
    """A column tag's 32-bit words, one per stream."""
    if isinstance(tag, np.ndarray) and tag.dtype.kind in "iu":
        return tag.astype(np.uint32)  # wraps as _tag32 does
    return np.array([_tag32(t) for t in tag], dtype=np.uint32)


@functools.lru_cache(maxsize=256)
def _scalar_words(tags: tuple) -> np.ndarray:
    """The 32-bit words of scalar tags, each repeated for the 4 pool words."""
    return np.array([_tag32(tag) for tag in tags for _ in range(4)], dtype=np.uint32)


class Streams:
    """N keyed streams at once (see the module docstring): stream k's mixed
    pool is row k of `pool` and its hash constant entry k of `hash_const`."""

    def __init__(self, pool: np.ndarray, hash_const: np.ndarray):
        self.pool = pool
        self.hash_const = hash_const

    @classmethod
    def _stacked(cls, states) -> "Streams":
        """The streams of these (pool, hash constant) pairs."""
        return cls(np.array([pool for pool, _ in states], dtype=np.uint32).reshape(-1, 4),
                   np.array([const for _, const in states], dtype=np.uint32))

    @classmethod
    def from_seeds(cls, seeds) -> "Streams":
        """The root streams Rng(seed) of each seed."""
        return cls._stacked([_root_state(int(seed)) for seed in seeds])

    @classmethod
    def of(cls, rngs) -> "Streams":
        """The streams of these Rngs."""
        return cls._stacked([(rng._streams.pool[0], rng._streams.hash_const[0]) for rng in rngs])

    def take(self, rows) -> "Streams":
        """The streams at `rows`."""
        return Streams(self.pool[rows], self.hash_const[rows])

    def child(self, *tags) -> "Streams":
        """Each stream's child named by the tags, mixed in as SeedSequence
        mixes spawn-key words into its pool: each word, hashed anew for each
        pool word, is mixed into it. A column tag names stream k's child by
        its entry k."""
        width = 4 * len(tags)
        scalar = [isinstance(tag, (str, int, np.integer)) for tag in tags]
        if all(scalar):
            words = _scalar_words(tags)
        else:
            words = np.empty((len(self.pool), len(tags)), dtype=np.uint32)
            for j, tag in enumerate(tags):
                words[:, j] = _tag32(tag) if scalar[j] else _column_words(tag)
            words = words.repeat(4, axis=1)
        # word j meets pool word i under the hash constant advanced 4j + i
        # times, and is multiplied by the next one
        hashes = self.hash_const[:, None] * _hash_consts(1, _MULT_A, width + 1)
        values = words ^ hashes[:, :-1]
        values *= hashes[:, 1:]
        values ^= values >> 16
        values *= _MIX_R32
        pool = self.pool
        for j in range(0, width, 4):
            mixed = pool * _MIX_L32
            mixed -= values[:, j : j + 4]
            pool = mixed ^ mixed >> 16
        return Streams(pool, hashes[:, width])

    def children(self, *tags, last) -> "Streams":
        """Stream k's child (*tags, c) for each c in `last`, k-major: the
        child of stream k and last[j] is stream k * len(last) + j."""
        last = np.asarray(last)
        grid = np.arange(len(self.pool) * len(last))
        return self.take(grid // len(last)).child(*tags, last[grid % len(last)])

    def keys(self) -> np.ndarray:
        """Each stream's Philox key, an (N, 2) uint64 array, as
        SeedSequence.generate_state(2, uint64) gives it from the pool."""
        words = self.pool ^ _KEY_XOR
        words *= _KEY_MULT
        words ^= words >> 16
        return words.view(np.uint64)

    def draw(self, fn) -> list:
        """[fn(a fresh generator of stream k) for each stream k] (`draw_one`)."""
        return draw_keyed(self.keys(), fn)


class Rng:
    """Deterministic, splittable random stream (counter-based Philox).

    The stream of `Rng(seed).child(*tags)` is that of
    `Philox(SeedSequence(seed, spawn_key=<tag words>))`, the tags read as
    32-bit words (strings by CRC-32), so the same seed and tags always
    reproduce it, and children are statistically independent of the parent
    and of each other by construction of the seed sequence.

    An Rng is a `Streams` of one: a child mixes in only its own tags, and
    `draw` reads the Philox key from the mixed pool without a SeedSequence
    of its own.
    """

    def __init__(self, seed: int):
        self._streams = Streams.from_seeds([seed])

    def child(self, *tags) -> "Rng":
        """Derive an independent stream named by the given tags."""
        child = Rng.__new__(Rng)
        child._streams = self._streams.child(*tags)
        return child

    def draw(self, fn):
        """fn(a fresh generator of this stream), through the shared one (see
        `Streams.draw`)."""
        return self._streams.draw(fn)[0]

    def __repr__(self):
        return f"Rng(pool={tuple(self._streams.pool[0].tolist())})"


def draw_seed(gen) -> int:
    """One seed drawn from `gen`, below 2**31 - 1."""
    return int(gen.integers(2**31 - 1))


def draw_keyed(keys: np.ndarray, fn) -> list:
    """[draw_one(key, fn) for each Philox key in `keys`, (N, 2) uint64]."""
    return [draw_one(key, fn) for key in keys.tolist()]


def draw_one(key, fn):
    """fn(the shared generator, re-keyed to Philox key `key` with counter 0
    and an empty buffer, as a fresh Philox starts). `fn` draws only from it,
    makes no keyed draw of its own and keeps no reference to it."""
    _SHARED_BITS.state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
                          "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return fn(_SHARED)
