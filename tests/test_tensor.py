import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from optevo.tensor import (
    ARITY,
    OpCode,
    Rng,
    ShapeMismatchError,
    check_binary_shapes,
    elementwise,
    tensor,
)


def divide_no_nan(a, b):
    return elementwise(OpCode.DIVIDE_NO_NAN, a, b)


def sign(a):
    return elementwise(OpCode.SIGN, a)


finite_arrays = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(max_dims=3, max_side=5),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
)


class TestDivideNoNan:
    def test_zero_denominator_gives_zero(self):
        a = tensor([1.0, -2.0, 3.0])
        b = tensor([0.0, 0.0, 0.0])
        np.testing.assert_array_equal(divide_no_nan(a, b), [0.0, 0.0, 0.0])

    def test_zero_over_zero_is_zero(self):
        assert divide_no_nan(tensor(0.0), tensor(0.0)) == 0.0

    def test_mixed_zeros(self):
        a = tensor([6.0, 5.0, 0.0])
        b = tensor([2.0, 0.0, 7.0])
        np.testing.assert_array_equal(divide_no_nan(a, b), [3.0, 0.0, 0.0])

    def test_negative_zero_denominator(self):
        assert divide_no_nan(tensor(1.0), tensor(-0.0)) == 0.0

    @given(finite_arrays)
    def test_matches_true_division_where_nonzero(self, a):
        b = np.where(a == 0, 1.0, a)
        np.testing.assert_array_equal(divide_no_nan(a, b), a / b)

    @given(finite_arrays)
    def test_never_nan_or_inf_for_finite_inputs(self, a):
        out = divide_no_nan(a, a)
        assert np.all(np.isfinite(out))


class TestSign:
    def test_codomain(self):
        out = sign(tensor([-3.5, 0.0, 0.2, -0.0]))
        np.testing.assert_array_equal(out, [-1.0, 0.0, 1.0, 0.0])

    @given(finite_arrays)
    def test_values_in_minus1_0_1(self, a):
        assert set(np.unique(sign(a))) <= {-1.0, 0.0, 1.0}


class TestElementwise:
    def test_add_subtract_multiply(self):
        a, b = tensor([1.0, 2.0]), tensor([10.0, 20.0])
        np.testing.assert_array_equal(elementwise(OpCode.ADD, a, b), [11.0, 22.0])
        np.testing.assert_array_equal(elementwise(OpCode.SUBTRACT, a, b), [-9.0, -18.0])
        np.testing.assert_array_equal(elementwise(OpCode.MULTIPLY, a, b), [10.0, 40.0])

    def test_square_negative(self):
        np.testing.assert_array_equal(
            elementwise(OpCode.SQUARE, tensor([-3.0, 2.0])), [9.0, 4.0]
        )
        np.testing.assert_array_equal(
            elementwise(OpCode.NEGATIVE, tensor([-3.0, 2.0])), [3.0, -2.0]
        )

    def test_sqrt_of_negative_is_nan(self):
        out = elementwise(OpCode.SQRT, tensor([-1.0, 4.0]))
        assert np.isnan(out[0]) and out[1] == 2.0

    def test_pow(self):
        np.testing.assert_array_equal(
            elementwise(OpCode.POW, tensor([2.0, 3.0]), tensor([3.0, 2.0])), [8.0, 9.0]
        )

    def test_pow_invalid_is_nan(self):
        out = elementwise(OpCode.POW, tensor([-8.0]), tensor([1.0 / 3.0]))
        assert np.isnan(out[0])

    def test_arity_table_complete(self):
        assert set(ARITY) == set(OpCode)

    def test_wrong_arity_raises(self):
        with pytest.raises(ValueError):
            elementwise(OpCode.SQRT, tensor(1.0), tensor(2.0))

    @given(finite_arrays)
    def test_add_commutes(self, a):
        b = a[::-1].copy().reshape(a.shape)
        np.testing.assert_array_equal(
            elementwise(OpCode.ADD, a, b), elementwise(OpCode.ADD, b, a)
        )

    @given(finite_arrays)
    def test_multiply_commutes(self, a):
        b = np.roll(a, 1)
        np.testing.assert_array_equal(
            elementwise(OpCode.MULTIPLY, a, b), elementwise(OpCode.MULTIPLY, b, a)
        )

    @given(finite_arrays)
    def test_double_negation_is_identity(self, a):
        out = elementwise(OpCode.NEGATIVE, elementwise(OpCode.NEGATIVE, a))
        np.testing.assert_array_equal(out, a)

    @given(finite_arrays)
    def test_square_equals_self_multiply(self, a):
        np.testing.assert_array_equal(
            elementwise(OpCode.SQUARE, a), elementwise(OpCode.MULTIPLY, a, a)
        )


class TestShapes:
    def test_mismatch_raises(self):
        with pytest.raises(ShapeMismatchError):
            check_binary_shapes(tensor([1.0, 2.0]), tensor([1.0, 2.0, 3.0]))

    def test_scalar_with_tensor_allowed(self):
        check_binary_shapes(tensor(2.0), tensor([1.0, 2.0, 3.0]))
        check_binary_shapes(tensor([1.0, 2.0, 3.0]), tensor(2.0))

    def test_elementwise_rejects_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            elementwise(OpCode.ADD, tensor([1.0, 2.0]), tensor([[1.0], [2.0]]))


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(42).normal(size=10)
        b = Rng(42).normal(size=10)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).normal(size=10), Rng(2).normal(size=10))

    def test_children_reproducible(self):
        a = Rng(7).child("init", 3).uniform(size=5)
        b = Rng(7).child("init", 3).uniform(size=5)
        np.testing.assert_array_equal(a, b)

    def test_children_independent_of_parent_use(self):
        r1 = Rng(7)
        r1.normal(size=100)  # drawing from the parent ...
        a = r1.child("data").uniform(size=5)
        b = Rng(7).child("data").uniform(size=5)  # ... must not shift children
        np.testing.assert_array_equal(a, b)

    def test_sibling_streams_differ(self):
        r = Rng(7)
        a = r.child("a").uniform(size=20)
        b = r.child("b").uniform(size=20)
        assert not np.array_equal(a, b)

    def test_tag_types(self):
        r = Rng(0)
        assert not np.array_equal(
            r.child("gen", 1).uniform(size=8), r.child("gen", 2).uniform(size=8)
        )

    def test_stream_is_built_on_first_draw(self):
        root = Rng(11)
        r = root.child("init", 2)
        assert root._generator is None and r._generator is None
        got = r.normal(size=6)
        assert root._generator is None and r._generator is not None
        seq = np.random.SeedSequence(11, spawn_key=(zlib.crc32(b"init"), 2))
        want = np.random.Generator(np.random.Philox(seq)).normal(size=6)
        assert got.tobytes() == want.tobytes()

    def test_shuffle_and_permutation(self):
        r = Rng(3)
        p = r.child("perm").permutation(10)
        assert sorted(p) == list(range(10))


class TestPrefixKeyedStreams:
    """A stream keyed by prefix, each child mixing in only its own tags, is
    the stream of numpy's SeedSequence over the whole key."""

    @given(
        st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**200)),
        st.lists(st.lists(st.one_of(st.integers(0, 2**32 - 1), st.text(max_size=8)),
                          max_size=3), max_size=3)
        .filter(lambda groups: sum(map(len, groups)) <= 5),
    )
    def test_matches_seed_sequence(self, seed, tag_groups):
        rng = Rng(seed)
        for tags in tag_groups:
            rng = rng.child(*tags)
        key = tuple(zlib.crc32(t.encode()) if isinstance(t, str) else t
                    for tags in tag_groups for t in tags)
        want = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed, spawn_key=key))).random(size=7).tobytes()
        assert rng.random(size=7).tobytes() == want
        assert Rng(seed, key).random(size=7).tobytes() == want  # the whole key at once

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5, 2**160 + 3])
    @pytest.mark.parametrize("length", range(6))
    def test_every_key_length(self, seed, length):
        key = tuple(range(7, 7 + length))
        rng = Rng(seed)
        for word in key:
            rng = rng.child(word)
        want = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed, spawn_key=key)))
        assert rng.permutation(50).tolist() == want.permutation(50).tolist()
