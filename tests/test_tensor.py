import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import stream
from optevo.tensor import (
    ARITY,
    OpCode,
    Rng,
    ShapeMismatchError,
    Streams,
    check_binary_shapes,
    draw_seed,
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


def normal(n):
    return lambda gen: gen.normal(size=n)


def uniform(n):
    return lambda gen: gen.uniform(size=n)


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(42).draw(normal(10))
        b = Rng(42).draw(normal(10))
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).draw(normal(10)), Rng(2).draw(normal(10)))

    def test_children_reproducible(self):
        a = Rng(7).child("init", 3).draw(uniform(5))
        b = Rng(7).child("init", 3).draw(uniform(5))
        np.testing.assert_array_equal(a, b)

    def test_children_independent_of_parent_use(self):
        r1 = Rng(7)
        r1.draw(normal(100))  # drawing from the parent ...
        a = r1.child("data").draw(uniform(5))
        b = Rng(7).child("data").draw(uniform(5))  # ... must not shift children
        np.testing.assert_array_equal(a, b)

    def test_sibling_streams_differ(self):
        r = Rng(7)
        a = r.child("a").draw(uniform(20))
        b = r.child("b").draw(uniform(20))
        assert not np.array_equal(a, b)

    def test_tag_types(self):
        r = Rng(0)
        assert not np.array_equal(
            r.child("gen", 1).draw(uniform(8)), r.child("gen", 2).draw(uniform(8))
        )

    def test_draws_are_the_seed_sequence_stream(self):
        """A draw fn gets a fresh generator of the stream's SeedSequence,
        whichever of the generator's draw methods it calls."""
        r = Rng(11).child("init", 2)
        want = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(11, spawn_key=(zlib.crc32(b"init"), 2))))

        def draws(gen):
            return [gen.normal(size=6).tobytes(), gen.integers(0, 9, size=5).tolist(),
                    gen.random(size=3).tobytes(), gen.uniform(-1, 2, size=3).tobytes(),
                    gen.normal(1, 3), gen.permutation(9).tolist(),
                    gen.choice(20, size=4, replace=False).tolist(), gen.integers(7)]

        assert r.draw(draws) == draws(want)
        with pytest.raises(AttributeError):  # an Rng names streams; it has no draws
            Rng(11).normal

    def test_bulk_draw_leaves_live_streams_alone(self):
        """A `Streams.draw` re-keys the shared generator; a stream drawn
        again after it draws the same numbers."""
        r = Rng(4).child("live")
        want = np.random.Generator(np.random.Philox(np.random.SeedSequence(
            4, spawn_key=(zlib.crc32(b"live"),))))
        first = r.draw(lambda gen: gen.integers(100, size=3).tolist())
        assert first == want.integers(100, size=3).tolist()
        Streams.of([r, Rng(5)]).child("other").draw(lambda gen: gen.random(size=50))
        Streams.of([r]).draw(lambda gen: gen.integers(100, size=7))  # r's own key
        assert r.draw(lambda gen: gen.integers(100, size=3).tolist()) == first

    def test_shuffle_and_permutation(self):
        r = Rng(3)
        p = r.child("perm").draw(lambda gen: gen.permutation(10))
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
        assert rng.draw(lambda gen: gen.random(size=7)).tobytes() == want
        # the whole key at once
        assert Rng(seed).child(*key).draw(lambda gen: gen.random(size=7)).tobytes() == want

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5, 2**160 + 3])
    @pytest.mark.parametrize("length", range(6))
    def test_every_key_length(self, seed, length):
        key = tuple(range(7, 7 + length))
        rng = Rng(seed)
        for word in key:
            rng = rng.child(word)
        want = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed, spawn_key=key)))
        assert rng.draw(lambda gen: gen.permutation(50)).tolist() == want.permutation(50).tolist()


def seed_sequence_stream(seed, key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


TAG = st.one_of(st.integers(0, 2**32 - 1), st.text(max_size=8))


class TestBulkStreams:
    """`Streams` holds N keyed streams as arrays; stream k is the stream of
    numpy's SeedSequence over seed k and the tags it was named by, a column
    tag giving stream k its entry k."""

    @given(
        st.integers(1, 2**32 - 1),
        st.integers(2**32, 2**200),
        st.lists(st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**200)),
                 max_size=3),
        st.data(),
    )
    def test_draws_match_seed_sequence(self, small, wide, more, data):
        seeds = data.draw(st.permutations([0, small, wide, *more]))
        n = len(seeds)
        column = st.lists(TAG, min_size=n, max_size=n)
        groups = data.draw(st.lists(st.lists(st.one_of(TAG, column), min_size=1, max_size=3),
                                    max_size=3).filter(lambda gs: sum(map(len, gs)) <= 5))
        streams = Streams.from_seeds(seeds)
        for tags in groups:
            streams = streams.child(*tags)
        assert streams.pool.shape == (n, 4)

        def word(tag):
            return zlib.crc32(tag.encode()) if isinstance(tag, str) else tag

        keys = [tuple(word(t[k] if isinstance(t, list) else t)
                      for tags in groups for t in tags) for k in range(n)]
        draws = [lambda gen: gen.permutation(11), lambda gen: gen.integers(-5, 2**40, size=4),
                 lambda gen: gen.uniform(-2.0, 3.0, size=3), lambda gen: gen.random()]
        for fn in draws:
            got = streams.draw(fn)
            for k in range(n):
                want = fn(seed_sequence_stream(seeds[k], keys[k]))
                assert np.asarray(got[k]).tobytes() == np.asarray(want).tobytes()

    def test_of_rngs_and_take(self):
        rngs = [Rng(3).child("a", k) for k in range(4)]
        streams = Streams.of(rngs).child("b").take([2, 0])
        got = streams.draw(lambda gen: gen.random(size=2))
        for g, k in zip(got, [2, 0]):
            assert g.tobytes() == rngs[k].child("b").draw(lambda gen: gen.random(size=2)).tobytes()

    def test_no_streams_draw_nothing(self):
        assert Streams.of([]).child("a", [], 3).draw(lambda gen: gen.random()) == []

    def test_many_tags_at_once(self):
        """More tags than the precomputed hash constants cover."""
        tags = list(range(12))
        got = Streams.from_seeds([9, 2**70]).child(*tags).draw(lambda gen: gen.random(size=3))
        for g, seed in zip(got, [9, 2**70]):
            assert g.tobytes() == seed_sequence_stream(seed, tuple(tags)).random(size=3).tobytes()


class TestOneShotDraws:
    """A stream draws through the shared generator (`Streams.draw`,
    `Rng.draw`), re-keyed to the stream: the numbers of a generator built
    for the stream alone."""

    DRAWS = {"seed": draw_seed,
             "random": lambda gen: gen.random(size=(6, 3)),
             "normal": lambda gen: gen.normal(size=(5, 3))}

    @given(st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**200)),
           st.lists(TAG, min_size=1, max_size=3), st.sampled_from(sorted(DRAWS)))
    def test_equals_the_child_generator(self, seed, tags, kind):
        fn = self.DRAWS[kind]
        want = np.asarray(fn(stream(seed, *tags))).tobytes()
        got = Streams.from_seeds([seed]).child(*tags).draw(fn)
        assert len(got) == 1 and np.asarray(got[0]).tobytes() == want
        assert np.asarray(Rng(seed).child(*tags).draw(fn)).tobytes() == want

    def test_drawn_stream_draws_its_start_again(self):
        """Each draw of a stream starts it afresh, whatever it drew before."""
        rng = Rng(4).child("a")
        first = rng.draw(lambda gen: gen.random(size=3))
        rng.draw(lambda gen: (gen.random(size=3), gen.random(size=3)))
        assert rng.draw(lambda gen: gen.random(size=3)).tobytes() == first.tobytes()
