import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optevo.dsge import Genotype, map_genotype, random_derivation
from optevo.grammar import load_shipped_grammar
from optevo.sched import (
    Comparison,
    If,
    Leaf,
    PolicyError,
    ScheduledSGD,
    eval_policy,
    parse_policy,
    serialize_policy,
)
from optevo.tensor import Rng


@pytest.fixture(scope="module")
def dlr():
    return load_shipped_grammar("dlr")


class TestEvalPolicy:
    def test_leaf_constant(self):
        assert eval_policy(Leaf(0.01), 0, 0.5) == 0.01
        assert eval_policy(Leaf(0.01), 99, 1e-5) == 0.01

    def test_strict_less_boundary(self):
        p = If(Comparison("epoch", "<", 10.0), Leaf(0.1), Leaf(0.01))
        assert eval_policy(p, 9, 0.1) == 0.1
        assert eval_policy(p, 10, 0.1) == 0.01

    def test_leq_boundary(self):
        p = If(Comparison("epoch", "<=", 10.0), Leaf(0.1), Leaf(0.01))
        assert eval_policy(p, 10, 0.1) == 0.1
        assert eval_policy(p, 11, 0.1) == 0.01

    def test_lr_condition(self):
        p = If(Comparison("lr", ">=", 0.05), Leaf(0.01), Leaf(0.1))
        assert eval_policy(p, 0, 0.05) == 0.01
        assert eval_policy(p, 0, 0.049) == 0.1

    def test_three_value_cycler(self):
        a, b, c = 0.001, 0.01, 0.1
        p = If(
            Comparison("lr", "<=", a),
            Leaf(b),
            If(Comparison("lr", "<=", b), Leaf(c), Leaf(a)),
        )
        lr = a
        seen = []
        for epoch in range(6):
            lr = eval_policy(p, epoch, lr)
            seen.append(lr)
        assert seen == [b, c, a, b, c, a]

    def test_purity(self):
        p = If(Comparison("epoch", ">", 3.0), Leaf(0.2), Leaf(0.3))
        assert eval_policy(p, 5, 0.7) == eval_policy(p, 5, 0.7)


class TestValidation:
    def test_leaf_must_be_positive(self):
        with pytest.raises(PolicyError):
            Leaf(0.0)
        with pytest.raises(PolicyError):
            Leaf(-0.1)
        with pytest.raises(PolicyError):
            Leaf(float("nan"))

    def test_condition_var_checked(self):
        with pytest.raises(PolicyError):
            Comparison("step", "<", 1.0)

    def test_comparator_checked(self):
        with pytest.raises(PolicyError):
            Comparison("epoch", "==", 1.0)


leaves = st.builds(Leaf, st.floats(min_value=1e-5, max_value=1.0, allow_nan=False))
conds = st.builds(
    Comparison,
    st.sampled_from(["epoch", "lr"]),
    st.sampled_from(["<", "<=", ">", ">="]),
    st.floats(min_value=0, max_value=100, allow_nan=False),
)
policies = st.recursive(leaves, lambda kids: st.builds(If, conds, kids, kids), max_leaves=8)


class TestPolicyText:
    def test_serialize_form(self):
        p = If(Comparison("epoch", "<", 10.0), Leaf(0.1), Leaf(0.01))
        assert serialize_policy(p) == "if(epoch < 10.0, 0.1, 0.01)"

    def test_parse_errors(self):
        for bad in ["", "if(epoch < 10, 0.1)", "if(x < 1, 0.1, 0.2)", "0.1 0.2", "oops"]:
            with pytest.raises(PolicyError):
                parse_policy(bad)

    def test_nonpositive_leaf_rejected_in_text(self):
        with pytest.raises(PolicyError):
            parse_policy("if(epoch < 5, 0.0, 0.1)")

    @given(policies)
    @settings(max_examples=40)
    def test_round_trip(self, p):
        assert parse_policy(serialize_policy(p)) == p


class TestPolicyFromGenotype:
    def test_smallest_derivation_is_static_baseline(self, dlr):
        geno = Genotype({"start": [0], "expr": [1], "lr_const": [0]})
        assert parse_policy(map_genotype(dlr, geno).text()) == Leaf(0.01)

    def test_fuzzed_genotypes_always_yield_valid_trees(self, dlr):
        master = Rng(314).child("fuzz")
        for i in range(1000):
            geno = random_derivation(dlr, max_depth=4, rng=master)[0]
            p = parse_policy(map_genotype(dlr, geno, max_depth=4).text())
            lr = eval_policy(p, i % 100, 0.01)
            assert np.isfinite(lr) and 0 < lr <= 1.0

    def test_deterministic_given_genes(self, dlr):
        geno = random_derivation(dlr, rng=Rng(7).child("p"))[0]
        a = parse_policy(map_genotype(dlr, geno.copy()).text())
        b = parse_policy(map_genotype(dlr, geno.copy()).text())
        assert a == b


class TestScheduledSGD:
    def test_begin_epoch_applies_policy(self):
        p = If(Comparison("epoch", "<", 2.0), Leaf(0.5), Leaf(0.25))
        opt = ScheduledSGD(p, initial_lr=0.01)
        opt.begin_epoch(0)
        assert opt.current_lr == 0.5
        opt.begin_epoch(5)
        assert opt.current_lr == 0.25

    def test_update_is_sgd_at_current_rate(self):
        opt = ScheduledSGD(Leaf(0.1))
        opt.begin_epoch(0)
        w = np.array([1.0, -1.0])
        opt.update(w, np.array([0.5, 0.5]))
        np.testing.assert_allclose(w, [0.95, -1.05], rtol=0, atol=1e-15)

    def test_rate_feedback_chains_across_epochs(self):
        # halve-ish schedule built from lr conditions alone
        p = If(Comparison("lr", ">", 0.05), Leaf(0.05), Leaf(0.01))
        opt = ScheduledSGD(p, initial_lr=0.1)
        opt.begin_epoch(0)
        assert opt.current_lr == 0.05
        opt.begin_epoch(1)
        assert opt.current_lr == 0.01

    def test_initial_lr_validated(self):
        with pytest.raises(PolicyError):
            ScheduledSGD(Leaf(0.01), initial_lr=0.0)

    def test_nonfinite_flags_failure(self):
        opt = ScheduledSGD(Leaf(1.0))
        opt.begin_epoch(0)
        w = np.array([1e308])
        opt.update(w, np.array([-1e308]))
        assert opt.failed
