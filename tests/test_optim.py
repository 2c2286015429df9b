import copy
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from optevo import optim
from optevo.check import _grid_hyperparams
from optevo.data import Dataset, synthetic
from optevo.dsge import map_genotype, random_derivation
from optevo.grammar import load_shipped_grammar
from optevo.nn import Population, Stepper, TrainConfig, train
from optevo.optim import (
    BUILTIN_NAMES,
    BUILTIN_READS,
    AdamStepper,
    Apply,
    Const,
    ExprError,
    HyperParams,
    OptimizerSpec,
    SIGN_STEP,
    SpecStepper,
    SpecValidationError,
    Var,
    adam_core_spec,
    builtin,
    compile_spec,
    grad_tainted,
    make_stepper,
    parse_expr,
    referenced_vars,
    serialize_expr,
    spec_from_json,
    spec_from_phenotype,
    spec_to_json,
)
from optevo.sched import Leaf
from optevo.tensor import OpCode, tensor
from oracles import ORACLES, UnboundVariableError, assert_same_bits, eval_expr, nesterov_steps

SPEC_OPTIMIZERS = ["sgd", "momentum", "rmsprop", "adam", "ades", "sign"]


def run_trajectory(name, hp, w0, grads):
    """Advance a 1-element weight through the package stepper, logging w."""
    stepper = make_stepper(name, hp)
    w = np.array([w0], dtype=np.float64)
    out = []
    for g in grads:
        stepper.update(w, np.array([g], dtype=np.float64))
        out.append(float(w[0]))
    return out


def random_hp(rng):
    return HyperParams(
        lr=float(10 ** rng.uniform(-4, -1)),
        mom=float(rng.uniform(0.5, 0.99)),
        rho=float(rng.uniform(0.5, 0.99)),
        beta1=float(rng.uniform(0.5, 0.99)),
        beta2=float(rng.uniform(0.9, 0.9999)),
        epsilon=float(10 ** rng.uniform(-8, -5)),
        c1=float(rng.uniform(0.01, 0.2)),
        c2=float(rng.uniform(0.01, 0.2)),
    )


class TestEvalExpr:
    def test_const_times_grad(self):
        e = Apply(OpCode.MULTIPLY, (Const(0.5), Var("grad")))
        np.testing.assert_array_equal(eval_expr(e, {"grad": tensor([2.0])}), [1.0])

    def test_var_passthrough_at_zero_state(self):
        np.testing.assert_array_equal(
            eval_expr(Var("x"), {"x": tensor([0.0, 0.0])}), [0.0, 0.0]
        )

    def test_unbound_variable_raises(self):
        with pytest.raises(UnboundVariableError):
            eval_expr(Var("grad"), {"x": tensor([1.0])})

    def test_nested(self):
        e = Apply(OpCode.ADD, (Var("x"), Apply(OpCode.NEGATIVE, (Var("grad"),))))
        out = eval_expr(e, {"x": tensor([3.0]), "grad": tensor([1.0])})
        np.testing.assert_array_equal(out, [2.0])

    def test_arity_checked_at_construction(self):
        with pytest.raises(ExprError):
            Apply(OpCode.SQRT, (Var("x"), Var("y")))

    def test_unknown_variable_rejected(self):
        with pytest.raises(ExprError):
            Var("w")


class TestExprText:
    def test_serialize_example_form(self):
        e = Apply(
            OpCode.SUBTRACT,
            (Var("alpha"), Apply(OpCode.MULTIPLY, (Const(0.01), Var("grad")))),
        )
        assert serialize_expr(e) == "subtract(alpha, multiply(0.01, grad))"

    def test_parse_inverse(self):
        text = "subtract(alpha, multiply(0.01, grad))"
        assert serialize_expr(parse_expr(text)) == text

    def test_parse_tolerates_loose_whitespace(self):
        a = parse_expr("add( x ,  negative(  grad )  )")
        b = parse_expr("add(x, negative(grad))")
        assert a == b

    def test_parse_errors(self):
        for bad in [
            "frobnicate(x)",
            "add(x, y",
            "add(x,, y)",
            "x y",
            "",
            ")",
            "sqrt(x, y)",
            "wibble",
        ]:
            with pytest.raises(ExprError):
                parse_expr(bad)

    unary = st.sampled_from([OpCode.SQUARE, OpCode.SQRT, OpCode.NEGATIVE, OpCode.SIGN])
    binary = st.sampled_from(
        [OpCode.ADD, OpCode.SUBTRACT, OpCode.MULTIPLY, OpCode.POW, OpCode.DIVIDE_NO_NAN]
    )
    exprs = st.deferred(
        lambda: st.one_of(
            st.builds(
                Const,
                st.floats(
                    min_value=-1e6, max_value=1e6, allow_nan=False, width=64
                ),
            ),
            st.builds(Var, st.sampled_from(list("xyz") + ["grad", "alpha"])),
            st.builds(
                lambda op, a: Apply(op, (a,)), TestExprText.unary, TestExprText.exprs
            ),
            st.builds(
                lambda op, a, b: Apply(op, (a, b)),
                TestExprText.binary,
                TestExprText.exprs,
                TestExprText.exprs,
            ),
        )
    )

    @given(exprs)
    def test_round_trip(self, e):
        assert parse_expr(serialize_expr(e)) == e


class TestSpecValidation:
    def test_gradient_barrier(self):
        with pytest.raises(SpecValidationError, match="gradient barrier"):
            OptimizerSpec(Var("x"), Var("y"), Var("z"), Var("grad"))

    def test_gradient_barrier_via_phenotype(self):
        with pytest.raises(SpecValidationError):
            spec_from_phenotype("x ; y ; z ; grad")

    def test_x_func_cannot_see_later_auxiliaries(self):
        with pytest.raises(SpecValidationError):
            OptimizerSpec(Var("y"), Var("y"), Var("z"), Var("x"))

    def test_y_func_cannot_see_z(self):
        with pytest.raises(SpecValidationError):
            OptimizerSpec(Var("x"), Var("z"), Var("z"), Var("x"))

    def test_builtins_all_valid(self):
        for name in SPEC_OPTIMIZERS:
            make_stepper(name)  # constructing validates

    def test_phenotype_needs_four_sections(self):
        with pytest.raises(ExprError, match="4"):
            spec_from_phenotype("x ; y ; z")


class TestSerializationFormats:
    def test_json_round_trip_builtins(self):
        for name in ["sgd", "momentum", "rmsprop", "sign", "ades"]:
            spec = builtin(name)
            again = spec_from_json(spec_to_json(spec))
            assert again == spec and again.name == name

    def test_phenotype_round_trip(self):
        spec = builtin("rmsprop")
        assert spec_from_phenotype(spec.phenotype(), name="rmsprop") == spec

    def test_adam_core_round_trips(self):
        spec = adam_core_spec(HyperParams())
        assert spec_from_json(spec_to_json(spec)) == spec


# The phenotype() of each spec built-in and of adam_core_spec as the
# node-by-node builders wrote them before the built-ins became phenotype
# templates: at each rule's defaults (adam_core at HyperParams()), at
# grammar-check's grid values, and at odd values: an int lr, -0.0, the
# smallest subnormal, and values near the largest float
PINNED_HP = {
    "default": None,
    "grid": _grid_hyperparams(),
    "odd": HyperParams(lr=2, mom=-0.0, rho=5e-324, beta1=-0.0, beta2=5e-324,
                       epsilon=5e-324, c1=-0.0, c2=5e-324),
    "huge": HyperParams(lr=1.7e308, mom=-1.7e308, rho=-1.7e308, beta1=-1.7e308,
                        beta2=1.7e308, epsilon=1.7e308, c1=-1.7e308, c2=-1.7e308),
}
PINNED_PHENOTYPES = {
    "default": {
        "sgd": "subtract(alpha, multiply(0.01, grad)) ; y ; z ; x",
        "momentum": "subtract(multiply(0.9, x), multiply(0.01, grad)) ; y ; z ; add(alpha, x)",
        "rmsprop": "add(multiply(0.9, x), multiply(0.09999999999999998, square(grad))) ;"
            " divide_no_nan(multiply(0.001, grad), add(sqrt(x), 1e-07)) ; z ; subtract(alpha, y)",
        "sign": "multiply(0.0009, sign(grad)) ; y ; z ; subtract(alpha, x)",
        "ades": "x ; subtract(multiply(0.91078, y), add(multiply(0.08922, square(y)),"
            " add(multiply(0.0891, multiply(y, grad)), multiply(0.0891, grad)))) ; z"
            " ; add(alpha, y)",
        "adam_core": "add(multiply(0.9, x), multiply(0.09999999999999998, grad)) ;"
            " add(multiply(0.999, y), multiply(0.0010000000000000009, square(grad))) ;"
            " divide_no_nan(multiply(0.01, x), add(sqrt(y), 1e-07)) ; subtract(alpha, z)",
    },
    "grid": {
        "sgd": "subtract(alpha, multiply(0.0109869426, grad)) ; y ; z ; x",
        "momentum": "subtract(multiply(0.880797078, x), multiply(0.0109869426, grad)) ; y ; z ;"
            " add(alpha, x)",
        "rmsprop": "add(multiply(0.92414182, x), multiply(0.07585818, square(grad))) ;"
            " divide_no_nan(multiply(0.0109869426, grad), add(sqrt(x), 4.53978687e-05)) ; z ;"
            " subtract(alpha, y)",
        "sign": "multiply(0.0009, sign(grad)) ; y ; z ; subtract(alpha, x)",
        "ades": "x ; subtract(multiply(0.91078, y), add(multiply(0.08922, square(y)),"
            " add(multiply(0.0891, multiply(y, grad)), multiply(0.0891, grad)))) ; z"
            " ; add(alpha, y)",
        "adam_core": "add(multiply(0.880797078, x), multiply(0.11920292200000004, grad)) ;"
            " add(multiply(0.970687769, y), multiply(0.029312231000000022, square(grad))) ;"
            " divide_no_nan(multiply(0.0109869426, x), add(sqrt(y), 4.53978687e-05)) ;"
            " subtract(alpha, z)",
    },
    "odd": {
        "sgd": "subtract(alpha, multiply(2.0, grad)) ; y ; z ; x",
        "momentum": "subtract(multiply(-0.0, x), multiply(2.0, grad)) ; y ; z ; add(alpha, x)",
        "rmsprop": "add(multiply(5e-324, x), multiply(1.0, square(grad))) ;"
            " divide_no_nan(multiply(2.0, grad), add(sqrt(x), 5e-324)) ; z ; subtract(alpha, y)",
        "sign": "multiply(0.0009, sign(grad)) ; y ; z ; subtract(alpha, x)",
        "ades": "x ; subtract(multiply(1.0, y), add(multiply(-0.0, square(y)),"
            " add(multiply(5e-324, multiply(y, grad)), multiply(5e-324, grad)))) ; z"
            " ; add(alpha, y)",
        "adam_core": "add(multiply(-0.0, x), multiply(1.0, grad)) ; add(multiply(5e-324, y),"
            " multiply(1.0, square(grad))) ; divide_no_nan(multiply(2.0, x), add(sqrt(y), 5e-324))"
            " ; subtract(alpha, z)",
    },
    "huge": {
        "sgd": "subtract(alpha, multiply(1.7e+308, grad)) ; y ; z ; x",
        "momentum": "subtract(multiply(-1.7e+308, x), multiply(1.7e+308, grad)) ; y ; z ;"
            " add(alpha, x)",
        "rmsprop": "add(multiply(-1.7e+308, x), multiply(1.7e+308, square(grad))) ;"
            " divide_no_nan(multiply(1.7e+308, grad), add(sqrt(x), 1.7e+308)) ; z ;"
            " subtract(alpha, y)",
        "sign": "multiply(0.0009, sign(grad)) ; y ; z ; subtract(alpha, x)",
        "ades": "x ; subtract(multiply(1.7e+308, y), add(multiply(-1.7e+308, square(y)),"
            " add(multiply(-1.7e+308, multiply(y, grad)), multiply(-1.7e+308, grad)))) ; z ;"
            " add(alpha, y)",
        "adam_core": "add(multiply(-1.7e+308, x), multiply(1.7e+308, grad)) ;"
            " add(multiply(1.7e+308, y), multiply(-1.7e+308, square(grad))) ;"
            " divide_no_nan(multiply(1.7e+308, x), add(sqrt(y), 1.7e+308)) ; subtract(alpha, z)",
    },
}


class TestBuiltinTexts:
    @pytest.mark.parametrize("point", list(PINNED_HP))
    def test_phenotypes_are_pinned(self, point):
        hp = PINNED_HP[point]
        got = {name: builtin(name, hp).phenotype()
               for name in ("sgd", "momentum", "rmsprop", "sign", "ades")}
        got["adam_core"] = adam_core_spec(hp or HyperParams()).phenotype()
        assert got == PINNED_PHENOTYPES[point]

    @pytest.mark.parametrize("case", range(6))
    def test_nesterov_writes_the_native_bytes(self, case):
        """Nesterov as a spec writes, over 30 steps, the weight bytes of the
        native stepper's array ops, with inf and NaN gradients mixed in."""
        rng = np.random.default_rng((29, case))
        hp = HyperParams(lr=float(10 ** rng.uniform(-4, 0)), mom=float(rng.uniform(0.0, 1.0)))
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 7)))
        w = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3)
        grads = [rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6) for _ in range(30)]
        for t, bad in ((9, np.inf), (17, -np.inf), (23, np.nan)):
            grads[t].flat[int(rng.integers(w.size))] = bad
        stepper = make_stepper("nesterov", hp)
        assert isinstance(stepper, SpecStepper)
        with np.errstate(all="ignore"):
            for g, want in zip(grads, nesterov_steps(w.copy(), grads, hp.lr, hp.mom)):
                stepper.update(w, g)
                assert_same_bits(w, want)


def spec_step(spec, w, grad):
    """One update of a fresh SpecStepper on a copy of `w`: the new weights."""
    new_w = np.array(w, dtype=np.float64)  # the update writes in place
    with np.errstate(all="ignore"):
        SpecStepper(spec).update(new_w, tensor(grad))
    return new_w


class TestStepExamples:
    def test_sgd_single_step(self):
        spec = builtin("sgd", HyperParams(lr=0.01))
        new_w = spec_step(spec, tensor([1.0]), tensor([0.5]))
        np.testing.assert_allclose(new_w, [0.995], rtol=0, atol=1e-15)

    def test_sign_single_step(self):
        spec = builtin("sign")
        new_w = spec_step(spec, tensor([0.5]), tensor([-3.2]))
        np.testing.assert_allclose(new_w, [0.5009], rtol=0, atol=1e-15)

    def test_ades_y_func_at_zero_state(self):
        spec = builtin("ades")
        g = tensor([2.0, -1.0])
        y1 = eval_expr(
            spec.y_func, {"x": tensor(0.0), "y": tensor([0.0, 0.0]), "grad": g,
                          "alpha": tensor([0.0, 0.0])}
        )
        np.testing.assert_allclose(y1, -0.0891 * np.asarray(g), rtol=0, atol=1e-15)

    def test_adam_ten_steps_constant_grad(self):
        stepper = AdamStepper()
        w = np.array([1.0])
        for _ in range(10):
            stepper.update(w, np.array([1.0]))
        hp = HyperParams(lr=0.001)
        expect = ORACLES["adam"](1.0, [1.0] * 10, hp)[-1]
        assert abs(float(w[0]) - expect) < 1e-12

    def test_step_does_not_mutate_inputs(self):
        """An update writes only into `w`: the gradient and the auxiliaries
        it read are untouched, and the new auxiliaries are not `w`."""
        stepper = SpecStepper(builtin("momentum"))
        aux = [np.zeros(2) for _ in range(3)]
        stepper.x, stepper.y, stepper.z = aux
        w = tensor([1.0, 2.0])
        g = tensor([0.5, -0.5])
        g_copy = g.copy()
        stepper.update(w, g)
        np.testing.assert_allclose(w, [0.995, 2.005], rtol=0, atol=1e-15)
        np.testing.assert_array_equal(g, g_copy)
        for a in aux:
            np.testing.assert_array_equal(a, [0.0, 0.0])
        assert all(a is not w for a in (stepper.x, stepper.y, stepper.z))


def ades_step(y, w, grad):
    """One step of the built-in ades spec from auxiliary y: (y', w')."""
    new_w = np.array(w, dtype=np.float64)  # the update writes in place
    stepper = SpecStepper(builtin("ades"))
    stepper.x = stepper.z = np.zeros_like(new_w)
    stepper.y = tensor(y)
    with np.errstate(all="ignore"):
        stepper.update(new_w, tensor(grad))
    return stepper.y, new_w


def ades_direct(y, w, grad, c1=0.08922, c2=0.0891):
    """The same step written directly as arithmetic."""
    y = tensor(y)
    g = tensor(grad)
    y1 = (1.0 - c1) * y - (c1 * np.square(y) + c2 * y * g + c2 * g)
    return y1, tensor(w) + y1


class TestAdesStep:
    def test_fixed_point_at_zero(self):
        y1, w1 = ades_step(tensor([0.0]), tensor([3.0]), tensor([0.0]))
        np.testing.assert_array_equal(y1, [0.0])
        np.testing.assert_array_equal(w1, [3.0])

    def test_zero_state_substitution(self):
        y1, w1 = ades_step(tensor([0.0]), tensor([1.0]), tensor([1.0]))
        np.testing.assert_allclose(y1, [-0.0891], rtol=0, atol=1e-15)
        np.testing.assert_allclose(w1, [1.0 - 0.0891], rtol=0, atol=1e-15)

    def test_five_steps_on_quadratic_matches_oracle(self):
        # f(w) = w^2, so grad = 2w; drive both implementations from w0 = 1
        w = tensor([1.0])
        y = tensor([0.0])
        mine = []
        for _ in range(5):
            y, w = ades_step(y, w, 2.0 * w)
            mine.append(float(w[0]))

        w_ref, y_ref = 1.0, 0.0
        expect = []
        for _ in range(5):
            g = 2.0 * w_ref
            y_ref = (1.0 - 0.08922) * y_ref - (
                0.08922 * y_ref * y_ref + 0.0891 * y_ref * g + 0.0891 * g
            )
            w_ref = w_ref + y_ref
            expect.append(w_ref)
        np.testing.assert_allclose(mine, expect, rtol=0, atol=1e-12)

    def test_matches_spec_interpreter(self):
        y = tensor([0.0, 0.3, -0.1])
        w = tensor([0.2, -0.4, 1.0])
        g = tensor([1.0, -2.0, 0.5])
        new_y, new_w = ades_step(y, w, g)
        y1, w1 = ades_direct(y, w, g)
        np.testing.assert_allclose(new_w, w1, rtol=0, atol=1e-15)
        np.testing.assert_allclose(new_y, y1, rtol=0, atol=1e-15)


class TestOracleEquivalence:
    @pytest.mark.parametrize("name", SPEC_OPTIMIZERS + ["nesterov"])
    def test_fifty_random_trajectories(self, name):
        rng = np.random.default_rng(20260819)
        worst = 0.0
        for _ in range(50):
            w0 = float(rng.uniform(-2.0, 2.0))
            grads = [float(g) for g in rng.normal(size=20)]
            hp = random_hp(rng)
            mine = run_trajectory(name, hp, w0, grads)
            expect = ORACLES[name](w0, grads, hp)
            worst = max(worst, max(abs(a - b) for a, b in zip(mine, expect)))
        assert worst <= 1e-10

    def test_momentum_at_zero_equals_sgd(self):
        rng = np.random.default_rng(7)
        w0 = 0.5
        grads = [float(g) for g in rng.normal(size=20)]
        hp = HyperParams(lr=0.05, mom=0.0)
        assert run_trajectory("momentum", hp, w0, grads) == run_trajectory(
            "sgd", hp, w0, grads
        )

    def test_adam_core_spec_matches_oracle(self):
        rng = np.random.default_rng(11)
        hp = HyperParams(lr=0.01, beta1=0.9, beta2=0.99, epsilon=1e-6)
        w0 = 1.0
        grads = [float(g) for g in rng.normal(size=20)]
        mine = run_trajectory(adam_core_spec(hp), hp, w0, grads)
        expect = ORACLES["adam_core"](w0, grads, hp)
        assert max(abs(a - b) for a, b in zip(mine, expect)) <= 1e-10


class TestZeroGradFixedPoint:
    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False, width=64),
            min_size=1,
            max_size=8,
        )
    )
    def test_sgd_momentum_sign_hold_still(self, ws):
        w0 = np.array(ws)
        zeros = np.zeros_like(w0)
        for name in ("sgd", "momentum", "sign"):
            spec = builtin(name)
            new_w = spec_step(spec, w0, zeros)
            np.testing.assert_array_equal(new_w, w0)


class TestSteppers:
    def test_state_never_aliases_weights(self):
        # x_func = alpha stores (a copy of) the weights in state.x
        spec = OptimizerSpec(Var("alpha"), Var("y"), Var("z"), Var("x"))
        stepper = SpecStepper(spec)
        w = np.array([1.0, 2.0])
        stepper.update(w, np.array([0.0, 0.0]))
        w[0] = 99.0  # external in-place write must not leak into state
        np.testing.assert_array_equal(stepper.x, [1.0, 2.0])

    def test_failure_flag_on_nonfinite(self):
        spec = spec_from_phenotype(
            "divide_no_nan(1.0, grad) ; y ; z ; pow(alpha, x)"
        )
        stepper = SpecStepper(spec)
        w = np.array([-2.0])
        with np.errstate(all="ignore"):  # update runs under the caller's
            stepper.update(w, np.array([0.5]))  # pow(-2, 2) ok
            assert np.isfinite(w).all()
            stepper.update(w, np.array([0.4]))  # pow(4, 2.5) fine... keep going
            w2 = np.array([-2.0])
            stepper2 = SpecStepper(
                spec_from_phenotype("sqrt(grad) ; y ; z ; add(alpha, x)")
            )
            stepper2.update(w2, np.array([-1.0]))  # sqrt(-1) -> NaN
        assert np.isnan(w2).all()  # train fails the run on this weight

    def test_nesterov_matches_oracle(self):
        hp = HyperParams(lr=0.02, mom=0.8)
        grads = [0.3, -0.1, 0.2, 0.05]
        mine = run_trajectory("nesterov", hp, 1.0, grads)
        expect = ORACLES["nesterov"](1.0, grads, hp)
        np.testing.assert_allclose(mine, expect, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_reads_name_the_fields_that_change_it(self, name):
        """A benchmark config may set only the fields in BUILTIN_READS: each
        of them, halved, changes the built-in rule, and no other field does."""
        def rule(hp):
            built = builtin(name, hp)
            return vars(built) if isinstance(built, Stepper) else built

        base = HyperParams.defaults_for(name)
        changed = {f.name for f in fields(HyperParams)
                   if rule(replace(base, **{f.name: getattr(base, f.name) / 2})) != rule(base)}
        assert changed == set(BUILTIN_READS[name]) and BUILTIN_READS.keys() == set(BUILTIN_NAMES)

    @pytest.mark.parametrize("opt", [*BUILTIN_NAMES, Leaf(0.1)], ids=str)
    def test_nonfinite_gradient_sets_failed_and_writes(self, opt):
        stepper = make_stepper(opt)
        assert isinstance(stepper, Stepper)
        # perfbench/tracing.py times `update` by patching each class's own method
        assert "update" in vars(type(stepper))
        stepper.begin_epoch(0)
        w = np.array([1.0, 1.0])
        with np.errstate(all="ignore"):  # update runs under the caller's
            stepper.update(w, np.array([np.inf, np.nan]))  # an overflowed backward
        assert not np.all(np.isfinite(w))  # train fails the run on these weights

    def test_make_stepper_forms(self):
        assert isinstance(make_stepper("sgd"), SpecStepper)
        assert isinstance(make_stepper(builtin("ades")), SpecStepper)
        assert make_stepper(Leaf(0.01)).current_lr == 0.01
        native = AdamStepper()
        assert make_stepper(native) is native
        with pytest.raises(TypeError):
            make_stepper(3.14)

    def test_unknown_builtin(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            builtin("adagrad")


def interpreted_step(spec, aux, w, g):
    """The reference rule: walk each tree with eval_expr, copy every result.
    `aux` is (x, y, z); returns the new weights and the new (x, y, z)."""
    x, y, z = aux
    x1 = eval_expr(spec.x_func, {"x": x, "grad": g, "alpha": w})
    y1 = eval_expr(spec.y_func, {"x": x1, "y": y, "grad": g, "alpha": w})
    z1 = eval_expr(
        spec.z_func, {"x": x1, "y": y1, "z": z, "grad": g, "alpha": w}
    )
    new_w = eval_expr(spec.weight_func, {"x": x1, "y": y1, "z": z1, "alpha": w})
    copy = lambda a: np.array(a, dtype=np.float64)
    return copy(new_w), (copy(x1), copy(y1), copy(z1))


TOY_SHAPES = [(2, 16), (16,), (16, 2), (2,)]  # the 2-16-2 net's params


def assert_compiled_matches_interpreted(spec, seed, grad_scale, batches=5):
    """Step SpecStepper and the interpreter side by side on the toy shapes,
    one stepper per shape; returns whether any update failed."""
    rng = np.random.default_rng(seed)
    steppers = [SpecStepper(spec) for _ in TOY_SHAPES]
    w_compiled = [rng.normal(size=s) for s in TOY_SHAPES]
    w_interp = [w.copy() for w in w_compiled]
    states = [tuple(np.zeros(s) for _ in range(3)) for s in TOY_SHAPES]
    failed = compiled_failed = False
    for t in range(batches):
        grads = [rng.normal(size=s) * grad_scale for s in TOY_SHAPES]
        with np.errstate(all="ignore"):  # update runs under the caller's
            for stepper, w, g in zip(steppers, w_compiled, grads):
                stepper.update(w, g)
        for k, (w, g) in enumerate(zip(w_interp, grads)):
            new_w, states[k] = interpreted_step(spec, states[k], w, g)
            failed = failed or not np.all(np.isfinite(new_w))
            w[...] = new_w
        got = [*w_compiled,
               *(a for s in steppers for a in (s.x, s.y, s.z))]
        want = [*w_interp, *(a for s in states for a in s)]
        for a, b in zip(got, want):
            assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
        # the weight check `train` runs after each update
        compiled_failed = compiled_failed or not all(np.isfinite(w).all() for w in w_compiled)
        assert compiled_failed == failed
    return failed


ALR = load_shipped_grammar("alr")


class TestCompiledMatchesInterpreted:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1.0, 1e-3, 1e3, 1e150, 1e300]),
    )
    def test_random_genotypes(self, seed, grad_scale):
        genotype = random_derivation(ALR, rng=np.random.default_rng(seed))[0]
        spec = spec_from_phenotype(map_genotype(ALR, genotype))
        assert_compiled_matches_interpreted(spec, seed, grad_scale)

    @pytest.mark.parametrize("text, grad_scale, fails", [
        # x_func = alpha: x (and y = x) are the live weight buffer
        ("alpha ; x ; add(z, grad) ; subtract(y, multiply(0.01, z))", 1.0, False),
        # constant-only slots: 0-d auxiliaries, one a divide_no_nan array
        ("divide_no_nan(1.0, 0.0) ; sqrt(2.0) ; pow(2.0, negative(1.0)) ;"
         " subtract(alpha, multiply(x, add(y, z)))", 1.0, False),
        ("multiply(grad, divide_no_nan(0.1, 3.0)) ; y ; z ; 0.5", 1.0, False),
        ("add(x, multiply(sign(grad), square(0.5))) ; y ; z ; subtract(alpha, x)",
         1.0, False),
        # gradients large enough to overflow, and NaN from sqrt
        ("multiply(grad, grad) ; y ; z ; subtract(alpha, x)", 1e200, True),
        ("sqrt(grad) ; y ; z ; add(alpha, x)", 1.0, True),
        ("divide_no_nan(1.0, grad) ; y ; z ; pow(alpha, x)", 1e-300, True),
    ])
    def test_edge_cases(self, text, grad_scale, fails):
        spec = spec_from_phenotype(text)
        assert assert_compiled_matches_interpreted(spec, 7, grad_scale) == fails


def subtrees(e):
    yield e
    if isinstance(e, Apply):
        for a in e.args:
            yield from subtrees(a)


def slot_trees(spec):
    return [spec.x_func, spec.y_func, spec.z_func, spec.weight_func]


# constant subtrees nested at several depths, on both sides of a binary op,
# under unary ops, and folding to NaN, inf and 0-d arrays
NESTED_CONSTANT_PHENOTYPES = [
    "add(x, multiply(sqrt(add(0.25, square(0.5))), grad)) ; y ; z ; subtract(alpha, x)",
    "multiply(grad, divide_no_nan(pow(2.0, negative(3.0)), add(sign(negative(0.5)), 4.0)))"
    " ; add(y, square(sqrt(2.0))) ; subtract(z, multiply(negative(0.1), x))"
    " ; subtract(alpha, multiply(add(0.5, 0.5), x))",
    "divide_no_nan(1.0, 0.0) ; sqrt(2.0) ; pow(2.0, negative(1.0))"
    " ; subtract(alpha, multiply(x, add(y, z)))",
    "grad ; y ; z ; multiply(alpha, subtract(1.0, multiply(0.01, sqrt(negative(1.0)))))",
    "multiply(pow(10.0, 400.0), grad) ; y ; z"
    " ; subtract(alpha, multiply(x, divide_no_nan(1.0, pow(10.0, 400.0))))",
]


class TestOnePassCompile:
    """`compile_spec` builds each tree bottom-up, visiting every node once,
    and folds constants exactly as a compiler that re-scans subtrees for
    variables does: one `elementwise` call per variable-free op node."""

    @pytest.mark.parametrize("text", NESTED_CONSTANT_PHENOTYPES + [
        map_genotype(ALR, random_derivation(ALR, rng=np.random.default_rng(seed))[0])
        for seed in range(40)],
        ids=[f"nested{i}" for i in range(len(NESTED_CONSTANT_PHENOTYPES))]
        + [f"alr{seed}" for seed in range(40)])
    def test_elementwise_calls_and_visits(self, text, monkeypatch):
        spec = spec_from_phenotype(text)
        trees = slot_trees(spec)
        folded_ops = sum(isinstance(n, Apply) and not referenced_vars(n)
                         for t in trees for n in subtrees(t))
        calls, visits = [], []
        real_elementwise, real_compile = optim.elementwise, optim._compile
        monkeypatch.setattr(optim, "elementwise",
                            lambda *a: calls.append(1) or real_elementwise(*a))
        monkeypatch.setattr(optim, "_compile",
                            lambda e: visits.append(1) or real_compile(e))
        compile_spec(spec)
        assert len(calls) == folded_ops
        assert len(visits) == sum(1 for t in trees for _ in subtrees(t))

    @pytest.mark.parametrize("text", NESTED_CONSTANT_PHENOTYPES,
                             ids=[f"nested{i}" for i in range(len(NESTED_CONSTANT_PHENOTYPES))])
    def test_folded_values_match_eval_expr(self, text):
        spec = spec_from_phenotype(text)
        for node in (n for t in slot_trees(spec) for n in subtrees(t)):
            value = optim._compile(node)[1]
            if referenced_vars(node):
                assert value is None
                continue
            want = eval_expr(node, {})
            assert type(value) is type(want)
            got, want = np.asarray(value), np.asarray(want)
            assert (got.shape, got.dtype, got.tobytes()) == (
                want.shape, want.dtype, want.tobytes())
        assert_compiled_matches_interpreted(spec, 7, 1.0)


class TestGradTainted:
    @pytest.mark.parametrize("name", ["sgd", "momentum", "rmsprop", "sign", "ades"])
    def test_builtin_specs_need_grad(self, name):
        assert "alpha" in grad_tainted(builtin(name))
        assert SpecStepper(builtin(name)).needs_grad

    def test_adam_core_needs_grad(self):
        spec = adam_core_spec(HyperParams())
        assert grad_tainted(spec) == {"grad", "x", "y", "z", "alpha"}
        assert SpecStepper(spec).needs_grad

    @pytest.mark.parametrize("text, tainted", [
        ("grad ; y ; z ; add(alpha, x)", {"grad", "x", "alpha"}),
        # through y: x = grad, y = x, w = alpha + y
        ("grad ; x ; z ; add(alpha, y)", {"grad", "x", "y", "alpha"}),
        # x reads the weights, which the gradient reaches a step later
        ("alpha ; add(y, grad) ; z ; add(alpha, y)", {"grad", "x", "y", "alpha"}),
        ("grad ; y ; z ; multiply(alpha, 0.9)", {"grad", "x"}),
        ("alpha ; y ; z ; x", {"grad"}),
        ("multiply(x, 0.5) ; add(y, grad) ; square(y) ; subtract(alpha, x)",
         {"grad", "y", "z"}),
    ])
    def test_hand_cases(self, text, tainted):
        spec = spec_from_phenotype(text)
        assert grad_tainted(spec) == tainted
        assert SpecStepper(spec).needs_grad == ("alpha" in tainted)

    @pytest.mark.parametrize("text", [
        "grad ; x ; z ; add(alpha, y)",
        "add(x, grad) ; y ; add(z, 1.0) ; add(alpha, z)",
        builtin("ades").phenotype(),
    ])
    def test_stepper_reads_the_spec_walk(self, text, monkeypatch):
        """A spec walks each slot tree once, when it is built, and keeps the
        shared read set of each: a stepper built from it finds the taint from
        those and walks no tree."""
        spec = spec_from_phenotype(text)
        assert spec.reads == tuple(referenced_vars(t) for t in slot_trees(spec))
        assert all(names is optim._NAME_SETS[names] for names in spec.reads)
        calls = []
        real = optim.referenced_vars
        monkeypatch.setattr(optim, "referenced_vars",
                            lambda e: calls.append(1) or real(e))
        stepper = SpecStepper(spec)
        assert calls == []
        assert grad_tainted(spec) == grad_tainted(spec_from_phenotype(text))
        assert stepper.needs_grad == ("alpha" in grad_tainted(spec))

    def test_gradient_free_update_keeps_tainted_state(self):
        spec = spec_from_phenotype("add(x, grad) ; y ; add(z, 1.0) ; add(alpha, z)")
        stepper = SpecStepper(spec)
        assert not stepper.needs_grad
        w = np.array([1.0, 2.0])
        stepper.update(w, None)
        stepper.update(w, None)
        assert stepper.x.tolist() == [0.0, 0.0]  # never run without a gradient
        assert stepper.z.tolist() == [2.0, 2.0]
        assert w.tolist() == [4.0, 5.0]


class GradScaled(SpecStepper):
    """A SpecStepper whose gradients arrive multiplied by `scale`; `force`
    makes train run backward for it whatever its spec needs."""

    def __init__(self, spec, scale, force):
        super().__init__(spec)
        self.scale = scale
        if force:
            self.needs_grad = True

    def update(self, w, g):
        if g is not None:
            with np.errstate(all="ignore"):
                g = g * self.scale
        super().update(w, g)


def train_outcome(spec, seed, scale, force):
    d = synthetic("two_gaussians", 100, noise=0.1, seed=seed % 97)
    data = Dataset(d.x[:70], d.y[:70]), Dataset(d.x[70:], d.y[70:])
    cfg = TrainConfig(batch_size=20, max_epochs=3, early_stop=False)
    net, hist = train(Population.seeded([2, 16, 2], [seed]), GradScaled(spec, scale, force),
                      data, cfg, seed)
    return ([p.tobytes() for p in net.params], hist.val_loss, hist.epochs_run,
            hist.stopped_early, hist.failed)


class TestLeanStepMatchesFullStep:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1.0, 1e-3, 1e3, 1e150, 1e300]),
    )
    def test_random_genotypes(self, seed, grad_scale):
        genotype = random_derivation(ALR, rng=np.random.default_rng(seed))[0]
        spec = spec_from_phenotype(map_genotype(ALR, genotype))
        lean = train_outcome(spec, seed, grad_scale, force=False)
        full = train_outcome(spec, seed, grad_scale, force=True)
        assert lean == full


# slots that return the live weight buffer (alpha) or a folded constant, and
# a rule whose weights no gradient reaches, which steps its lean slots
SHARED_RULE_TEXTS = [
    "alpha ; x ; add(z, grad) ; subtract(y, multiply(0.01, z))",
    "divide_no_nan(1.0, 0.0) ; sqrt(2.0) ; pow(2.0, negative(1.0)) ;"
    " subtract(alpha, multiply(x, add(y, z)))",
    "multiply(grad, divide_no_nan(0.1, 3.0)) ; y ; z ; 0.5",
    "add(x, grad) ; alpha ; add(z, 1.0) ; add(alpha, z)",
]


def alr_text(seed):
    return map_genotype(ALR, random_derivation(ALR, rng=np.random.default_rng(seed))[0])


class TestSharedRule:
    @given(
        st.one_of(st.sampled_from(SHARED_RULE_TEXTS),
                  st.integers(0, 2**32 - 1).map(alr_text)),
        st.integers(0, 2**32 - 1),
        st.integers(2, 6),
    )
    def test_copies_step_as_own_steppers(self, text, seed, n):
        """Steppers copied from one text's stepper, updated in an
        interleaved order on different shapes, each write the bytes of a
        SpecStepper built for it alone; the copies share the compiled slots,
        and the stepper they were copied from keeps no state."""
        spec = spec_from_phenotype(text)
        shared = SpecStepper(spec)
        copies = [copy.copy(shared) for _ in range(n)]
        own = [SpecStepper(spec) for _ in range(n)]
        rng = np.random.default_rng(seed)
        shapes = [TOY_SHAPES[k % len(TOY_SHAPES)] for k in range(n)]
        w_copies = [rng.normal(size=s) for s in shapes]
        w_own = [w.copy() for w in w_copies]
        for t in range(4):
            grads = [rng.normal(size=s) if shared.needs_grad else None for s in shapes]
            with np.errstate(all="ignore"):
                for k in rng.permutation(n):
                    copies[k].update(w_copies[k], grads[k])
                for k in range(n):
                    own[k].update(w_own[k], grads[k])
            for a, b in zip(w_copies, w_own):
                assert a.tobytes() == b.tobytes()
            for a, b in zip(copies, own):
                for got, want in zip((a.x, a.y, a.z), (b.x, b.y, b.z)):
                    got, want = np.asarray(got), np.asarray(want)
                    assert (got.shape, got.dtype, got.tobytes()) == (
                        want.shape, want.dtype, want.tobytes())
        assert all(c._slots is shared._slots for c in copies)
        assert shared.x is shared.y is shared.z is None


class TestHyperParams:
    def test_defaults_for_families(self):
        assert HyperParams.defaults_for("sgd").lr == 0.01
        assert HyperParams.defaults_for("adam").lr == 0.001
        assert HyperParams.defaults_for("rmsprop").lr == 0.001

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            HyperParams(epsilon=0.0)

    def test_finite_required(self):
        with pytest.raises(ValueError):
            HyperParams(lr=float("inf"))

    def test_task_constants_echoed_in_spec(self):
        hp = HyperParams(lr=0.001828827734, rho=0.9750144315)
        text = builtin("rmsprop", hp).phenotype()
        assert "0.9750144315" in text and "0.001828827734" in text

    def test_ades_defaults(self):
        hp = HyperParams()
        assert hp.c1 == 0.08922 and hp.c2 == 0.0891

    def test_sign_step_constant(self):
        assert SIGN_STEP == 9e-4
