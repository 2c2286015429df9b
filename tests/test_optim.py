import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from optevo import optim
from optevo.data import Dataset, synthetic
from optevo.dsge import map_genotype, random_derivation
from optevo.grammar import load_shipped_grammar
from optevo.nn import Network, Stepper, TrainConfig, train
from optevo.optim import (
    BUILTIN_NAMES,
    AdamStepper,
    Apply,
    Const,
    ExprError,
    HyperParams,
    OptState,
    OptimizerSpec,
    SIGN_STEP,
    SpecStepper,
    SpecValidationError,
    UnboundVariableError,
    Var,
    adam_core_spec,
    builtin,
    compile_spec,
    eval_expr,
    grad_tainted,
    make_stepper,
    parse_expr,
    referenced_vars,
    serialize_expr,
    spec_from_json,
    spec_from_phenotype,
    spec_to_json,
    step,
)
from optevo.sched import Leaf
from optevo.tensor import OpCode, Rng, tensor

from oracles import ORACLES

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


class TestStepExamples:
    def test_sgd_single_step(self):
        spec = builtin("sgd", HyperParams(lr=0.01))
        new_w, _ = step(spec, OptState.zeros((1,)), tensor([1.0]), tensor([0.5]))
        np.testing.assert_allclose(new_w, [0.995], rtol=0, atol=1e-15)

    def test_sign_single_step(self):
        spec = builtin("sign")
        new_w, _ = step(spec, OptState.zeros((1,)), tensor([0.5]), tensor([-3.2]))
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
        spec = builtin("momentum")
        state = OptState.zeros((2,))
        w = tensor([1.0, 2.0])
        g = tensor([0.5, -0.5])
        w_copy, g_copy = w.copy(), g.copy()
        step(spec, state, w, g)
        np.testing.assert_array_equal(w, w_copy)
        np.testing.assert_array_equal(g, g_copy)
        np.testing.assert_array_equal(state.x, [0.0, 0.0])


def ades_step(y, w, grad):
    """One step of the built-in ades spec from auxiliary y: (y', w')."""
    w = tensor(w)
    zeros = np.zeros_like(w)
    new_w, state = step(builtin("ades"), OptState(zeros, tensor(y), zeros), w, grad)
    return state.y, new_w


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
        rng = Rng(20260819).child("oracle", name)
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
        rng = Rng(7).child("degenerate")
        w0 = 0.5
        grads = [float(g) for g in rng.normal(size=20)]
        hp = HyperParams(lr=0.05, mom=0.0)
        assert run_trajectory("momentum", hp, w0, grads) == run_trajectory(
            "sgd", hp, w0, grads
        )

    def test_adam_core_spec_matches_oracle(self):
        rng = Rng(11).child("adamcore")
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
            new_w, _ = step(spec, OptState.zeros(w0.shape), w0, zeros)
            np.testing.assert_array_equal(new_w, w0)


class TestSteppers:
    def test_state_never_aliases_weights(self):
        # x_func = alpha stores (a copy of) the weights in state.x
        spec = OptimizerSpec(Var("alpha"), Var("y"), Var("z"), Var("x"))
        stepper = SpecStepper(spec)
        w = np.array([1.0, 2.0])
        stepper.update(w, np.array([0.0, 0.0]))
        w[0] = 99.0  # external in-place write must not leak into state
        np.testing.assert_array_equal(stepper.state.x, [1.0, 2.0])

    def test_failure_flag_on_nonfinite(self):
        spec = spec_from_phenotype(
            "divide_no_nan(1.0, grad) ; y ; z ; pow(alpha, x)"
        )
        stepper = SpecStepper(spec)
        w = np.array([-2.0])
        stepper.update(w, np.array([0.5]))  # pow(-2, 2) ok
        assert not stepper.failed
        stepper.update(w, np.array([0.4]))  # pow(4, 2.5) fine... keep going
        w2 = np.array([-2.0])
        stepper2 = SpecStepper(
            spec_from_phenotype("sqrt(grad) ; y ; z ; add(alpha, x)")
        )
        stepper2.update(w2, np.array([-1.0]))  # sqrt(-1) -> NaN
        assert stepper2.failed

    def test_nesterov_matches_oracle(self):
        hp = HyperParams(lr=0.02, mom=0.8)
        grads = [0.3, -0.1, 0.2, 0.05]
        mine = run_trajectory("nesterov", hp, 1.0, grads)
        expect = ORACLES["nesterov"](1.0, grads, hp)
        np.testing.assert_allclose(mine, expect, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("opt", [*BUILTIN_NAMES, Leaf(0.1)], ids=str)
    def test_nonfinite_gradient_sets_failed_and_writes(self, opt):
        stepper = make_stepper(opt)
        assert isinstance(stepper, Stepper)
        # perfbench/tracing.py times `update` by patching each class's own method
        assert "update" in vars(type(stepper))
        stepper.begin_epoch(0)
        w = np.array([1.0, 1.0])
        stepper.update(w, np.array([np.inf, np.nan]))  # an overflowed backward
        assert stepper.failed
        assert not np.all(np.isfinite(w))

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


def interpreted_step(spec, state, w, g):
    """The reference rule: walk each tree with eval_expr, copy every result."""
    x1 = eval_expr(spec.x_func, {"x": state.x, "grad": g, "alpha": w})
    y1 = eval_expr(spec.y_func, {"x": x1, "y": state.y, "grad": g, "alpha": w})
    z1 = eval_expr(
        spec.z_func, {"x": x1, "y": y1, "z": state.z, "grad": g, "alpha": w}
    )
    new_w = eval_expr(spec.weight_func, {"x": x1, "y": y1, "z": z1, "alpha": w})
    copy = lambda a: np.array(a, dtype=np.float64)
    return copy(new_w), OptState(copy(x1), copy(y1), copy(z1))


TOY_SHAPES = [(2, 16), (16,), (16, 2), (2,)]  # the 2-16-2 net's params


def assert_compiled_matches_interpreted(spec, seed, grad_scale, batches=5):
    """Step SpecStepper and the interpreter side by side on the toy shapes,
    one stepper per shape; returns whether any update failed."""
    rng = Rng(seed).child("compiled-vs-interpreted")
    steppers = [SpecStepper(spec) for _ in TOY_SHAPES]
    w_compiled = [rng.child("w", k).normal(size=s) for k, s in enumerate(TOY_SHAPES)]
    w_interp = [w.copy() for w in w_compiled]
    states = [OptState.zeros(s) for s in TOY_SHAPES]
    failed = False
    for t in range(batches):
        grads = [rng.child("g", t, k).normal(size=s) * grad_scale
                 for k, s in enumerate(TOY_SHAPES)]
        for stepper, w, g in zip(steppers, w_compiled, grads):
            stepper.update(w, g)
        for k, (w, g) in enumerate(zip(w_interp, grads)):
            new_w, states[k] = interpreted_step(spec, states[k], w, g)
            failed = failed or not np.all(np.isfinite(new_w))
            w[...] = new_w
        got = [*w_compiled,
               *(a for s in steppers for a in (s.state.x, s.state.y, s.state.z))]
        want = [*w_interp, *(a for s in states for a in (s.x, s.y, s.z))]
        for a, b in zip(got, want):
            assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
        assert any(s.failed for s in steppers) == failed
    return failed


ALR = load_shipped_grammar("alr")


class TestCompiledMatchesInterpreted:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1.0, 1e-3, 1e3, 1e150, 1e300]),
    )
    def test_random_genotypes(self, seed, grad_scale):
        genotype = random_derivation(ALR, rng=Rng(seed).child("genotype"))[0]
        spec = spec_from_phenotype(map_genotype(ALR, genotype).text())
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
        map_genotype(ALR, random_derivation(ALR, rng=Rng(seed).child("genotype"))[0]).text()
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

    def test_gradient_free_update_keeps_tainted_state(self):
        spec = spec_from_phenotype("add(x, grad) ; y ; add(z, 1.0) ; add(alpha, z)")
        stepper = SpecStepper(spec)
        assert not stepper.needs_grad
        w = np.array([1.0, 2.0])
        stepper.update(w, None)
        stepper.update(w, None)
        state = stepper.state
        assert state.x.tolist() == [0.0, 0.0]  # never run without a gradient
        assert state.z.tolist() == [2.0, 2.0]
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
    cfg = TrainConfig(batch_size=20, max_epochs=3, early_stop=False,
                      shuffle_seed=seed)
    net, hist = train(Network([2, 16, 2], seed=seed), GradScaled(spec, scale, force),
                      data, cfg)
    return ([p.tobytes() for p in net.params], hist.train_loss, hist.val_loss,
            hist.epochs_run, hist.failed)


class TestLeanStepMatchesFullStep:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1.0, 1e-3, 1e3, 1e150, 1e300]),
    )
    def test_random_genotypes(self, seed, grad_scale):
        genotype = random_derivation(ALR, rng=Rng(seed).child("genotype"))[0]
        spec = spec_from_phenotype(map_genotype(ALR, genotype).text())
        lean = train_outcome(spec, seed, grad_scale, force=False)
        full = train_outcome(spec, seed, grad_scale, force=True)
        assert lean == full


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
