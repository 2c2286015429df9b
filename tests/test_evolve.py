"""Fitness semantics (min rule, early cancel), generation loop, checkpoints."""

import csv

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import optevo.dsge as dsge_mod
import optevo.evolve as evolve_mod
from optevo.data import synthetic
from optevo.dsge import EvoParams, map_genotype
from optevo.evolve import (
    LOG_COLUMNS,
    EvolveRunLog,
    FitnessReport,
    TrainingTask,
    alr_fitness_fn,
    dlr_fitness_fn,
    evolve,
    fitness_alr,
    fitness_dlr,
    load_checkpoint,
)
from optevo.grammar import load_shipped_grammar, parse_grammar
from optevo.nn import TrainConfig
from optevo.optim import builtin
from optevo.sched import Leaf


def tiny_task(groups=2, n_per=60, seed=0):
    parts = [synthetic("two_gaussians", n_per, seed=100 + i) for i in range(groups)]
    return TrainingTask(
        trial_groups=parts,
        validation=synthetic("two_gaussians", 40, seed=7),
        test=synthetic("two_gaussians", 40, seed=8),
        layer_sizes=[2, 4, 2],
        train_config=TrainConfig(batch_size=16, max_epochs=2, early_stop=False),
        seed=seed,
    )


def stub_trials(monkeypatch, outcomes):
    """Replace the training trial with a scripted (score, failed) sequence."""
    feed = list(outcomes)
    calls = []

    def fake(task, stepper, trial_index, key):
        calls.append(trial_index)
        out = feed.pop(0)
        return out if isinstance(out, tuple) else (out, False)

    monkeypatch.setattr(evolve_mod, "_run_trial", fake)
    return calls


class TestFitnessAlrSemantics:
    def test_min_over_five_trials(self, monkeypatch):
        stub_trials(monkeypatch, [0.85, 0.9, 0.82, 0.88, 0.84])
        r = fitness_alr(builtin("sgd"), tiny_task(5))
        assert r.fitness == pytest.approx(0.82)
        assert r.trials_run == 5
        assert not r.cancelled_early and not r.failed
        assert r.trial_scores == [0.85, 0.9, 0.82, 0.88, 0.84]

    def test_sub_threshold_first_trial_cancels(self, monkeypatch):
        calls = stub_trials(monkeypatch, [0.3, 0.99, 0.99, 0.99, 0.99])
        r = fitness_alr(builtin("sgd"), tiny_task(5))
        assert r.fitness == pytest.approx(0.3)
        assert r.trials_run == 1
        assert r.cancelled_early
        assert calls == [0]

    def test_mid_run_cancel(self, monkeypatch):
        stub_trials(monkeypatch, [0.85, 0.5, 0.99, 0.99, 0.99])
        r = fitness_alr(builtin("sgd"), tiny_task(5))
        assert r.trials_run == 2
        assert r.cancelled_early
        assert r.fitness == pytest.approx(0.5)

    def test_sub_threshold_last_trial_is_not_a_cancel(self, monkeypatch):
        stub_trials(monkeypatch, [0.9, 0.9, 0.9, 0.9, 0.3])
        r = fitness_alr(builtin("sgd"), tiny_task(5))
        assert r.trials_run == 5
        assert not r.cancelled_early
        assert r.fitness == pytest.approx(0.3)

    def test_failed_training_scores_zero(self, monkeypatch):
        stub_trials(monkeypatch, [(0.0, True)])
        r = fitness_alr(builtin("sgd"), tiny_task(5))
        assert r.failed
        assert r.fitness == 0.0
        assert r.cancelled_early

    def test_custom_threshold(self, monkeypatch):
        stub_trials(monkeypatch, [0.85, 0.9, 0.82, 0.88, 0.84])
        r = fitness_alr(builtin("sgd"), tiny_task(5), threshold=0.83)
        assert r.trials_run == 3
        assert r.cancelled_early

    def test_preconditions(self):
        with pytest.raises(ValueError, match="training groups"):
            fitness_alr(builtin("sgd"), tiny_task(2), trial_number=5)
        with pytest.raises(ValueError, match="trial_number"):
            fitness_alr(builtin("sgd"), tiny_task(2), trial_number=0)

    @given(st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
           st.floats(0.1, 0.9))
    def test_report_invariants(self, scores, threshold):
        outcomes = list(scores)

        def fake(task, stepper, trial_index, key):
            return outcomes[trial_index], False

        original = evolve_mod._run_trial
        evolve_mod._run_trial = fake
        try:
            r = fitness_alr(builtin("sgd"), tiny_task(5), threshold=threshold)
        finally:
            evolve_mod._run_trial = original
        assert r.fitness == min(r.trial_scores)
        assert r.trials_run == len(r.trial_scores) <= 5
        if r.cancelled_early:
            assert r.trial_scores[-1] < threshold
            assert r.trials_run < 5
        else:
            assert all(s >= threshold for s in r.trial_scores[:-1])


class TestFitnessReal:
    def test_alr_deterministic_and_bounded(self):
        task = tiny_task(2)
        a = fitness_alr(builtin("sgd"), task, trial_number=2, threshold=0.0)
        b = fitness_alr(builtin("sgd"), task, trial_number=2, threshold=0.0)
        assert a == b
        assert a.trials_run == 2 and not a.cancelled_early
        assert all(0.0 <= s <= 1.0 for s in a.trial_scores)

    def test_dlr_static_policy_trains(self):
        task = tiny_task(1)
        score = fitness_dlr(Leaf(0.01), task)
        assert 0.0 <= score <= 1.0
        assert score == fitness_dlr(Leaf(0.01), task)

    def test_dlr_divergent_policy_scores_zero(self):
        task = tiny_task(1)
        # large enough that the second update overflows float64
        assert fitness_dlr(Leaf(1e200), task) == 0.0

    def test_adapters_swallow_unparseable_text(self):
        task = tiny_task(1)
        assert alr_fitness_fn(task)("not a phenotype") == 0.0
        assert dlr_fitness_fn(task)("still not one") == 0.0

    def test_dlr_adapter_runs_serialized_leaf(self):
        task = tiny_task(1)
        fn = dlr_fitness_fn(task)
        assert fn("1.00000000e-02") == fitness_dlr(Leaf(0.01), task)


# --- generation loop on stub fitness -----------------------------------------


TOY = parse_grammar("<s> ::= <a> <a> | <a>\n<a> ::= x | y | z\n")


def text_score(text: str) -> float:
    """Deterministic toy objective: reward longer phenotypes containing x."""
    return (text.count("x") * 2 + len(text)) / 20.0


def params(**kw):
    base = dict(population_size=8, generations=5, tournament_size=3,
                mutation_rate=0.3, elitism=1, max_depth=4, rng_seed=1)
    base.update(kw)
    return EvoParams(**base)


def stat_tuple(log):
    return [(s.generation, s.best, s.mean, s.median, s.evaluations) for s in log.stats]


class TestEvolveLoop:
    def test_constant_fitness_gives_flat_log(self):
        best, log = evolve(params(), TOY, lambda text: 0.5)
        assert best.fitness == 0.5
        assert all(s.best == 0.5 and s.mean == 0.5 for s in log.stats)

    def test_zero_generations_returns_best_of_init(self):
        best, log = evolve(params(generations=0), TOY, text_score)
        assert len(log.stats) == 1
        assert log.stats[0].generation == 0
        assert best.fitness == log.stats[0].best

    def test_best_is_monotone_with_elitism(self):
        _, log = evolve(params(generations=12), TOY, text_score)
        bests = [s.best for s in log.stats]
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))

    def test_evaluation_accounting(self):
        _, log = evolve(params(elitism=2, population_size=9), TOY, text_score)
        assert log.stats[0].evaluations == 9
        assert all(s.evaluations == 9 - 2 for s in log.stats[1:])

    def test_deterministic_in_seed(self):
        a = evolve(params(), TOY, text_score)
        b = evolve(params(), TOY, text_score)
        assert stat_tuple(a[1]) == stat_tuple(b[1])
        assert a[0].phenotype == b[0].phenotype
        c = evolve(params(rng_seed=99), TOY, text_score)
        assert stat_tuple(a[1]) != stat_tuple(c[1])

    def test_fitness_cache_deduplicates_calls(self):
        seen = []

        def counting(text):
            seen.append(text)
            return text_score(text)

        _, log = evolve(params(generations=8), TOY, counting)
        assert len(seen) == len(set(seen))  # never trains the same phenotype twice
        # accounting still reports requested evaluations, not cache misses
        assert all(s.evaluations == 7 for s in log.stats[1:])

    def test_workers_do_not_change_results(self):
        a = evolve(params(), TOY, text_score)
        b = evolve(params(), TOY, text_score, workers=4)
        assert stat_tuple(a[1]) == stat_tuple(b[1])
        assert a[0].phenotype == b[0].phenotype

    def test_best_fitness_equals_max_over_log(self):
        best, log = evolve(params(generations=10), TOY, text_score)
        assert best.fitness == max(s.best for s in log.stats)
        assert best.fitness == log.best_fitness
        assert best.phenotype == log.best_phenotype

    def test_on_generation_callback(self):
        rows = []
        evolve(params(generations=3), TOY, text_score,
               on_generation=lambda stat, log: rows.append(stat.generation))
        assert rows == [0, 1, 2, 3]

    def test_generation_zero_is_mapped_once(self, tmp_path, monkeypatch):
        # TOY never dead-ends, so drawing each genotype maps it exactly once
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return map_genotype(*args, **kwargs)

        monkeypatch.setattr(dsge_mod, "map_genotype", counting)
        monkeypatch.setattr(evolve_mod, "map_genotype", counting)
        ckpt = tmp_path / "ckpt.json"
        evolve(params(generations=0), TOY, text_score, checkpoint_path=ckpt)
        assert len(calls) == 8
        _, population, *_ = load_checkpoint(ckpt)
        for ind in population:
            fresh = map_genotype(TOY, ind.genotype.copy(), max_depth=4).text()
            assert ind.phenotype == fresh
        calls.clear()
        evolve(params(generations=3), TOY, text_score)
        assert len(calls) == 8 + 3 * (8 - 1)

    def test_mapping_failures_score_zero_without_crashing(self):
        # choosing <r> dooms a genotype: every alternative recurses forever
        doomed = parse_grammar("<s> ::= <r> | x\n<r> ::= a <r>\n")
        best, log = evolve(
            EvoParams(population_size=4, generations=3, tournament_size=2,
                      mutation_rate=1.0, elitism=1, max_depth=3, rng_seed=5),
            doomed,
            lambda text: 1.0,
        )
        fits = {s.best for s in log.stats}
        assert best.fitness == 1.0  # the elite survives the doomed mutants
        assert all(f in (0.0, 1.0) for f in fits)


class TestLogAndCheckpoint:
    def test_csv_log_shape(self, tmp_path):
        path = tmp_path / "run.csv"
        evolve(params(generations=4), TOY, text_score, log_path=path)
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == list(LOG_COLUMNS)
        assert len(rows) == 1 + 5  # header + generations 0..4
        assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3", "4"]
        # best column is parseable and monotone
        bests = [float(r[1]) for r in rows[1:]]
        assert bests == sorted(bests)

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        ckpt = tmp_path / "state.json"
        full_best, full_log = evolve(params(generations=6), TOY, text_score)
        evolve(params(generations=3), TOY, text_score, checkpoint_path=ckpt)
        resumed_best, resumed_log = evolve(
            params(generations=6), TOY, text_score, resume_from=ckpt
        )
        assert stat_tuple(resumed_log) == stat_tuple(full_log)
        assert resumed_best.phenotype == full_best.phenotype
        assert resumed_best.fitness == full_best.fitness

    def test_resume_from_final_checkpoint_is_a_no_op(self, tmp_path):
        ckpt = tmp_path / "state.json"
        best, log = evolve(params(generations=2), TOY, text_score,
                           checkpoint_path=ckpt)
        again_best, again_log = evolve(params(generations=2), TOY, text_score,
                                       resume_from=ckpt)
        assert stat_tuple(again_log) == stat_tuple(log)
        assert again_best.fitness == best.fitness


class TestEndToEndMini:
    def test_real_task_smoke(self):
        task = tiny_task(1, n_per=80)
        fn = alr_fitness_fn(task, trial_number=1, threshold=0.0)
        best, log = evolve(
            EvoParams(population_size=6, generations=2, tournament_size=2,
                      mutation_rate=0.2, elitism=1, max_depth=4, rng_seed=3),
            load_shipped_grammar("alr"),
            fn,
        )
        assert len(log.stats) == 3
        assert 0.0 <= best.fitness <= 1.0
        assert best.phenotype is not None
