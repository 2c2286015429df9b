"""Fitness semantics (min rule, early cancel), generation loop, checkpoints."""

import concurrent.futures
import copy
import csv
import io
import os
import subprocess
import sys
import tempfile
import time
import zlib
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (breed_per_stream, fitness_alr_lone, fitness_dlr_lone, repair_per_stream,
                     seed_population_per_stream)
import optevo.dsge as dsge_mod
import optevo.evolve as evolve_mod
import optevo.nn as nn_mod
import optevo.optim as optim_mod
from optevo.data import synthetic
from optevo.dsge import (
    EvoParams,
    Genotype,
    Individual,
    MappingFailure,
    map_genotype,
    mutate,
    random_derivation,
)
from optevo.evolve import (
    LOG_COLUMNS,
    FitnessReport,
    TrainingTask,
    alr_fitness_fn,
    dlr_fitness_fn,
    evolve,
    load_checkpoint,
    log_text,
    parallel_map,
    save_checkpoint,
)
from optevo.grammar import load_shipped_grammar, parse_grammar
from optevo.nn import TrainConfig
from optevo.optim import HyperParams, SpecStepper, builtin, spec_from_phenotype
from optevo.sched import Leaf, parse_policy, serialize_policy
from optevo.tensor import Rng

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
    """Replace the training trial with a scripted (score, failed) sequence,
    one outcome per member of each population it is given."""
    feed = list(outcomes)
    calls = []

    def fake(task, steppers, trial_index, keys):
        calls.append(trial_index)
        return [out if isinstance(out, tuple) else (out, False)
                for out in (feed.pop(0) for _ in keys)]

    monkeypatch.setattr(evolve_mod, "_run_trial", fake)
    return calls


def spy_reports(monkeypatch):
    """The FitnessReports fitness_alr returns, in call order."""
    reports = []
    real = evolve_mod.fitness_alr

    def spy(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(evolve_mod, "fitness_alr", spy)
    return reports


def wave_report(monkeypatch, task, spec=None, **kwargs):
    """The FitnessReport of one rule (default: sgd), through alr_fitness_fn."""
    reports = spy_reports(monkeypatch)
    text = (spec or builtin("sgd")).phenotype()
    fitness = alr_fitness_fn(task, **kwargs)([text])
    assert len(reports) == 1 and fitness == [reports[0].fitness]
    return reports[0]


class TestFitnessAlrSemantics:
    def test_min_over_five_trials(self, monkeypatch):
        stub_trials(monkeypatch, [0.85, 0.9, 0.82, 0.88, 0.84])
        r = wave_report(monkeypatch, tiny_task(5))
        assert r.fitness == pytest.approx(0.82)
        assert r.trials_run == 5
        assert not r.cancelled_early and not r.failed
        assert r.trial_scores == [0.85, 0.9, 0.82, 0.88, 0.84]

    def test_sub_threshold_first_trial_cancels(self, monkeypatch):
        calls = stub_trials(monkeypatch, [0.3, 0.99, 0.99, 0.99, 0.99])
        r = wave_report(monkeypatch, tiny_task(5))
        assert r.fitness == pytest.approx(0.3)
        assert r.trials_run == 1
        assert r.cancelled_early
        assert calls == [0]

    def test_mid_run_cancel(self, monkeypatch):
        stub_trials(monkeypatch, [0.85, 0.5, 0.99, 0.99, 0.99])
        r = wave_report(monkeypatch, tiny_task(5))
        assert r.trials_run == 2
        assert r.cancelled_early
        assert r.fitness == pytest.approx(0.5)

    def test_sub_threshold_last_trial_is_not_a_cancel(self, monkeypatch):
        stub_trials(monkeypatch, [0.9, 0.9, 0.9, 0.9, 0.3])
        r = wave_report(monkeypatch, tiny_task(5))
        assert r.trials_run == 5
        assert not r.cancelled_early
        assert r.fitness == pytest.approx(0.3)

    def test_failed_training_scores_zero(self, monkeypatch):
        stub_trials(monkeypatch, [(0.0, True)])
        r = wave_report(monkeypatch, tiny_task(5))
        assert r.failed
        assert r.fitness == 0.0
        assert r.cancelled_early

    def test_score_at_threshold_is_not_a_cancel(self, monkeypatch):
        calls = stub_trials(monkeypatch, [0.8, 0.8, 0.8, 0.8, 0.8])
        r = wave_report(monkeypatch, tiny_task(5))
        assert r.trials_run == 5 and calls == [0, 1, 2, 3, 4]
        assert not r.cancelled_early

    def test_custom_threshold(self, monkeypatch):
        stub_trials(monkeypatch, [0.85, 0.9, 0.82, 0.88, 0.84])
        r = wave_report(monkeypatch, tiny_task(5), threshold=0.83)
        assert r.trials_run == 3
        assert r.cancelled_early

    def test_preconditions(self):
        with pytest.raises(ValueError, match="training groups"):
            alr_fitness_fn(tiny_task(2), trial_number=5)
        with pytest.raises(ValueError, match="trial_number"):
            alr_fitness_fn(tiny_task(2), trial_number=0)

    @given(st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
           st.floats(0.1, 0.9))
    def test_report_invariants(self, scores, threshold):
        outcomes = list(scores)

        def fake(task, steppers, trial_index, keys):
            return [(outcomes[trial_index], False) for _ in keys]

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(evolve_mod, "_run_trial", fake)
            r = wave_report(monkeypatch, tiny_task(5), threshold=threshold)
        assert r.fitness == min(r.trial_scores)
        assert r.trials_run == len(r.trial_scores) <= 5
        if r.cancelled_early:
            assert r.trial_scores[-1] < threshold
            assert r.trials_run < 5
        else:
            assert all(s >= threshold for s in r.trial_scores[:-1])


class TestFitnessReal:
    def test_alr_deterministic_and_bounded(self, monkeypatch):
        task = tiny_task(2)
        a = wave_report(monkeypatch, task, trial_number=2, threshold=0.0)
        b = fitness_alr_lone(builtin("sgd"), task, trial_number=2, threshold=0.0)
        assert a == b
        assert a.trials_run == 2 and not a.cancelled_early
        assert all(0.0 <= s <= 1.0 for s in a.trial_scores)

    def test_lone_trial_trains_a_network(self, monkeypatch):
        """A lone key trains a Population of one, whose history holds
        scalars (a population's 1-tuple (False,) would read as failed), and
        scores what it scores as a member of a wave."""
        task, text = tiny_task(1), builtin("sgd").phenotype()
        histories = []
        real = nn_mod.train

        def spy(net, *args):
            histories.append((len(net), real(net, *args)))
            return histories[-1][1]

        monkeypatch.setattr(nn_mod, "train", spy)
        lone = evolve_mod._run_trial(task, SpecStepper(builtin("sgd")), 0, text)
        (members, (_, hist)), = histories
        assert members == 1 and hist.failed is False
        wave = evolve_mod._run_trial(task, [SpecStepper(builtin("sgd")) for _ in range(2)], 0,
                                     [text, builtin("momentum").phenotype()])
        assert lone == wave[0] and not lone[1]

    def test_dlr_static_policy_trains(self):
        task = tiny_task(1)
        score = fitness_dlr_lone(Leaf(0.01), task)
        assert 0.0 <= score <= 1.0
        assert score == fitness_dlr_lone(Leaf(0.01), task)

    def test_dlr_divergent_policy_scores_zero(self):
        task = tiny_task(1)
        # large enough that the second update overflows float64
        assert dlr_fitness_fn(task)([serialize_policy(Leaf(1e200))]) == [0.0]
        assert fitness_dlr_lone(Leaf(1e200), task) == 0.0

    def test_adapters_swallow_unparseable_text(self):
        task = tiny_task(1)
        assert alr_fitness_fn(task, trial_number=1)(["not a phenotype"]) == [0.0]
        assert dlr_fitness_fn(task)(["still not one"]) == [0.0]

    def test_dlr_adapter_runs_serialized_leaf(self):
        task = tiny_task(1)
        fn = dlr_fitness_fn(task)
        assert fn(["1.00000000e-02"]) == [fitness_dlr_lone(Leaf(0.01), task)]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.floats(0.0, 1.0),
           st.lists(st.one_of(
               st.integers(0, 2**32 - 1),
               st.tuples(st.sampled_from(["sgd", "momentum"]), st.floats(0.01, 1.0))),
               min_size=1, max_size=6),
           st.sampled_from([200, 2**16]))
    def test_wave_reports_match_lone(self, trial_number, threshold, draws, elements):
        """Over random trial counts, thresholds and rules, each text's
        report from one wave is fitness_alr_lone's, wherever the threshold
        cancels it and however nn.train stacks the trial. A rule is a
        grammar draw, most of which train to chance or fail, or sgd or
        momentum at a random learning rate, whose scores vary by trial."""
        task = tiny_task(4)
        task.train_config = TrainConfig(batch_size=16, max_epochs=3, patience=1)
        grammar = load_shipped_grammar("alr")
        rules = [Rng(d).draw(partial(random_derivation, grammar, 6))[1] if isinstance(d, int)
                 else builtin(d[0], HyperParams(lr=d[1])).phenotype() for d in draws]
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(nn_mod, "POPULATION_ELEMENTS", elements)
            reports = spy_reports(monkeypatch)
            got = alr_fitness_fn(task, trial_number, threshold)(rules)
        want = [fitness_alr_lone(spec_from_phenotype(text), task, trial_number, threshold)
                for text in rules]
        assert reports == want
        assert got == [r.fitness for r in want]

    @pytest.mark.parametrize("elements", [200, 2**16])
    def test_wave_matches_per_text_fitness(self, monkeypatch, elements):
        """A list of texts scores as each text does alone, whether nn.train
        cuts each trial into stacks of 3 (200 elements: 16 rows x 4 wide) or
        trains one stack per kind: fitness_alr_lone's report for rules,
        gradient-free and failing ones among them, cancelled at trials 0, 1
        and 2 or running every trial; fitness_dlr_lone for schedules; and 0
        for a text that does not parse. Each trial is one _run_trial call on
        exactly the texts still open, and no trial trains a lone network."""
        monkeypatch.setattr(nn_mod, "POPULATION_ELEMENTS", elements)
        task = tiny_task(4)
        task.train_config = TrainConfig(batch_size=16, max_epochs=6, patience=2)
        grammar = load_shipped_grammar("alr")
        rules = [Rng(5).child(i).draw(partial(random_derivation, grammar, 6))[1]
                 for i in range(14)]
        rules[3:3] = ["grad ; y ; z ; multiply(alpha, 0.9)", "not a rule",
                      "multiply(grad, grad) ; y ; z ; subtract(alpha, multiply(1e300, x))",
                      *(builtin(name, HyperParams(lr=lr)).phenotype()
                        for name, lr in [("sgd", 0.5), ("sgd", 0.02), ("momentum", 0.1),
                                         ("ades", 0.01)])]
        members = []  # per _run_trial call: (trial, population size or None)
        real_trial = evolve_mod._run_trial

        def counted(task, stepper, trial_index, key):
            members.append((trial_index, None if isinstance(key, str) else len(key)))
            return real_trial(task, stepper, trial_index, key)

        stacks = []  # per stacked pass: (members, their needs_grad kinds, kind)
        real_stacked = nn_mod._train_stacked

        def stacked(pop, index, steppers, seeds, data, cfg, needs_grad, done):
            stacks.append((len(index), {s.needs_grad for s in steppers}, needs_grad))
            return real_stacked(pop, index, steppers, seeds, data, cfg, needs_grad, done)

        monkeypatch.setattr(evolve_mod, "_run_trial", counted)
        monkeypatch.setattr(nn_mod, "_train_stacked", stacked)
        reports = spy_reports(monkeypatch)
        got = alr_fitness_fn(task, trial_number=4, threshold=0.6)(rules)
        monkeypatch.setattr(evolve_mod, "_run_trial", real_trial)
        monkeypatch.setattr(nn_mod, "_train_stacked", real_stacked)
        want = [None if text == "not a rule" else fitness_alr_lone(
            spec_from_phenotype(text), task, trial_number=4, threshold=0.6)
            for text in rules]
        assert reports == [r for r in want if r]
        assert got == [0.0 if r is None else r.fitness for r in want]
        # some rules fail, some are cancelled at each of trials 0-2, and
        # some run every trial
        assert {1, 2, 3, 4} <= {r.trials_run for r in want if r}
        assert {1, 2, 3} <= {r.trials_run for r in want if r and r.cancelled_early}
        assert any(r.failed for r in want if r)
        # one _run_trial call per trial, on each text still open
        assert members == [(t, sum(r.trials_run > t for r in want if r))
                           for t in range(4)]
        # nn.train stacks at most population_size members, all of one kind
        budget = nn_mod.population_size(16, [2, 4, 2])
        assert all(size <= budget and kinds == {kind} for size, kinds, kind in stacks)
        assert {kind for _, _, kind in stacks} == {True, False}
        assert sum(size for size, _, _ in stacks) == sum(size for _, size in members)
        # only the small budget cuts one kind of one trial into several stacks
        assert (len(stacks) > 2 * len(members)) == (elements == 200)
        policies = ["1.00000000e-02", "if(epoch < 1.0, 0.5, 1e200)", "0.3", "oops", "2.0"]
        want = [0.0 if text == "oops" else fitness_dlr_lone(parse_policy(text), task)
                for text in policies]
        assert dlr_fitness_fn(task)(policies) == want

    def test_each_text_compiles_once(self, monkeypatch):
        """One alr_fitness_fn call compiles each parsed text's rule once,
        however many trials the text runs: each trial steps a copy of the
        text's one SpecStepper."""
        compiled = []
        real_compile = optim_mod.compile_spec
        monkeypatch.setattr(optim_mod, "compile_spec",
                            lambda spec: compiled.append(spec.phenotype()) or real_compile(spec))
        reports = spy_reports(monkeypatch)
        rules = [builtin(name).phenotype() for name in ("sgd", "momentum", "ades")]
        rules += ["grad ; y ; z ; multiply(alpha, 0.9)", "not a rule"]
        alr_fitness_fn(tiny_task(3), trial_number=3, threshold=0.0)(rules)
        assert [r.trials_run for r in reports] == [3, 3, 3, 3]
        assert compiled == [spec_from_phenotype(text).phenotype() for text in rules[:4]]


class TestParallelMap:
    def test_keeps_item_order_across_workers(self):
        items = list(range(37))
        for workers in (2, 3):
            out = parallel_map(lambda i: (i * i, os.getpid()), items, workers)
            assert [sq for sq, _ in out] == [i * i for i in items]
            assert os.getpid() not in {pid for _, pid in out}  # forked workers

    @pytest.mark.parametrize("workers, items", [(1, range(5)), (4, [7]), (4, [])])
    def test_serial_builds_no_executor(self, monkeypatch, workers, items):
        def refuse(*args, **kwargs):
            raise AssertionError("serial map built an executor")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        calls = []
        out = parallel_map(lambda i: calls.append(i) or i + 1, items, workers)
        assert out == [i + 1 for i in items]
        assert calls == list(items)  # ran here, in order

    def test_worker_exit_breaks_the_pool_instead_of_hanging(self):
        code = (
            "import os\n"
            "from concurrent.futures.process import BrokenProcessPool\n"
            "from optevo.evolve import parallel_map\n"
            "try:\n"
            "    parallel_map(lambda i: os._exit(1), range(4), 2)\n"
            "except BrokenProcessPool:\n"
            "    print('broken')\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(evolve_mod.__file__).parents[1])}
        started = time.monotonic()
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        assert out.split() == ["broken"]
        assert time.monotonic() - started < 30

    def test_serial_run_imports_no_process_pool(self, tmp_path):
        code = (
            "import sys\n"
            "from optevo.cli import main\n"
            f"rc = main(['evolve', {str(CONFIGS / 'evolve-alr.json')!r}, "
            "'--generations', '1', '--population', '6', "
            f"'--run-dir', {str(tmp_path / 'run')!r}])\n"
            "print(rc, sorted(m for m in sys.modules if m.startswith("
            "('multiprocessing', 'concurrent.futures.process', "
            "'concurrent.futures.thread'))))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(evolve_mod.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out.splitlines()[-1] == "0 []"


# --- generation loop on stub fitness -----------------------------------------


TOY = parse_grammar("<s> ::= <a> <a> | <a>\n<a> ::= x | y | z\n")


def text_score(text: str) -> float:
    """Deterministic toy objective: reward longer phenotypes containing x."""
    return (text.count("x") * 2 + len(text)) / 20.0


def per_text(score):
    """A fitness function of a list of texts from a function of one text."""
    return lambda texts: [score(text) for text in texts]


def params(**kw):
    base = dict(population_size=8, generations=5, tournament_size=3,
                mutation_rate=0.3, elitism=1, max_depth=4, rng_seed=1)
    base.update(kw)
    return EvoParams(**base)


def stat_tuple(run):
    return [(s.generation, s.best, s.mean, s.median, s.evaluations) for s in run.stats]


class TestEvolveLoop:
    def test_constant_fitness_gives_flat_log(self):
        run = evolve(params(), TOY, per_text(lambda text: 0.5))
        assert run.best.fitness == 0.5
        assert all(s.best == 0.5 and s.mean == 0.5 for s in run.stats)

    def test_zero_generations_returns_best_of_init(self):
        run = evolve(params(generations=0), TOY, per_text(text_score))
        assert len(run.stats) == 1
        assert run.stats[0].generation == 0
        assert run.best.fitness == run.stats[0].best

    def test_best_is_monotone_with_elitism(self):
        run = evolve(params(generations=12), TOY, per_text(text_score))
        bests = [s.best for s in run.stats]
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))

    def test_evaluation_accounting(self):
        run = evolve(params(elitism=2, population_size=9), TOY, per_text(text_score))
        assert run.stats[0].evaluations == 9
        assert all(s.evaluations == 9 - 2 for s in run.stats[1:])

    def test_deterministic_in_seed(self):
        a = evolve(params(), TOY, per_text(text_score))
        b = evolve(params(), TOY, per_text(text_score))
        assert stat_tuple(a) == stat_tuple(b)
        assert a.best.phenotype == b.best.phenotype
        c = evolve(params(rng_seed=99), TOY, per_text(text_score))
        assert stat_tuple(a) != stat_tuple(c)

    def test_fitness_cache_deduplicates_calls(self):
        seen = []

        def counting(text):
            seen.append(text)
            return text_score(text)

        run = evolve(params(generations=8), TOY, per_text(counting))
        assert len(seen) == len(set(seen))  # never trains the same phenotype twice
        # accounting still reports requested evaluations, not cache misses
        assert all(s.evaluations == 7 for s in run.stats[1:])

    @settings(max_examples=3)
    @given(st.integers(0, 2**31 - 1))
    def test_workers_do_not_change_results(self, seed):
        a = evolve(params(rng_seed=seed), TOY, per_text(text_score))
        for workers in (2, 3):
            b = evolve(params(rng_seed=seed), TOY, per_text(text_score), workers=workers)
            assert stat_tuple(a) == stat_tuple(b)
            assert a.best.phenotype == b.best.phenotype

    def test_best_fitness_equals_max_over_log(self):
        """The run's best is the first individual to reach the best fitness
        of the log, at elitism 0 too, where later generations may lose it."""
        for elitism in (0, 1):
            populations = []
            run = evolve(params(generations=10, elitism=elitism), TOY, per_text(text_score),
                         on_generation=lambda state: populations.append(state.population))
            assert run.best.fitness == max(s.best for s in run.stats)
            first = next(pop for pop in populations if max(ind.fitness for ind in pop)
                         == run.best.fitness)
            assert run.best == min((ind for ind in first if ind.fitness == run.best.fitness),
                                   key=lambda ind: ind.id)

    def test_on_generation_callback(self):
        rows = []
        evolve(params(generations=3), TOY, per_text(text_score),
               on_generation=lambda run: rows.append(run.generation))
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
        evo = params(generations=0)
        evolve(evo, TOY, per_text(text_score),
               on_generation=partial(save_checkpoint, ckpt))
        assert len(calls) == 8
        for ind in load_checkpoint(ckpt).population:
            fresh = map_genotype(TOY, ind.genotype.copy(), max_depth=4)
            assert ind.phenotype == fresh
        calls.clear()
        evolve(params(generations=3), TOY, per_text(text_score))
        assert len(calls) == 8 + 3 * (8 - 1)

    def test_mapping_failures_score_zero_without_crashing(self):
        # choosing <r> dooms a genotype: every alternative recurses forever
        doomed = parse_grammar("<s> ::= <r> | x\n<r> ::= a <r>\n")
        run = evolve(
            EvoParams(population_size=4, generations=3, tournament_size=2,
                      mutation_rate=1.0, elitism=1, max_depth=3, rng_seed=5),
            doomed,
            per_text(lambda text: 1.0),
        )
        fits = {s.best for s in run.stats}
        assert run.best.fitness == 1.0  # the elite survives the doomed mutants
        assert all(f in (0.0, 1.0) for f in fits)


ALR = load_shipped_grammar("alr")
DLR = load_shipped_grammar("dlr")


def individuals(seeds, ids):
    """Mapped genotypes, mutated before their mapping, so that some hold
    genes that their last mapping did not reach, or failed to map."""
    out = []
    for seed, ind_id in zip(seeds, ids):
        rng = np.random.default_rng(seed)
        geno = mutate(random_derivation(ALR, 6, rng)[0], 0.5, ALR, rng)
        try:
            map_genotype(ALR, geno, 6, rng)
        except MappingFailure:
            pass
        out.append(Individual(geno, id=ind_id, fitness=(seed % 7) / 7))
    return out


def genotypes(population):
    return [(ind.id, ind.genotype.genes, ind.genotype.used) for ind in population]


class TestBulkStreams:
    """Breeding, seeding and repair draw each stream's numbers through the
    shared generator; every choice is the one a generator built for its own
    stream alone makes (`oracles.stream`)."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**40), st.integers(1, 50), st.sampled_from([0.0, 0.5, 1.0]))
    def test_breed_matches_per_choice_streams(self, seed, generation, crossover_prob):
        evo = params(population_size=12, elitism=2, mutation_rate=0.3,
                     crossover_prob=crossover_prob)
        root = Rng(seed).child("evolve")
        population = individuals(range(seed, seed + 12), range(100, 112))
        before = copy.deepcopy(genotypes(population))
        got, got_id = evolve_mod._breed(population, evo, ALR, root, generation, 500)
        want, want_id = breed_per_stream(individuals(range(seed, seed + 12), range(100, 112)),
                                         evo, ALR, seed, generation, 500)
        assert got_id == want_id == 510
        assert genotypes(got) == genotypes(want)
        assert genotypes(population) == before  # parents are never written

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**40), st.integers(1, 50), st.integers(2, 6))
    def test_repairs_match_per_stream_repairs(self, seed, generation, max_depth):
        """Genotypes cut short are repaired, and some fail to map, each as a
        generator of its own stream ("repair", generation, id) repairs it;
        a failed mapping leaves the next stream's draws as they were."""
        evo = params(max_depth=max_depth)
        ids = [3, 11, 40, 41, 97, 1000]
        pending = individuals(range(seed, seed + len(ids)), ids)
        for k, ind in enumerate(pending):
            ind.fitness = None
            for lst in ind.genotype.genes.values():
                del lst[k % 3:]
        want = copy.deepcopy(pending)
        evolve_mod._evaluate_wave(pending, ALR, evo, per_text(text_score), {},
                                  Rng(seed).child("evolve"), generation, 1)
        texts = repair_per_stream(want, ALR, max_depth, seed, generation)
        assert [ind.phenotype for ind in pending] == texts
        assert genotypes(pending) == genotypes(want)

    def test_seed_population_and_repairs_are_their_streams(self, tmp_path):
        """Generation 0's genotype i is the random derivation of stream
        ("seed-pop", i); a bred genotype that runs out of genes is repaired
        from stream ("repair", generation, id)."""
        evo = params(population_size=6, generations=0, max_depth=6)
        evolve(evo, ALR, per_text(text_score),
               on_generation=partial(save_checkpoint, tmp_path / "c.json"))
        population = load_checkpoint(tmp_path / "c.json").population
        want = seed_population_per_stream(ALR, 6, evo.rng_seed, 6)
        assert [(ind.genotype.genes, ind.phenotype) for ind in population] == [
            (ind.genotype.genes, ind.phenotype) for ind in want]
        pending = [Individual(Genotype({}), id=ind_id) for ind_id in (3, 11, 40)]
        root = Rng(evo.rng_seed).child("evolve")
        evolve_mod._evaluate_wave(pending, ALR, evo, per_text(text_score), {}, root, 7, 1)
        fresh = [Individual(Genotype({}), id=ind_id) for ind_id in (3, 11, 40)]
        texts = repair_per_stream(fresh, ALR, 6, evo.rng_seed, 7)
        assert [(ind.genotype.genes, ind.phenotype) for ind in pending] == [
            (ind.genotype.genes, text) for ind, text in zip(fresh, texts)]


class TestLogAndCheckpoint:
    def test_csv_log_shape(self):
        run = evolve(params(generations=4), TOY, per_text(text_score))
        rows = list(csv.reader(io.StringIO(log_text(run.stats, header=True))))
        assert rows[0] == list(LOG_COLUMNS)
        assert len(rows) == 1 + 5  # header + generations 0..4
        assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3", "4"]
        # best column is parseable and monotone
        bests = [float(r[1]) for r in rows[1:]]
        assert bests == sorted(bests)

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        ckpt = tmp_path / "state.json"
        full = evolve(params(generations=6), TOY, per_text(text_score))
        evo = params(generations=3)
        evolve(evo, TOY, per_text(text_score), on_generation=partial(save_checkpoint, ckpt))
        resumed = evolve(
            params(generations=6), TOY, per_text(text_score),
            resume_from=load_checkpoint(ckpt),
        )
        assert stat_tuple(resumed) == stat_tuple(full)
        assert resumed.best.phenotype == full.best.phenotype
        assert resumed.best.fitness == full.best.fitness

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from([ALR, DLR]), st.integers(0, 1), st.integers(0, 2**31 - 1),
           st.integers(0, 3))
    def test_resume_at_every_generation_is_the_uninterrupted_run(
            self, grammar, elitism, seed, stop):
        """Stopped after generation `stop`, saved, loaded and resumed, a run
        ends as the uninterrupted run does: its best (fitness, phenotype,
        genes and used counts), stats bar their seconds, population and
        cache. Every checkpoint loads back equal to the run it saved."""
        evo = params(population_size=6, generations=3, tournament_size=2, elitism=elitism,
                     max_depth=6, rng_seed=seed)
        # a coarse score, so that individuals tie on fitness
        fitness = per_text(lambda text: zlib.crc32(text.encode()) % 4 / 4)

        def strip(run):  # the run without its timings
            return replace(run, stats=[replace(stat, seconds=0.0) for stat in run.stats])

        with tempfile.TemporaryDirectory() as tmp:
            ckpt = Path(tmp) / "c.json"

            def save(run):
                save_checkpoint(ckpt, run)
                assert load_checkpoint(ckpt) == run

            full = evolve(evo, grammar, fitness)
            evolve(replace(evo, generations=stop), grammar, fitness, on_generation=save)
            resumed = evolve(evo, grammar, fitness, resume_from=load_checkpoint(ckpt),
                             on_generation=save)
        assert vars(resumed.best.genotype) == vars(full.best.genotype)
        assert strip(resumed) == strip(full)

    def test_resume_from_final_checkpoint_is_a_no_op(self, tmp_path):
        ckpt = tmp_path / "state.json"
        evo = params(generations=2)
        run = evolve(evo, TOY, per_text(text_score),
                     on_generation=partial(save_checkpoint, ckpt))
        again = evolve(evo, TOY, per_text(text_score), resume_from=load_checkpoint(ckpt))
        assert stat_tuple(again) == stat_tuple(run)
        assert again.best.fitness == run.best.fitness
        assert again == run  # the checkpoint as it came


class TestEndToEndMini:
    def test_real_task_smoke(self):
        task = tiny_task(1, n_per=80)
        fn = alr_fitness_fn(task, trial_number=1, threshold=0.0)
        run = evolve(
            EvoParams(population_size=6, generations=2, tournament_size=2,
                      mutation_rate=0.2, elitism=1, max_depth=4, rng_seed=3),
            load_shipped_grammar("alr"),
            fn,
        )
        assert len(run.stats) == 3
        assert 0.0 <= run.best.fitness <= 1.0
        assert run.best.phenotype is not None
