import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optevo.dsge import (
    EvoParams,
    Genotype,
    Individual,
    MappingFailure,
    SHIPPED_GENOTYPES,
    crossover,
    encode,
    load_shipped_genotype,
    map_genotype,
    mutate,
    random_derivation,
    tournament_select,
)
from optevo.grammar import TOKEN_RE, load_shipped_grammar, parse_grammar, sigmoidal_constants
from optevo.optim import OptState, builtin, spec_from_phenotype, step, make_stepper
from optevo.tensor import Rng, tensor

TOY = parse_grammar("<s> ::= a | b")


def grid(k: float) -> float:
    """The grammar-token float for sigmoid(k)."""
    vals = sigmoidal_constants(-10.0, 10.0, 41)
    return float(f"{vals[round((k + 10.0) / 0.5)]:.8e}")


@pytest.fixture(scope="module")
def alr():
    return load_shipped_grammar("alr")


@pytest.fixture(scope="module")
def dlr():
    return load_shipped_grammar("dlr")


class TestMapping:
    def test_modulo_rule(self):
        geno = Genotype({"s": [3]})
        tree = map_genotype(TOY, geno)
        assert tree.text() == "b"  # 3 mod 2 = 1

    def test_repair_records_gene(self):
        geno = Genotype({"s": []})
        tree = map_genotype(TOY, geno, rng=Rng(5).child("repair"))
        assert tree.text() in ("a", "b")
        assert geno.genes["s"][0] in (0, 1)
        # idempotence: remapping without an rng reproduces the phenotype
        again = map_genotype(TOY, geno.copy())
        assert again.text() == tree.text()

    def test_exhausted_without_rng_raises(self):
        with pytest.raises(ValueError, match="repair"):
            map_genotype(TOY, Genotype({"s": []}))

    def test_used_counts_recorded(self):
        geno = Genotype({"s": [0, 7, 9]})
        map_genotype(TOY, geno)
        assert geno.used == {"s": 1}  # trailing genes stay but are dormant

    def test_mapping_deterministic(self, alr):
        geno = random_derivation(alr, rng=Rng(42).child("g"))[0]
        a = map_genotype(alr, geno.copy())
        b = map_genotype(alr, geno.copy())
        assert a.text() == b.text()

    def test_depth_failure_when_only_recursive_alternatives(self, alr):
        # force the function route forever: negative(negative(...))
        geno = Genotype(
            {"start": [0], "x_expr": [1] * 12, "x_update": [0] * 12, "x_func": [0] * 12}
        )
        with pytest.raises(MappingFailure):
            map_genotype(alr, geno, max_depth=6, rng=Rng(0).child("fail"))

    def test_depth_limit_forces_leaf_when_available(self, dlr):
        # nested if(...) conditions: at the limit the expr rule must pick a
        # constant leaf, because that alternative cannot recurse
        geno = Genotype({"expr": [0] * 50})
        tree = map_genotype(dlr, geno, max_depth=3, rng=Rng(1).child("dlr"))

        def count_depth(node, nt, along=0):
            here = along + (1 if node.nonterminal == nt else 0)
            best = here
            for ch in node.children:
                if hasattr(ch, "children"):
                    best = max(best, count_depth(ch, nt, here))
            return best

        assert count_depth(tree, "expr") <= 3 + 1  # limit + the forced leaf level

    def test_depth_limited_leaf_is_still_gene_driven(self, dlr):
        # both genotypes exhaust the depth limit; the restricted choice list
        # has one entry so any gene value maps to the constant-leaf rule
        g1 = Genotype({"expr": [0] * 50})
        g2 = Genotype({"expr": [1] * 50})
        t1 = map_genotype(dlr, g1, max_depth=2, rng=Rng(3).child("a"))
        t2 = map_genotype(dlr, g2, max_depth=2, rng=Rng(3).child("a"))
        assert t1.text()  # both complete without failure
        assert t2.text()


class TestHandBuiltSgd:
    def test_maps_to_descent_rule(self, alr):
        geno = load_shipped_genotype("sgd")
        tree = map_genotype(alr, geno)
        spec = spec_from_phenotype(tree.text(), name="sgd-geno")
        lr = grid(-4.5)
        rng = Rng(99).child("pairs")
        for _ in range(100):
            w = tensor(rng.normal(size=3))
            g = tensor(rng.normal(size=3))
            new_w, _ = step(spec, OptState.zeros(w.shape), w, g)
            np.testing.assert_allclose(new_w, w - lr * g, rtol=0, atol=1e-12)


class TestShippedGenotypes:
    def reference(self, name):
        from optevo.optim import HyperParams, adam_core_spec

        hp = HyperParams(
            lr=grid(-4.5),
            mom=grid(2.0),
            rho=grid(2.5),
            beta1=grid(2.0),
            beta2=grid(3.5),
            epsilon=grid(-10.0),
        )
        return adam_core_spec(hp) if name == "adam_core" else builtin(name, hp)

    @pytest.mark.parametrize("name", SHIPPED_GENOTYPES)
    def test_maps_without_repair(self, alr, name):
        geno = load_shipped_genotype(name)
        before = {nt: list(v) for nt, v in geno.genes.items()}
        map_genotype(alr, geno)  # rng=None: any repair would raise
        assert geno.genes == before

    @pytest.mark.parametrize("name", SHIPPED_GENOTYPES)
    def test_weight_trajectories_match_reference(self, alr, name):
        geno = load_shipped_genotype(name)
        spec = spec_from_phenotype(map_genotype(alr, geno).text(), name=name)
        ref = self.reference(name)
        rng = Rng(2026).child("traj", name)
        for _ in range(20):
            w0 = float(rng.uniform(-1, 1))
            mine = make_stepper(spec)
            theirs = make_stepper(ref)
            wa = np.array([w0])
            wb = np.array([w0])
            for _ in range(10):
                g = np.array([float(rng.normal())])
                mine.update(wa, g.copy())
                theirs.update(wb, g.copy())
                assert abs(float(wa[0]) - float(wb[0])) <= 1e-9


class TestRandomGenotype:
    def test_idempotent_no_repair(self, alr):
        geno, tree = random_derivation(alr, rng=Rng(7).child("init"))
        before = {nt: list(v) for nt, v in geno.genes.items()}
        used = dict(geno.used)
        again = map_genotype(alr, geno)  # no rng: repairs impossible
        assert geno.genes == before and geno.used == used
        assert again.text() == tree.text()

    def test_deterministic(self, alr):
        a = random_derivation(alr, rng=Rng(3).child("x"))[0]
        b = random_derivation(alr, rng=Rng(3).child("x"))[0]
        assert a.genes == b.genes

    def test_distinct_across_seeds(self, alr):
        differing = 0
        for s in range(200):
            a = random_derivation(alr, rng=Rng(s).child("a"))[0]
            b = random_derivation(alr, rng=Rng(s).child("b"))[0]
            differing += a.genes != b.genes
        assert differing >= 198

    def test_requires_rng(self, alr):
        with pytest.raises(ValueError):
            random_derivation(alr)


SHIPPED = {name: load_shipped_grammar(name) for name in ("alr", "dlr")}


class TestEncode:
    @pytest.mark.parametrize("name", sorted(SHIPPED))
    @given(st.integers(0, 2**32 - 1))
    def test_mapping_the_encoding_gives_the_same_tokens(self, name, seed):
        g = SHIPPED[name]
        text = map_genotype(g, random_derivation(g, rng=Rng(seed).child("enc"))[0]).text()
        again = map_genotype(g, encode(g, text)).text()  # no rng: no repair
        assert TOKEN_RE.findall(again) == TOKEN_RE.findall(text)

    @pytest.mark.parametrize("name", SHIPPED_GENOTYPES)
    def test_shipped_lines_map_back_verbatim(self, alr, name):
        geno = load_shipped_genotype(name)
        assert map_genotype(alr, geno).text() == SHIPPED_GENOTYPES[name]

    def test_whitespace_does_not_matter(self, alr):
        tight = "multiply(1.09869426e-02, grad) ; y ; z ; add(alpha, negative(x))"
        assert encode(alr, tight).genes == load_shipped_genotype("sgd").genes

    def test_lowest_alternative_wins(self):
        g = parse_grammar("<s> ::= b | a | a")
        assert encode(g, "a").genes == {"s": [1]}

    @pytest.mark.parametrize(
        "text, max_depth",
        [
            ("grad ; y ; z ; add(alpha, grad )", 6),  # weight slot cannot read grad
            ("y ; y ; z ; x", 6),  # x slot cannot read y
            ("x ; y ; z ; x ; x", 6),  # trailing tokens
            ("negative( negative( grad ) ) ; y ; z ; x", 2),  # deeper than the limit
        ],
    )
    def test_underivable_text_raises(self, alr, text, max_depth):
        with pytest.raises(ValueError, match="cannot derive"):
            encode(alr, text, max_depth=max_depth)


class TestMutate:
    def test_rate_zero_identity(self, alr):
        geno = random_derivation(alr, rng=Rng(1).child("m"))[0]
        out = mutate(geno, 0.0, alr, Rng(2).child("m"))
        assert out.genes == geno.genes

    def test_rate_one_codomain(self):
        out = mutate(Genotype({"s": [0]}), 1.0, TOY, Rng(9).child("m"))
        assert out.genes["s"][0] in (0, 1)

    def test_binomial_concentration(self):
        g = parse_grammar("<s> ::= a | b | c | d | e | f | g | h")
        geno = Genotype({"s": [0] * 10_000})
        out = mutate(geno, 0.15, g, Rng(123).child("conc"))
        # a replacement may redraw the same value; count draws, not changes
        changed = sum(a != b for a, b in zip(geno.genes["s"], out.genes["s"]))
        # P(change) = 0.15 * 7/8; invert to estimate the raw mutation rate
        rate = changed / 10_000 / (7 / 8)
        assert 0.13 <= rate <= 0.17

    def test_unused_suffix_untouched(self):
        geno = Genotype({"s": [0, 0, 0, 0]}, used={"s": 2})
        out = mutate(geno, 1.0, TOY, Rng(4).child("m"))
        assert out.genes["s"][2:] == [0, 0]

    def test_input_not_mutated(self):
        geno = Genotype({"s": [0, 1, 0]})
        snap = [list(v) for v in geno.genes.values()]
        mutate(geno, 1.0, TOY, Rng(5).child("m"))
        assert [list(v) for v in geno.genes.values()] == snap

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            mutate(Genotype({"s": [0]}), 1.5, TOY, Rng(0).child("m"))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_genes_stay_in_range(self, seed):
        g = parse_grammar("<s> ::= a | b | c")
        geno = Genotype({"s": [0] * 50})
        out = mutate(geno, 0.5, g, Rng(seed).child("rng"))
        assert all(0 <= v < 3 for v in out.genes["s"])


class TestCrossover:
    def test_identical_parents(self, alr):
        a = random_derivation(alr, rng=Rng(10).child("p"))[0]
        child = crossover(a, a.copy(), Rng(11).child("c"))
        assert child.genes == a.genes

    def test_lists_inherited_verbatim(self, alr):
        a = random_derivation(alr, rng=Rng(20).child("pa"))[0]
        b = random_derivation(alr, rng=Rng(21).child("pb"))[0]
        child = crossover(a, b, Rng(22).child("c"))
        for nt, lst in child.genes.items():
            assert lst == a.genes.get(nt, []) or lst == b.genes.get(nt, [])

    def test_inheritance_balanced(self):
        a = Genotype({"s": [0], "t": [0], "u": [0]})
        b = Genotype({"s": [1], "t": [1], "u": [1]})
        rng = Rng(33).child("bal")
        from_a = total = 0
        for _ in range(1000):
            child = crossover(a, b, rng)
            for nt in ("s", "t", "u"):
                from_a += child.genes[nt] == [0]
                total += 1
        assert 0.45 <= from_a / total <= 0.55

    def test_used_inherited_with_list(self):
        a = Genotype({"s": [0, 0, 0]}, used={"s": 1})
        b = Genotype({"s": [1, 1]}, used={"s": 2})
        child = crossover(a, b, Rng(44).child("u"))
        if child.genes["s"] == [0, 0, 0]:
            assert child.used["s"] == 1
        else:
            assert child.used["s"] == 2


class TestTournament:
    def make_pop(self, fitnesses):
        return [
            Individual(Genotype({}), fitness=f, id=i) for i, f in enumerate(fitnesses)
        ]

    def test_full_tournament_returns_global_best(self):
        pop = self.make_pop([0.2, 0.9, 0.5, 0.1])
        assert tournament_select(pop, 4, Rng(0).child("t")).fitness == 0.9

    def test_pairwise(self):
        pop = self.make_pop([0.1, 0.9])
        assert tournament_select(pop, 2, Rng(1).child("t")).fitness == 0.9

    def test_k_one_returns_member(self):
        pop = self.make_pop([0.3, 0.6])
        assert tournament_select(pop, 1, Rng(2).child("t")) in pop

    def test_ties_break_to_lower_id(self):
        pop = self.make_pop([0.5, 0.5, 0.5])
        assert tournament_select(pop, 3, Rng(3).child("t")).id == 0

    def test_errors(self):
        with pytest.raises(ValueError):
            tournament_select([], 1, Rng(0).child("t"))
        with pytest.raises(ValueError):
            tournament_select(self.make_pop([0.1]), 2, Rng(0).child("t"))

    def test_selection_monotone_in_fitness(self):
        # raising one individual's fitness must not reduce how often it wins
        low = self.make_pop([0.4, 0.5, 0.6, 0.7])
        high = self.make_pop([0.9, 0.5, 0.6, 0.7])
        rng1 = Rng(77).child("mono")
        rng2 = Rng(77).child("mono")
        wins_low = sum(
            tournament_select(low, 2, rng1).id == 0 for _ in range(300)
        )
        wins_high = sum(
            tournament_select(high, 2, rng2).id == 0 for _ in range(300)
        )
        assert wins_high >= wins_low


class TestTypes:
    def test_genotype_rejects_negative(self):
        with pytest.raises(ValueError):
            Genotype({"s": [-1]})

    def test_genotype_rejects_non_int(self):
        with pytest.raises(ValueError):
            Genotype({"s": [0.5]})

    def test_evo_params_defaults_match_run_setup(self):
        p = EvoParams()
        assert (p.population_size, p.tournament_size, p.mutation_rate) == (20, 5, 0.15)
        assert p.generations == 1500 and p.elitism == 1

    def test_evo_params_validation(self):
        with pytest.raises(ValueError):
            EvoParams(tournament_size=21)
        with pytest.raises(ValueError):
            EvoParams(mutation_rate=1.2)
        with pytest.raises(ValueError):
            EvoParams(elitism=20)
        with pytest.raises(ValueError):
            EvoParams(max_depth=0)

    def test_load_shipped_unknown(self):
        with pytest.raises(ValueError):
            load_shipped_genotype("adagrad")
