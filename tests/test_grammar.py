import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from optevo.cli import EXIT_OK, main
from optevo.grammar import (
    Grammar,
    GrammarError,
    Nonterminal,
    Terminal,
    is_scheduler_grammar,
    load_shipped_grammar,
    parse_grammar,
    serialize_grammar,
    sigmoidal_constants,
)


class TestParsing:
    def test_basic_rule(self):
        g = parse_grammar("<s> ::= a <t> b | c\n<t> ::= x")
        assert g.start == "s"
        assert g.expansions("s") == [
            (Terminal("a"), Nonterminal("t"), Terminal("b")),
            (Terminal("c"),),
        ]

    def test_duplicates_preserved(self):
        g = parse_grammar("<s> ::= a | a | b")
        assert g.expansions("s") == [(Terminal("a"),), (Terminal("a"),), (Terminal("b"),)]

    def test_embedded_nonterminal_in_token(self):
        g = parse_grammar("<s> ::= add(x, <t>) \n<t> ::= y")
        assert g.expansions("s") == [
            (Terminal("add(x,"), Nonterminal("t"), Terminal(")")),
        ]

    def test_continuation_lines(self):
        g = parse_grammar("<s> ::= a |\n  b |\n  c")
        assert len(g.expansions("s")) == 3

    def test_comments_and_blanks(self):
        g = parse_grammar("# header\n\n<s> ::= a  # trailing\n")
        assert g.expansions("s") == [(Terminal("a"),)]

    def test_comparator_tokens_are_terminals(self):
        g = parse_grammar("<s> ::= < | <= | > | >=")
        assert all(isinstance(alt[0], Terminal) for alt in g.expansions("s"))

    def test_undefined_nonterminal_rejected(self):
        with pytest.raises(GrammarError, match="undefined nonterminal"):
            parse_grammar("<s> ::= <missing>")

    def test_empty_alternative_rejected(self):
        with pytest.raises(GrammarError, match="empty alternative") as e:
            parse_grammar("<s> ::= a | | b")
        assert e.value.line == 1

    def test_syntax_error_has_line_number(self):
        with pytest.raises(GrammarError) as e:
            parse_grammar("<s> ::= a\nnot a rule at all")
        assert e.value.line == 2

    def test_duplicate_rule_rejected(self):
        with pytest.raises(GrammarError, match="duplicate rule"):
            parse_grammar("<s> ::= a\n<s> ::= b")

    def test_dangling_continuation_rejected(self):
        with pytest.raises(GrammarError, match="dangling"):
            parse_grammar("<s> ::= a |")

    def test_unknown_nonterminal_lookup(self):
        g = parse_grammar("<s> ::= a")
        with pytest.raises(GrammarError, match="unknown nonterminal"):
            g.expansions("nope")


class TestRoundTrip:
    def test_shipped_grammars_round_trip(self):
        # then two small grammars: an <lr_const> rule is what marks a
        # scheduler grammar, whatever the start rule is called
        grammars = [
            (load_shipped_grammar("alr"), False),
            (load_shipped_grammar("dlr"), True),
            (parse_grammar("<s> ::= x | add(x, <weight_const>)\n"
                           "<weight_const> ::= 0.5"), False),
            (parse_grammar("<s> ::= <lr_const> | if(epoch < 5, <s>, <s>)\n"
                           "<lr_const> ::= 0.1 | 0.01"), True),
        ]
        for g, scheduler in grammars:
            assert parse_grammar(serialize_grammar(g)) == g
            assert is_scheduler_grammar(g) is scheduler

    names = st.sampled_from(["s", "t", "u"])

    @given(
        st.dictionaries(
            names,
            st.lists(
                st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_random_terminal_grammars_round_trip(self, raw):
        rules = {
            nt: [tuple(Terminal(t) for t in alt) for alt in alts]
            for nt, alts in raw.items()
        }
        g = Grammar(rules, next(iter(rules)))
        assert parse_grammar(serialize_grammar(g)) == g


class TestSigmoidalConstants:
    def test_endpoints_to_nine_digits(self):
        vals = sigmoidal_constants(-10.0, 10.0, 41)
        assert f"{vals[0]:.8e}" == "4.53978687e-05"
        assert f"{vals[-1]:.8e}" == "9.99954602e-01"

    def test_count_and_monotonic(self):
        vals = sigmoidal_constants(-10.0, 10.0, 41)
        assert len(vals) == 41
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_midpoint_is_half(self):
        vals = sigmoidal_constants(-10.0, 10.0, 41)
        assert vals[20] == pytest.approx(0.5, abs=1e-15)

    def test_symmetry_complements_on_grid(self):
        vals = sigmoidal_constants(-10.0, 10.0, 41)
        for v, w in zip(vals, reversed(vals)):
            assert v + w == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(min_value=-20, max_value=20, allow_nan=False))
    def test_matches_reference_sigmoid(self, k):
        got = sigmoidal_constants(k - 1, k + 1, 3)[1]
        assert got == pytest.approx(1 / (1 + math.exp(-k)), rel=1e-12)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            sigmoidal_constants(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            sigmoidal_constants(1.0, 0.0, 3)


@pytest.fixture(scope="module")
def alr():
    return load_shipped_grammar("alr")


@pytest.fixture(scope="module")
def dlr():
    return load_shipped_grammar("dlr")


def test_shipped_grammars_pass_every_grammar_check(capsys):
    for name in ("alr", "dlr"):
        assert main(["grammar-check", name]) == EXIT_OK, name
        lines = capsys.readouterr().out.splitlines()
        results = [line for line in lines if " — " in line]
        assert results and all(line.startswith("PASS: ") for line in results), name
        assert lines[-1] == f"{len(results)}/{len(results)} checks passed"


class TestShippedOptimizerGrammar:
    @pytest.fixture
    def g(self, alr):
        return alr

    def test_start_produces_four_sections(self, g):
        (alt,) = g.expansions("start")
        semis = [s for s in alt if isinstance(s, Terminal) and s.text == ";"]
        nts = [s.name for s in alt if isinstance(s, Nonterminal)]
        assert len(semis) == 3
        assert nts == ["x_expr", "y_expr", "z_expr", "weight_expr"]

    def test_gradient_unreachable_from_weight(self, g):
        assert "grad" not in g.reachable_terminals("weight_expr")

    def test_later_auxiliaries_unreachable_from_earlier(self, g):
        x_terms = g.reachable_terminals("x_expr")
        assert "y" not in x_terms and "z" not in x_terms
        y_terms = g.reachable_terminals("y_expr")
        assert "z" not in y_terms and "x" in y_terms

    def test_weight_sees_all_auxiliaries(self, g):
        terms = g.reachable_terminals("weight_expr")
        assert {"x", "y", "z"} <= terms

    def test_grad_duplicated_in_terminals(self, g):
        for nt in ("x_terminal", "y_terminal", "z_terminal"):
            alts = g.expansions(nt)
            grads = [a for a in alts if a == (Terminal("grad"),)]
            assert len(grads) == 2, nt

    def test_each_family_has_41_constants(self, g):
        for nt in ("x_const", "y_const", "z_const", "weight_const"):
            assert len(g.expansions(nt)) == 41

    def test_operator_set(self, g):
        ops = set()
        for alt in g.expansions("x_func"):
            ops.add(alt[0].text.split("(")[0])
        assert ops == {
            "negative",
            "subtract",
            "multiply",
            "pow",
            "square",
            "divide_no_nan",
            "add",
            "sqrt",
        }


class TestShippedSchedulerGrammar:
    @pytest.fixture
    def g(self, dlr):
        return dlr

    def test_expr_is_tree_or_constant(self, g):
        alts = g.expansions("expr")
        assert len(alts) == 2
        assert alts[0][0] == Terminal("if(")
        assert alts[1] == (Nonterminal("lr_const"),)

    def test_conditions_read_epoch_and_lr(self, g):
        firsts = {alt[0].text for alt in g.expansions("cond")}
        assert firsts == {"epoch", "lr"}

    def test_lr_constants_positive_and_bounded(self, g):
        vals = [float(alt[0].text) for alt in g.expansions("lr_const")]
        assert all(0 < v <= 1.0 for v in vals)
        assert "1.00000000e-02" in {alt[0].text for alt in g.expansions("lr_const")}

    def test_epoch_constants(self, g):
        vals = [int(alt[0].text) for alt in g.expansions("epoch_const")]
        assert vals == list(range(0, 101, 5))
