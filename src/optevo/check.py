"""Grammar health checks: the contract that `optevo grammar-check` reports.

An optimizer grammar must keep the raw gradient out of the weight slot, order
its auxiliary slots, reach the `alpha` accumulator and spell the constant
grid; each shipped genotype must map to its reference rule, the two specs
each driving a `SpecStepper` over a weight buffer of its own. A scheduler
grammar must derive trees with finite, positive leaf rates on its grids.
Each check gives (name, passed, detail); one that raises fails.
"""

from __future__ import annotations

import re

import numpy as np

from .dsge import SHIPPED_GENOTYPES, load_shipped_genotype, map_genotype
from .grammar import (
    CONST_GRID_RANGE,
    CONST_GRID_STEPS,
    Grammar,
    Nonterminal,
    alternative_text,
    sigmoidal_constants,
)
from .optim import HyperParams, SpecStepper, adam_core_spec, builtin, spec_from_phenotype
from .tensor import Rng


def _grid_tokens() -> list:
    """The constant grid as spelled in the optimizer grammar's <*_const> rules."""
    return [f"{v:.8e}" for v in
            sigmoidal_constants(*CONST_GRID_RANGE, CONST_GRID_STEPS)]


def _alt_texts(g: Grammar, nt: str) -> list:
    return [alternative_text(alt) for alt in g.expansions(nt)]


def _grid_hyperparams() -> HyperParams:
    """The constant-grid values the shipped genotypes encode."""
    grid = [float(t) for t in _grid_tokens()]

    def at(k: float) -> float:
        return grid[round((k - CONST_GRID_RANGE[0]) * 2)]

    return HyperParams(
        lr=at(-4.5), mom=at(2.0), rho=at(2.5),
        beta1=at(2.0), beta2=at(3.5), epsilon=at(-10.0),
    )


def _genotype_matches_reference(g: Grammar, name: str) -> tuple[bool, str]:
    mapped = spec_from_phenotype(map_genotype(g, load_shipped_genotype(name)), name=name)
    hp = _grid_hyperparams()
    reference = adam_core_spec(hp) if name == "adam_core" else builtin(name, hp)
    rng = Rng(2024).child("grammar-check", name)
    with np.errstate(all="ignore"):
        for case in range(20):
            r = rng.child(case)
            w_a = r.draw(lambda gen: gen.normal(size=4))
            w_b = w_a.copy()  # each stepper writes its own weights in place
            s_a, s_b = SpecStepper(mapped), SpecStepper(reference)
            for t in range(10):
                grad = r.child("g", t).draw(lambda gen: gen.normal(size=4))
                s_a.update(w_a, grad)
                s_b.update(w_b, grad)
                if not np.max(np.abs(w_a - w_b)) <= 1e-9:  # NaN fails too
                    return False, f"trajectory diverged at case {case}, step {t}"
    return True, "20 trajectories × 10 steps within 1e-9"


def _variables_in(terms) -> set:
    """Variable identifiers mentioned by a set of grammar terminals.

    Terminals may be composite tokens such as ``add(x,``; function names
    (identifiers immediately followed by ``(``) don't count as variables.
    """
    found = set()
    for t in terms:
        found.update(re.findall(r"\b[a-z][a-z_]*\b(?!\()", t))
    return found


def _run_checks(named) -> list:
    """(name, passed, detail) for each (name, check function) pair."""
    checks = []
    for name, fn in named:
        try:
            ok, detail = fn()
        except Exception as e:  # a failed precondition is a failed check
            ok, detail = False, f"{type(e).__name__}: {e}"
        checks.append((name, ok, detail))
    return checks


def grammar_health_checks(g: Grammar) -> list:
    """(name, passed, detail) triples for the optimizer-grammar contract."""

    def sections():
        needed = ["x_expr", "y_expr", "z_expr", "weight_expr"]
        missing = [nt for nt in needed if nt not in g.rules]
        if missing:
            return False, f"missing rules: {', '.join(missing)}"
        return True, "x/y/z/weight sections present"

    def barrier():
        if "grad" in _variables_in(g.reachable_terminals("weight_expr")):
            return False, "grad is reachable from the weight update"
        return True, "weight update cannot read the raw gradient"

    def aux_ordering():
        want = {
            "x_expr": ({"x", "grad"}, {"y", "z", "alpha"}),
            "y_expr": ({"y", "x", "grad"}, {"z", "alpha"}),
            "z_expr": ({"z", "x", "y", "grad"}, {"alpha"}),
        }
        for nt, (required, forbidden) in want.items():
            seen = _variables_in(g.reachable_terminals(nt))
            missing = required - seen
            illegal = forbidden & seen
            if missing or illegal:
                return (
                    False,
                    f"<{nt}>: missing {sorted(missing)}, illegal {sorted(illegal)}",
                )
        return True, "each slot sees exactly the earlier slots plus grad"

    def alpha_reaches_weight():
        if "alpha" not in _variables_in(g.reachable_terminals("weight_expr")):
            return False, "weight update cannot accumulate onto alpha"
        return True, "alpha accumulator reachable from the weight update"

    def const_grid():
        grid = _grid_tokens()
        if grid[0] != "4.53978687e-05" or grid[-1] != "9.99954602e-01":
            return False, f"grid endpoints {grid[0]} … {grid[-1]}"
        rules = [nt for nt in g.nonterminals if nt.endswith("_const")]
        if not rules:
            return False, "no <*_const> rules"
        off_grid = [nt for nt in rules if _alt_texts(g, nt) != grid]
        if off_grid:
            return False, f"not exactly the {len(grid)}-point grid: {off_grid}"
        return True, (f"{len(rules)} <*_const> rules × {len(grid)} sigmoid-spaced "
                      f"constants, {grid[0]} … {grid[-1]}")

    return _run_checks([
        ("sections", sections),
        ("weight-gradient-barrier", barrier),
        ("aux-slot-ordering", aux_ordering),
        ("alpha-accumulator", alpha_reaches_weight),
        ("constant-grid", const_grid),
        *((f"genotype-{name}", lambda name=name: _genotype_matches_reference(g, name))
          for name in SHIPPED_GENOTYPES),
    ])


def scheduler_health_checks(g: Grammar) -> list:
    """(name, passed, detail) triples for the scheduler-grammar contract."""

    def tree_shape():
        alts = _alt_texts(g, "expr")
        ok = any(a.startswith("if(") for a in alts) and "<lr_const>" in alts
        return ok, "<expr> ::= " + " | ".join(alts)

    def positive_leaves():
        leaves = set()  # whatever <expr>'s non-recursive alternatives derive
        for i in g.non_recursive_alternatives("expr"):
            for sym in g.expansions("expr")[i]:
                leaves |= (g.reachable_terminals(sym.name)
                           if isinstance(sym, Nonterminal) else {sym.text})

        def positive(token):
            try:
                return 0 < float(token) < np.inf
            except ValueError:
                return False

        bad = sorted(t for t in leaves if not positive(t))
        if bad:
            return False, f"leaves not finite and > 0: {bad}"
        return True, f"{len(leaves)} leaf rates, all finite and > 0"

    def grid(nt, want, what):
        ok = _alt_texts(g, nt) == want
        return ok, f"<{nt}> {'is' if ok else 'is not'} {what}"

    # 0.01, the known-good static rate for the reference network, then the
    # sigmoid grid rescaled onto [1e-5, 1]
    sig = sigmoidal_constants(*CONST_GRID_RANGE, CONST_GRID_STEPS)
    lr_grid = ["1.00000000e-02"] + [
        f"{1e-5 + (v - sig[0]) * (1.0 - 1e-5) / (sig[-1] - sig[0]):.8e}" for v in sig
    ]
    return _run_checks([
        ("tree-shape", tree_shape),
        ("positive-leaves", positive_leaves),
        ("epoch-grid", lambda: grid("epoch_const", [str(e) for e in range(0, 101, 5)],
                                    "0..100 in steps of 5")),
        ("lr-grid", lambda: grid("lr_const", lr_grid,
                                 "0.01, then the sigmoid grid rescaled onto [1e-5, 1]")),
    ])
