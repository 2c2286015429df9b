"""Context-free grammars in a small BNF dialect, order- and duplicate-preserving.

File format: UTF-8 text, one rule per ``<name> ::= alt | alt | ...`` line.
A line ending in ``|`` continues onto the next line. ``#`` starts a comment.
Nonterminals are angle-bracketed identifiers; everything else in an
alternative is terminal text, tokenized on whitespace. Alternative order is
kept exactly as written, including duplicates: repeating an alternative is
how a grammar biases selection toward it, so duplicates are meaningful.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from importlib import resources


class GrammarError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Terminal:
    text: str


@dataclass(frozen=True)
class Nonterminal:
    name: str


Symbol = Terminal | Nonterminal
Alternative = tuple  # tuple[Symbol, ...]

_NT_RE = re.compile(r"<([A-Za-z_][A-Za-z0-9_]*)>")

# Phenotype tokens: names, numbers and comparators, and each of ( ) , alone.
# Whitespace only separates; the expression and policy parsers read this stream.
TOKEN_RE = re.compile(r"[(),]|[^\s(),]+")


class Grammar:
    """Parsed grammar: ordered nonterminals, ordered alternatives per rule."""

    def __init__(self, rules: dict[str, list[Alternative]], start: str):
        self.rules = rules
        self.nonterminals = list(rules.keys())
        self.start = start
        self._nonrec_memo: dict[str, list[int]] = {}
        self._validate()

    def _validate(self):
        if self.start not in self.rules:
            raise GrammarError(f"start symbol <{self.start}> has no rule")
        for nt, alts in self.rules.items():
            if not alts:
                raise GrammarError(f"<{nt}> has no alternatives")
            for alt in alts:
                if not alt:
                    raise GrammarError(f"<{nt}> has an empty alternative")
                for sym in alt:
                    if isinstance(sym, Nonterminal) and sym.name not in self.rules:
                        raise GrammarError(
                            f"undefined nonterminal <{sym.name}> referenced from <{nt}>"
                        )

    def expansions(self, nt: str) -> list[Alternative]:
        """The rule's alternatives in declared order."""
        if nt not in self.rules:
            raise GrammarError(f"unknown nonterminal <{nt}>")
        return self.rules[nt]

    def reachable_nonterminals(self, start: str | None = None) -> set[str]:
        start = self.start if start is None else start
        seen = set()
        stack = [start]
        while stack:
            nt = stack.pop()
            if nt in seen:
                continue
            seen.add(nt)
            for alt in self.expansions(nt):
                for sym in alt:
                    if isinstance(sym, Nonterminal):
                        stack.append(sym.name)
        return seen

    def reachable_terminals(self, start: str | None = None) -> set[str]:
        """Every terminal token derivable from `start` (rule-graph reachability)."""
        terms = set()
        for nt in self.reachable_nonterminals(start):
            for alt in self.rules[nt]:
                for sym in alt:
                    if isinstance(sym, Terminal):
                        terms.add(sym.text)
        return terms

    def non_recursive_alternatives(self, nt: str) -> list[int]:
        """Indices of `nt`'s alternatives that can never derive `nt` again.

        An alternative is recursive if any nonterminal in it reaches `nt`
        (including indirectly). Depth-limited derivation restricts choice to
        the non-recursive ones.
        """
        if nt not in self._nonrec_memo:
            indices = []
            for i, alt in enumerate(self.expansions(nt)):
                recursive = any(
                    isinstance(sym, Nonterminal)
                    and nt in self.reachable_nonterminals(sym.name)
                    for sym in alt
                )
                if not recursive:
                    indices.append(i)
            self._nonrec_memo[nt] = indices
        return self._nonrec_memo[nt]

    def __eq__(self, other):
        return (
            isinstance(other, Grammar)
            and self.rules == other.rules
            and self.start == other.start
        )

    def __repr__(self):
        return f"Grammar(start=<{self.start}>, rules={len(self.rules)})"


def _tokenize_alternative(text: str, line: int) -> Alternative:
    symbols = []
    for chunk in text.split():
        pos = 0
        for m in _NT_RE.finditer(chunk):
            if m.start() > pos:
                symbols.append(Terminal(chunk[pos : m.start()]))
            symbols.append(Nonterminal(m.group(1)))
            pos = m.end()
        if pos < len(chunk):
            symbols.append(Terminal(chunk[pos:]))
    if not symbols:
        raise GrammarError("empty alternative", line)
    return tuple(symbols)


def parse_grammar(text: str) -> Grammar:
    """Parse the BNF dialect described in the module docstring."""
    # fold trailing-| continuations into logical lines, remembering line numbers
    logical: list[tuple[str, int]] = []
    pending = None
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if pending is None:
            pending = (line, i)
        else:
            pending = (pending[0] + " " + line.strip(), pending[1])
        if not pending[0].rstrip().endswith("|"):
            logical.append(pending)
            pending = None
    if pending is not None:
        raise GrammarError("rule ends with a dangling '|'", pending[1])

    rules: dict[str, list[Alternative]] = {}
    start = None
    for line, lineno in logical:
        if "::=" not in line:
            raise GrammarError(f"expected '<name> ::= ...', got: {line.strip()}", lineno)
        lhs_text, rhs_text = line.split("::=", 1)
        lhs_m = _NT_RE.fullmatch(lhs_text.strip())
        if lhs_m is None:
            raise GrammarError(f"bad rule head: {lhs_text.strip()!r}", lineno)
        name = lhs_m.group(1)
        if name in rules:
            raise GrammarError(f"duplicate rule for <{name}>", lineno)
        alts = [_tokenize_alternative(a, lineno) for a in rhs_text.split("|")]
        rules[name] = alts
        if start is None:
            start = name

    if start is None:
        raise GrammarError("no rules found")
    return Grammar(rules, start)


def is_scheduler_grammar(g: Grammar) -> bool:
    """An <lr_const> rule marks a scheduler grammar, such as the shipped 'dlr'."""
    return "lr_const" in g.rules


def alternative_text(alt: Alternative) -> str:
    """One alternative as written in a grammar file."""
    return " ".join(s.text if isinstance(s, Terminal) else f"<{s.name}>" for s in alt)


def serialize_grammar(g: Grammar) -> str:
    lines = [
        f"<{nt}> ::= " + " | ".join(map(alternative_text, g.rules[nt]))
        for nt in g.nonterminals
    ]
    return "\n".join(lines) + "\n"


def sigmoidal_constants(k_min: float, k_max: float, steps: int) -> list[float]:
    """sigmoid(k) for k evenly spaced over [k_min, k_max].

    Sigmoid-spaced constants cluster near 0 and 1, where decay factors for
    moving averages live; a linear grid would waste most of its points in
    the middle of the range.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if not k_min < k_max:
        raise ValueError("k_min must be < k_max")
    h = (k_max - k_min) / (steps - 1)
    return [1.0 / (1.0 + math.exp(-(k_min + i * h))) for i in range(steps)]


# --- shipped grammars -------------------------------------------------------

# Constant grid: sigmoid over [-10, 10] in steps of 0.5 (41 values). The grid
# is symmetric, so 1-c is on the grid whenever c is; decay complements like
# (1 - beta) stay expressible.
CONST_GRID_STEPS = 41
CONST_GRID_RANGE = (-10.0, 10.0)


def load_shipped_grammar(name: str) -> Grammar:
    """Load one of the packaged grammars: 'alr' (optimizers) or 'dlr' (schedulers)."""
    if name not in ("alr", "dlr"):
        raise ValueError(f"unknown shipped grammar {name!r}")
    text = (
        resources.files("optevo").joinpath(f"grammars/{name}.bnf").read_text("utf-8")
    )
    return parse_grammar(text)
