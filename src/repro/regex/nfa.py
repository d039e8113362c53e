"""A tiny NFA engine used to cross-check F-class language operations.

The F subclass keeps containment linear-time (Proposition 3.3), but to be able
to *test* that syntactic check we also provide an exact decision procedure
based on the classical product construction: ``L(f1) ⊆ L(f2)`` iff no word of
``L(f1)`` is rejected by the determinised ``f2`` automaton.

The automata built here are small (one state per unit of every bounded atom,
plus a looping state per unbounded atom), so subset construction is cheap for
query-sized expressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.regex.fclass import WILDCARD, FRegex

#: Symbol representing "any colour not mentioned in either expression"; adding
#: it to the working alphabet makes wildcard containment checks exact for every
#: possible data-graph alphabet extension.
OTHER_COLOR = "⁇other⁇"


@dataclass
class Nfa:
    """A non-deterministic finite automaton over colour symbols.

    Transitions are stored as ``{state: {symbol: {next_states}}}`` where the
    special symbol :data:`WILDCARD` matches any input colour.
    """

    num_states: int
    start: int
    accepting: Set[int]
    transitions: Dict[int, Dict[str, Set[int]]] = field(default_factory=dict)

    def add_transition(self, src: int, symbol: str, dst: int) -> None:
        self.transitions.setdefault(src, {}).setdefault(symbol, set()).add(dst)

    def step(self, states: Iterable[int], color: str) -> Set[int]:
        """Advance a state set on one input colour."""
        result: Set[int] = set()
        for state in states:
            table = self.transitions.get(state, {})
            result |= table.get(color, set())
            if color != WILDCARD:
                result |= table.get(WILDCARD, set())
        return result

    def accepts(self, word: Sequence[str]) -> bool:
        """Return True if ``word`` (a colour sequence) is in the language."""
        states = {self.start}
        for color in word:
            states = self.step(states, color)
            if not states:
                return False
        return bool(states & self.accepting)


def build_nfa(expr: FRegex) -> Nfa:
    """Compile an F-class expression into an :class:`Nfa`.

    Every bounded atom ``c^k`` becomes a chain of ``k`` states whose every
    intermediate state is a "may stop here" exit; an unbounded atom ``c^+``
    becomes a single state with a self loop.
    """
    # State 0 is the start state.  We build atom by atom, keeping the set of
    # states from which the *next* atom may begin (i.e. exits of the previous
    # block).
    nfa = Nfa(num_states=1, start=0, accepting=set())
    current_exits: List[int] = [0]

    for item in expr.atoms:
        symbol = item.color
        if item.max_count is None:
            loop_state = nfa.num_states
            nfa.num_states += 1
            for src in current_exits:
                nfa.add_transition(src, symbol, loop_state)
            nfa.add_transition(loop_state, symbol, loop_state)
            current_exits = [loop_state]
        else:
            chain: List[int] = []
            previous = None
            for _ in range(item.max_count):
                state = nfa.num_states
                nfa.num_states += 1
                if previous is None:
                    for src in current_exits:
                        nfa.add_transition(src, symbol, state)
                else:
                    nfa.add_transition(previous, symbol, state)
                chain.append(state)
                previous = state
            current_exits = chain
    nfa.accepting = set(current_exits)
    return nfa


class LazyDfa:
    """Incrementally determinised integer-state view of an :class:`Nfa`.

    Both NFA-product searches — over compiled graphs
    (:meth:`repro.matching.csr_engine.CsrEngine.nfa_product_pairs`) and over
    any store (:meth:`repro.storage.adapter.DictEngineAdapter.product_pairs`)
    — walk (graph node, automaton state) pairs.  Hashing ``frozenset`` state sets on
    every edge is wasteful, so this class interns each reachable subset into a
    dense integer id and memoises transitions per ``(state, symbol index)``
    as they are first taken.  Symbols are addressed by their index in the
    fixed ``alphabet`` sequence supplied at construction.
    """

    #: Transition target meaning "no NFA state survives this symbol".
    DEAD = -1

    #: The start state id (the singleton set of the NFA start state).
    start = 0

    __slots__ = ("alphabet", "_nfa", "_sets", "_ids", "_transitions", "_accepting")

    def __init__(self, nfa: Nfa, alphabet: Sequence[str]):
        self.alphabet = tuple(alphabet)
        self._nfa = nfa
        initial = frozenset({nfa.start})
        self._sets: List[FrozenSet[int]] = [initial]
        self._ids: Dict[FrozenSet[int], int] = {initial: 0}
        self._transitions: List[List[Optional[int]]] = [[None] * len(self.alphabet)]
        self._accepting: List[bool] = [bool(initial & nfa.accepting)]

    @property
    def num_states(self) -> int:
        """Number of subset states materialised so far."""
        return len(self._sets)

    def is_accepting(self, state: int) -> bool:
        return state >= 0 and self._accepting[state]

    def step(self, state: int, symbol_index: int) -> int:
        """Advance ``state`` on one symbol; returns :data:`DEAD` when empty.

        Stepping the :data:`DEAD` state stays dead, so calls can be chained
        without guarding in between.
        """
        if state < 0:
            return self.DEAD
        nxt = self._transitions[state][symbol_index]
        if nxt is None:
            target = frozenset(self._nfa.step(self._sets[state], self.alphabet[symbol_index]))
            if not target:
                nxt = self.DEAD
            else:
                nxt = self._ids.get(target)
                if nxt is None:
                    nxt = len(self._sets)
                    self._ids[target] = nxt
                    self._sets.append(target)
                    self._transitions.append([None] * len(self.alphabet))
                    self._accepting.append(bool(target & self._nfa.accepting))
            self._transitions[state][symbol_index] = nxt
        return nxt

    def accepts(self, word: Sequence[str]) -> bool:
        """Membership test via the memoised transitions (for cross-checking)."""
        symbol_index = {symbol: k for k, symbol in enumerate(self.alphabet)}
        state = self.start
        for color in word:
            index = symbol_index.get(color)
            if index is None:
                return False
            state = self.step(state, index)
            if state == self.DEAD:
                return False
        return self.is_accepting(state)


def _expand_alphabet(exprs: Iterable[FRegex]) -> List[str]:
    """Working alphabet: all concrete colours plus a fresh 'other' colour if
    any wildcard occurs (so wildcard semantics stay exact)."""
    colors: Set[str] = set()
    wildcard_seen = False
    for expr in exprs:
        colors |= set(expr.colors)
        wildcard_seen = wildcard_seen or expr.has_wildcard
    if wildcard_seen or not colors:
        colors.add(OTHER_COLOR)
    return sorted(colors)


def _determinize(nfa: Nfa, alphabet: Sequence[str]) -> Tuple[
    Dict[FrozenSet[int], Dict[str, FrozenSet[int]]],
    FrozenSet[int],
    Set[FrozenSet[int]],
]:
    """Subset construction restricted to ``alphabet``."""
    start = frozenset({nfa.start})
    table: Dict[FrozenSet[int], Dict[str, FrozenSet[int]]] = {}
    accepting: Set[FrozenSet[int]] = set()
    stack = [start]
    seen = {start}
    while stack:
        current = stack.pop()
        if current & nfa.accepting:
            accepting.add(current)
        row: Dict[str, FrozenSet[int]] = {}
        for color in alphabet:
            nxt = frozenset(nfa.step(current, color))
            row[color] = nxt
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
        table[current] = row
    return table, start, accepting


def nfa_language_contains(
    smaller: FRegex, larger: FRegex, alphabet: Optional[Iterable[str]] = None
) -> bool:
    """Exact decision of ``L(smaller) ⊆ L(larger)`` via product construction.

    Parameters
    ----------
    smaller, larger:
        The two F-class expressions.
    alphabet:
        Optional explicit alphabet.  When omitted the alphabet is the union of
        colours in both expressions, augmented with a fresh colour whenever a
        wildcard appears (this makes the answer independent of the actual
        data-graph alphabet).
    """
    if alphabet is None:
        working = _expand_alphabet([smaller, larger])
    else:
        working = sorted(set(alphabet) | set(_expand_alphabet([smaller, larger])))

    nfa_small = build_nfa(smaller)
    dfa_table, dfa_start, dfa_accepting = _determinize(build_nfa(larger), working)

    # Product search for a word accepted by `smaller` but rejected by `larger`.
    start = (frozenset({nfa_small.start}), dfa_start)
    stack = [start]
    seen = {start}
    while stack:
        small_states, dfa_state = stack.pop()
        if (small_states & nfa_small.accepting) and dfa_state not in dfa_accepting:
            return False
        for color in working:
            next_small = frozenset(nfa_small.step(small_states, color))
            if not next_small:
                continue
            next_dfa = dfa_table.get(dfa_state, {}).get(color, frozenset())
            key = (next_small, next_dfa)
            if key not in seen:
                seen.add(key)
                stack.append(key)
    return True
