"""HLT coset enumeration and the standard order: the test oracle for
``ybe.fpgroups.coset_enumeration``.

``hlt_enumeration`` is the Hazelgrove-Leech-Trotter strategy (Holt, Eick and
O'Brien, Handbook of Computational Group Theory, 2005, section 5.1): it scans
every relator at every coset in turn, defining cosets as it goes, and numbers
the cosets in the order it defines them.  ``standardize`` renumbers a regular
action breadth-first from coset 0 over the symbols g0, g0^-1, g1, ..., which
is the order the package returns, so the two enumerators can be compared
action for action.
"""

from __future__ import annotations

from collections import deque

from ybe import perm
from ybe.fpgroups import Presentation


class _HLTTable:
    """Coset table over symbols 2g (generator g) and 2g+1 (its inverse)."""

    def __init__(self, ngens: int):
        self.nsym = 2 * ngens
        self.table: list[list[int | None]] = [[None] * self.nsym]
        self.p = [0]  # union-find forest for coincidences
        self.queue: deque[int] = deque()

    def alive(self, a: int) -> bool:
        return self.p[a] == a

    def define(self, a: int, x: int) -> None:
        b = len(self.table)
        self.table.append([None] * self.nsym)
        self.p.append(b)
        self.table[a][x] = b
        self.table[b][x ^ 1] = a

    def rep(self, k: int) -> int:
        root = k
        while self.p[root] != root:
            root = self.p[root]
        while self.p[k] != k:
            self.p[k], k = root, self.p[k]
        return root

    def _merge(self, a: int, b: int) -> None:
        a, b = self.rep(a), self.rep(b)
        if a != b:
            lo, hi = min(a, b), max(a, b)
            self.p[hi] = lo
            self.queue.append(hi)

    def coincidence(self, a: int, b: int) -> None:
        self._merge(a, b)
        while self.queue:
            e = self.queue.popleft()
            for x in range(self.nsym):
                d = self.table[e][x]
                if d is None:
                    continue
                self.table[d][x ^ 1] = None
                mu, nu = self.rep(e), self.rep(d)
                if self.table[mu][x] is not None:
                    self._merge(nu, self.table[mu][x])
                elif self.table[nu][x ^ 1] is not None:
                    self._merge(mu, self.table[nu][x ^ 1])
                else:
                    self.table[mu][x] = nu
                    self.table[nu][x ^ 1] = mu

    def scan_and_fill(self, a: int, w: list[int]) -> None:
        f, i = a, 0
        b, j = a, len(w) - 1
        while True:
            while i <= j and self.table[f][w[i]] is not None:
                f = self.table[f][w[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and self.table[b][w[j] ^ 1] is not None:
                b = self.table[b][w[j] ^ 1]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if i == j:
                self.table[f][w[i]] = b
                self.table[b][w[i] ^ 1] = f
                return
            self.define(f, w[i])


def hlt_enumeration(p: Presentation) -> list[perm.Perm]:
    """The generators' action on the cosets of the trivial subgroup, the
    cosets numbered in the order HLT defined them (dead ones skipped).
    Every relator is enumerated, those in p.implied too."""
    rel_syms = [[2 * g if e > 0 else 2 * g + 1 for g, e in w] for w in p.relators + p.implied]
    ct = _HLTTable(p.generator_count)
    i = 0
    while i < len(ct.table):
        if ct.alive(i):
            for w in rel_syms:
                if not ct.alive(i):
                    break
                ct.scan_and_fill(i, w)
            if ct.alive(i):
                for x in range(ct.nsym):
                    if ct.table[i][x] is None:
                        ct.define(i, x)
        i += 1
    live = [c for c in range(len(ct.table)) if ct.alive(c)]
    index = {c: k for k, c in enumerate(live)}
    actions = [tuple(index[ct.rep(ct.table[c][2 * g])] for c in live)
               for g in range(p.generator_count)]
    for act in actions:
        assert perm.is_perm(act)
    # every relator closes at every coset
    sym = [a for act in actions for a in (act, perm.inverse(act))]
    everywhere = list(range(len(live)))
    for w in rel_syms:
        cur = everywhere
        for x in w:
            cur = [sym[x][c] for c in cur]
        assert cur == everywhere
    return actions


def standardize(actions: list[perm.Perm]) -> list[perm.Perm]:
    """The same action with the cosets renumbered breadth-first from coset 0
    over the symbols g0, g0^-1, g1, g1^-1, ...: the bijection old -> new is
    the order in which the search reaches each coset."""
    symbols = [a for act in actions for a in (act, perm.inverse(act))]
    new = {0: 0}
    queue = [0]
    for c in queue:
        for act in symbols:
            if act[c] not in new:
                new[act[c]] = len(queue)
                queue.append(act[c])
    return [tuple(new[act[c]] for c in queue) for act in actions]
