"""Stable-model enumeration for ground normal programs, over all worlds.

One depth-first search solves every world.  It branches false first on
the lowest unassigned atom, and grounding numbers the probabilistic
atoms 0 to n - 1 in declaration order, so they are its first decisions
and each shared prefix of facts is propagated once.  Below a total
choice of facts it branches on the remaining unassigned atoms with unit
propagation over the rule completion: a completed body forces its head
true, a false head with one pending body literal falsifies that
literal, and an atom whose support rules are all refuted is forced
false.  Each rule keeps one counter, ``block``, of its refuted body
literals.  Trail entries before ``qhead`` have had their counter updates
applied completely, so backtracking reverts exactly those entries.

Programs whose positive dependency graph is cyclic also run
:meth:`StableSolver._prune_unfounded` to a fixpoint at every node.  It
covers only the loop atoms: those in a strongly connected component of
that graph with a positive cycle, found once per program.  It computes
the least model of the unrefuted rules with a loop head and forces the
loop atoms outside it false, so positive loops never turn into
fruitless branching.  An atom outside every loop needs no such check:
once all its support rules are refuted, its support counter falsifies
it.

A total assignment that propagation leaves without conflict is a stable
model, so leaves are not checked again:

- For a tight program (no positive cycle) it is a model of Clark's
  completion, that is a supported model, and a supported model of a
  tight program is stable (Fages 1994; Erdem & Lifschitz, "Tight logic
  programs", TPLP 2003).
- For a cyclic program it is also a model of the completion, and it
  satisfies every loop formula: a loop lies inside one strongly
  connected component, so a true loop with no external support would
  hold an atom the restricted check left underived, a conflict.  A
  model of the completion and of every loop formula is stable (Lin &
  Zhao, "ASSAT: computing answer sets of a logic program by SAT
  solvers", AIJ 2004); equivalently, it has no unfounded true atom
  (Lee, "A model-theoretic counterpart of loop formulas", IJCAI 2005).

Constraints are rules whose head is a reserved false atom, pinned false
up front.  A constraint whose body completes would force that atom
true, and one with a single pending literal falsifies it, so a violated
constraint is a conflict inside propagation and no leaf is reached.
"""
from __future__ import annotations

import numpy as np

from .grounding import GroundProgram

_UNASSIGNED, _FALSE, _TRUE = -1, 0, 1


class StableSolver:
    """Reusable solver for one ground program across many worlds."""

    def __init__(self, gp: GroundProgram):
        n = gp.n_atoms
        self.n_atoms = n
        self.false_atom = n  # reserved head for constraints, pinned false
        self.n_total = n + 1
        idx = gp.atom_index
        self.heads: list[int] = []
        self.pos: list[tuple[int, ...]] = []
        self.neg: list[tuple[int, ...]] = []
        for rule in gp.rules:
            self.heads.append(self.false_atom if rule.head is None else idx[rule.head])
            self.pos.append(tuple(idx[l.atom] for l in rule.body if l.positive))
            self.neg.append(tuple(idx[l.atom] for l in rule.body if not l.positive))
        nr = len(self.heads)
        self.occ_pos: list[list[int]] = [[] for _ in range(self.n_total)]
        self.occ_neg: list[list[int]] = [[] for _ in range(self.n_total)]
        self.occ_head: list[list[int]] = [[] for _ in range(self.n_total)]
        for r in range(nr):
            for a in self.pos[r]:
                self.occ_pos[a].append(r)
            for a in self.neg[r]:
                self.occ_neg[a].append(r)
            self.occ_head[self.heads[r]].append(r)
        self.zero_pos_rules = [r for r in range(nr) if not self.pos[r]]
        self.base_sup = [len(self.occ_head[a]) for a in range(self.n_total)]
        # Probabilistic atoms are 0 to n_facts - 1 and head no rule.
        self.n_facts = len(gp.prob_atom_ids)
        self.never_supported = [a for a in range(self.n_facts, n) if not self.occ_head[a]]
        self._find_loops()

    def _find_loops(self) -> None:
        """Precompute the unfounded-set check's share of the program.

        Loop atoms are those in a strongly connected component of the
        positive dependency graph (head to positive body atom) with more
        than one atom, or with a positive self-edge.  Every positive loop
        lies inside one component (Lin & Zhao 2004); an atom outside
        every loop is left to its support counter (see
        :meth:`_prune_unfounded`).  For each rule with a loop head,
        ``loop_cnt`` counts its positive body atoms in the head's
        component, and ``loop_occ`` lists the rule under each of them;
        ``loop_seeds`` are the rules with none.
        """
        succs: list[list[int]] = [[] for _ in range(self.n_total)]
        for r, h in enumerate(self.heads):
            succs[h].extend(self.pos[r])
        comp = _components(succs)
        size = [0] * self.n_total
        for c in comp:
            size[c] += 1
        loop = [size[comp[a]] > 1 or a in succs[a] for a in range(self.n_total)]
        self.loop_atoms = [a for a in range(self.n_total) if loop[a]]
        self.cyclic = bool(self.loop_atoms)
        self.loop_cnt = [0] * len(self.heads)
        self.loop_occ: list[list[int]] = [[] for _ in range(self.n_total)]
        self.loop_seeds: list[int] = []
        for r, h in enumerate(self.heads):
            if not loop[h]:
                continue
            for a in self.pos[r]:
                if comp[a] == comp[h]:
                    self.loop_cnt[r] += 1
                    self.loop_occ[a].append(r)
            if not self.loop_cnt[r]:
                self.loop_seeds.append(r)

    # -- solving ---------------------------------------------------------

    def all_worlds(self) -> tuple[list[int], bytearray]:
        """Stable models of every world, from one search.

        Returns ``(counts, rows)``.  ``rows`` holds every model as
        ``n_atoms`` bytes, byte ``k`` being 1 iff ground atom ``k`` is in
        it.  ``counts[i]`` is the number of models of world ``i``, where
        ``i`` is a world index, the package's one world encoding: with
        ``n`` probabilistic facts, fact ``j`` (declaration order) is true
        iff bit ``n - 1 - j`` is set.  A row's first ``n`` bytes are its
        facts, so they spell its world index, fact 0 most significant.

        The rows are ascending and pairwise distinct: the search branches
        false first on the lowest unassigned atom, so two leaves first
        differ on the atom their paths split on, and the one with it
        false comes out first.  Ascending rows have ascending world
        indices, so the models of world 0 come first, then those of
        world 1, and so on.  A fact that propagation has fixed is not
        decided, and the worlds of its other value have no model.
        """
        self.assign = [_UNASSIGNED] * self.n_total
        self.trail: list[int] = []
        self.qhead = 0
        self.block = [0] * len(self.heads)
        self.sup = list(self.base_sup)
        self.rows = bytearray()
        self.n_models = 0
        self.assign[self.false_atom] = _FALSE
        self.trail.append(self.false_atom)
        ok = all(self._set(a, _FALSE) for a in self.never_supported) and all(
            self._examine(r) for r in self.zero_pos_rules
        )
        if ok and self._propagate():
            self._search()
        # The model count, not the buffer, gives the number of rows: with
        # no ground atoms every row is zero bytes long.
        n = self.n_facts
        facts = np.frombuffer(self.rows, dtype=np.uint8).reshape(self.n_models, self.n_atoms)
        worlds = facts[:, :n] @ (1 << np.arange(n - 1, -1, -1))
        return np.bincount(worlds, minlength=1 << n).tolist(), self.rows

    def _set(self, atom: int, value: int) -> bool:
        cur = self.assign[atom]
        if cur != _UNASSIGNED:
            return cur == value
        self.assign[atom] = value
        self.trail.append(atom)
        return True

    def _undo_to(self, mark: int) -> None:
        # Entries before qhead are fully applied (see _unit_propagate), so
        # each popped consumed entry reverts all its counter updates and
        # an unconsumed one reverts none.
        assign, trail, block, sup = self.assign, self.trail, self.block, self.sup
        while len(trail) > mark:
            atom = trail.pop()
            value = assign[atom]
            assign[atom] = _UNASSIGNED
            if self.qhead > len(trail):
                occ = self.occ_pos[atom] if value == _FALSE else self.occ_neg[atom]
                for r in occ:
                    block[r] -= 1
                    if block[r] == 0:
                        sup[self.heads[r]] += 1
        self.qhead = mark

    def _search(self) -> None:
        try:
            branch = self.assign.index(_UNASSIGNED)
        except ValueError:
            # A conflict-free total assignment is stable (module docstring).
            self.rows += bytes(self.assign[: self.n_atoms])
            self.n_models += 1
            return
        # False branch first: models come out in ascending row order.
        for value in (_FALSE, _TRUE):
            mark = len(self.trail)
            if self._set(branch, value) and self._propagate():
                self._search()
            self._undo_to(mark)

    # -- propagation -------------------------------------------------------

    def _propagate(self) -> bool:
        if not self._unit_propagate():
            return False
        if not self.cyclic:
            return True
        while True:
            before = len(self.trail)
            if not self._prune_unfounded():
                return False
            if len(self.trail) == before:
                return True
            if not self._unit_propagate():
                return False

    def _unit_propagate(self) -> bool:
        # Invariant: entries before qhead are fully applied.  Consuming an
        # entry updates every counter it touches before a conflict is
        # reported, because _undo_to reverts consumed entries wholesale.
        assign = self.assign
        trail = self.trail
        block = self.block
        sup = self.sup
        heads = self.heads
        while self.qhead < len(trail):
            atom = trail[self.qhead]
            self.qhead += 1
            value = assign[atom]
            if value == _FALSE:
                blocking, watching = self.occ_pos[atom], self.occ_neg[atom]
            else:
                blocking, watching = self.occ_neg[atom], self.occ_pos[atom]
            lost = False
            for r in blocking:
                block[r] += 1
                if block[r] == 1:
                    h = heads[r]
                    sup[h] -= 1
                    if sup[h] == 0:
                        if assign[h] == _TRUE:
                            lost = True  # true atom lost its last support
                        elif assign[h] == _UNASSIGNED:
                            self._set(h, _FALSE)
            if lost:
                return False
            for r in watching:
                if block[r] == 0 and not self._examine(r):
                    return False
            if value == _FALSE:
                for r in self.occ_head[atom]:
                    if block[r] == 0 and not self._examine(r):
                        return False
        return True

    def _examine(self, r: int) -> bool:
        """Completion propagation for one non-refuted rule."""
        assign = self.assign
        unassigned = 0
        last_atom = -1
        last_positive = True
        for a in self.pos[r]:
            if assign[a] != _TRUE:
                unassigned += 1
                if unassigned > 1:
                    return True
                last_atom, last_positive = a, True
        for a in self.neg[r]:
            if assign[a] != _FALSE:
                unassigned += 1
                if unassigned > 1:
                    return True
                last_atom, last_positive = a, False
        head = self.heads[r]
        if unassigned == 0:
            return self._set(head, _TRUE)
        if assign[head] == _FALSE:
            # Last pending literal must not complete the body.
            return self._set(last_atom, _FALSE if last_positive else _TRUE)
        return True

    def _prune_unfounded(self) -> bool:
        """Force loop atoms with no optimistic derivation to false.

        The optimistic derivation is the least model of the rules with a
        loop head that are not refuted (``block`` zero), reading only
        their positive body atoms in the head's own component: one
        outside it is not false, since the rule is not refuted, and is
        taken as derivable.  Its seeds are the unrefuted rules with no
        positive body atom in their head's component.  Probabilistic
        atoms head no rule, so none is a loop atom, and an open one
        counts as derivable like any other atom outside the loop.  A
        loop atom outside that model is unfounded: no stable model
        extending the assignment holds it.  Assigned-true atoms do not
        justify themselves, so a true atom whose support has collapsed
        into an unfounded loop is a conflict.

        Other atoms need no check here.  At the fixpoint of
        :meth:`_propagate`, take a lowest component holding an unfounded
        atom that is not false: every unrefuted rule for that atom has
        an unfounded positive body atom in the same component.  Outside
        a loop no rule can, so the support counter has falsified the
        atom; inside one, this check has.  So the fixpoint is the one a
        check over every atom reaches, and it leaves no unfounded true
        atom at a leaf, which is what makes the leaf stable.
        """
        assign = self.assign
        heads = self.heads
        loop_occ = self.loop_occ
        block = self.block
        cnt = list(self.loop_cnt)
        derived = bytearray(self.n_total)
        stack: list[int] = []
        for r in self.loop_seeds:
            if block[r] == 0 and not derived[heads[r]]:
                derived[heads[r]] = 1
                stack.append(heads[r])
        while stack:
            for r in loop_occ[stack.pop()]:
                if block[r] == 0:
                    cnt[r] -= 1
                    if cnt[r] == 0:
                        h = heads[r]
                        if not derived[h]:
                            derived[h] = 1
                            stack.append(h)
        for atom in self.loop_atoms:
            if not derived[atom]:
                v = assign[atom]
                if v == _TRUE:
                    return False
                if v == _UNASSIGNED:
                    self._set(atom, _FALSE)
        return True


def _components(succs: list[list[int]]) -> list[int]:
    """Strongly connected component id of every node (iterative Tarjan)."""
    n = len(succs)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = n_comp = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succs[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succs[w])))
                    break
                if comp[w] < 0:  # still on the stack
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = n_comp
                        if w == v:
                            break
                    n_comp += 1
    return comp
