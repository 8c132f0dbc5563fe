"""Stable-model enumeration for ground normal programs.

The solver branches on unassigned atoms with unit propagation over the
rule completion: a completed body forces its head true, a false head
with one pending body literal falsifies that literal, and an atom whose
support rules are all refuted is forced false.  Programs whose positive
dependency graph is cyclic additionally get an unfounded-set check at
every node (atoms with no optimistic derivation are forced false), so
positive loops never turn into fruitless branching.  Every total
candidate is verified with an independent Gelfond–Lifschitz reduct
check: compute the least model of the reduct and compare.

Constraints are rules whose head is a reserved false atom, pinned false
up front; any candidate deriving it fails the reduct comparison, so
constraint violations can never be reported as models.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grounding import GroundProgram

_UNASSIGNED, _FALSE, _TRUE = -1, 0, 1


@dataclass(frozen=True)
class ModelSet:
    """Stable models as atom-index bit vectors.

    ``masks[k]`` has bit ``n_atoms - 1 - i`` set iff atom ``i`` is in
    model ``k`` (atom 0 is the most significant bit, so ascending
    numeric order equals lexicographic order on the bit vectors).
    Masks are sorted ascending and pairwise distinct.
    """

    masks: tuple[int, ...]
    n_atoms: int

    def __len__(self) -> int:
        return len(self.masks)

    def atom_sets(self, gp: GroundProgram) -> list[frozenset]:
        n = self.n_atoms
        return [
            frozenset(a for i, a in enumerate(gp.atoms) if m >> (n - 1 - i) & 1)
            for m in self.masks
        ]


class StableSolver:
    """Reusable solver for one ground program across many worlds."""

    def __init__(self, gp: GroundProgram):
        self.gp = gp
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
        self.base_cnt = [len(p) for p in self.pos]
        self.zero_pos_rules = [r for r in range(nr) if not self.pos[r]]
        self.base_sup = [len(self.occ_head[a]) for a in range(self.n_total)]
        self.prob_ids = list(gp.prob_atom_ids)
        prob_set = set(self.prob_ids)
        self.never_supported = [
            a for a in range(self.n_atoms)
            if not self.occ_head[a] and a not in prob_set
        ]
        self.cyclic = self._has_positive_cycle()

    def _has_positive_cycle(self) -> bool:
        succs: list[set[int]] = [set() for _ in range(self.n_total)]
        for r, h in enumerate(self.heads):
            succs[h].update(self.pos[r])
        color = [0] * self.n_total  # 0 unvisited, 1 on stack, 2 done
        for start in range(self.n_total):
            if color[start]:
                continue
            stack = [(start, iter(succs[start]))]
            color[start] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if color[nxt] == 1:
                        return True
                    if color[nxt] == 0:
                        color[nxt] = 1
                        stack.append((nxt, iter(succs[nxt])))
                        advanced = True
                        break
                if not advanced:
                    color[node] = 2
                    stack.pop()
        return False

    # -- solving ---------------------------------------------------------

    def models_for_mask(self, world_mask: int) -> tuple[int, ...]:
        """Sorted stable-model masks of the program under one total choice."""
        self.assign = [_UNASSIGNED] * self.n_total
        self.trail: list[int] = []
        self.qhead = 0
        self.block = [0] * len(self.heads)
        self.negblock = [0] * len(self.heads)
        self.sup = list(self.base_sup)
        self.models: list[int] = []
        self.assign[self.false_atom] = _FALSE
        self.trail.append(self.false_atom)
        ok = True
        for j in self.prob_ids:
            if not self._set(j, _TRUE if world_mask >> j & 1 else _FALSE):
                ok = False
                break
        if ok:
            for a in self.never_supported:
                if not self._set(a, _FALSE):
                    ok = False
                    break
        if ok:
            for r in self.zero_pos_rules:
                if not self._examine(r):
                    ok = False
                    break
        if ok and self._propagate():
            self._search()
        self.models.sort()
        return tuple(self.models)

    def _set(self, atom: int, value: int) -> bool:
        cur = self.assign[atom]
        if cur != _UNASSIGNED:
            return cur == value
        self.assign[atom] = value
        self.trail.append(atom)
        return True

    def _undo_to(self, mark: int) -> None:
        assign, trail, block, sup = self.assign, self.trail, self.block, self.sup
        negblock = self.negblock
        while len(trail) > mark:
            atom = trail.pop()
            value = assign[atom]
            assign[atom] = _UNASSIGNED
            if self.qhead > len(trail):
                # Counters were only updated for consumed trail entries.
                if value == _FALSE:
                    occ = self.occ_pos[atom]
                else:
                    occ = self.occ_neg[atom]
                    for r in occ:
                        negblock[r] -= 1
                for r in occ:
                    block[r] -= 1
                    if block[r] == 0:
                        sup[self.heads[r]] += 1
        self.qhead = mark

    def _search(self) -> None:
        try:
            branch = self.assign.index(_UNASSIGNED)
        except ValueError:
            self._check_leaf()
            return
        # False branch first: models come out in ascending mask order.
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
        assign = self.assign
        trail = self.trail
        block = self.block
        sup = self.sup
        heads = self.heads
        negblock = self.negblock
        while self.qhead < len(trail):
            atom = trail[self.qhead]
            self.qhead += 1
            value = assign[atom]
            if value == _FALSE:
                blocking, watching = self.occ_pos[atom], self.occ_neg[atom]
            else:
                blocking, watching = self.occ_neg[atom], self.occ_pos[atom]
                for r in blocking:
                    negblock[r] += 1
            for r in blocking:
                block[r] += 1
                if block[r] == 1:
                    h = heads[r]
                    sup[h] -= 1
                    if sup[h] == 0:
                        if assign[h] == _TRUE:
                            return False  # true atom lost its last support
                        if assign[h] == _UNASSIGNED and not self._set(h, _FALSE):
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
        """Force atoms with no optimistic derivation to false.

        An atom can belong to a stable extension of the current
        assignment only if it is derivable through rules that are not
        blocked, from the true probabilistic facts upward.  Assigned-true
        atoms are not self-justifying here, so this also catches atoms
        whose truth was decided by branching but whose support has since
        collapsed into an unfounded loop.
        """
        assign = self.assign
        block = self.block
        heads = self.heads
        cnt = list(self.base_cnt)
        derivable = bytearray(self.n_total)
        stack: list[int] = []
        for r in self.zero_pos_rules:
            if block[r] == 0 and not derivable[heads[r]]:
                derivable[heads[r]] = 1
                stack.append(heads[r])
        for j in self.prob_ids:
            if assign[j] == _TRUE and not derivable[j]:
                derivable[j] = 1
                stack.append(j)
        occ_pos = self.occ_pos
        while stack:
            atom = stack.pop()
            for r in occ_pos[atom]:
                if block[r] == 0:
                    cnt[r] -= 1
                    if cnt[r] == 0:
                        h = heads[r]
                        if not derivable[h]:
                            derivable[h] = 1
                            stack.append(h)
        for atom in range(self.n_atoms):
            if not derivable[atom]:
                v = assign[atom]
                if v == _TRUE:
                    return False
                if v == _UNASSIGNED and not self._set(atom, _FALSE):
                    return False
        return True

    # -- verification ------------------------------------------------------

    def _check_leaf(self) -> None:
        # Gelfond–Lifschitz check: the least model of the reduct must equal
        # the candidate.  The negblock counters are current at a leaf, so
        # a rule is in the reduct iff no negated body atom is true.
        assign = self.assign
        heads = self.heads
        negblock = self.negblock
        cnt = list(self.base_cnt)
        least = bytearray(self.n_total)
        stack: list[int] = []
        for r in self.zero_pos_rules:
            if negblock[r] == 0:
                h = heads[r]
                if not least[h]:
                    least[h] = 1
                    stack.append(h)
        for j in self.prob_ids:
            if assign[j] == _TRUE and not least[j]:
                least[j] = 1
                stack.append(j)
        occ_pos = self.occ_pos
        while stack:
            atom = stack.pop()
            for r in occ_pos[atom]:
                if negblock[r] == 0:
                    cnt[r] -= 1
                    if cnt[r] == 0:
                        h = heads[r]
                        if not least[h]:
                            least[h] = 1
                            stack.append(h)
        if least[self.false_atom]:
            return
        for i in range(self.n_atoms):
            if (assign[i] == _TRUE) != least[i]:
                return
        self.models.append(self._mask(assign))

    def _mask(self, assign) -> int:
        n = self.n_atoms
        m = 0
        for i in range(n):
            if assign[i] == _TRUE:
                m |= 1 << (n - 1 - i)
        return m


def answer_sets(gp: GroundProgram, world_facts) -> ModelSet:
    """All stable models of ``gp`` with the given probabilistic atoms true.

    ``world_facts`` may contain Atom objects or probabilistic-atom
    indices.  Models are returned in ascending mask order (lexicographic
    on bit vectors).
    """
    mask = 0
    for f in world_facts:
        j = f if isinstance(f, int) else gp.atom_index[f]
        if not 0 <= j < len(gp.prob_atom_ids):
            raise ValueError(f"atom index {j} is not a probabilistic atom")
        mask |= 1 << j
    return ModelSet(StableSolver(gp).models_for_mask(mask), gp.n_atoms)
