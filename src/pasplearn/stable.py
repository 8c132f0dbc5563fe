"""Stable models of ground normal programs over all worlds, and their existence.

The solver keeps a frontier of partial assignments, one *lane* each,
and applies every propagation step to all lanes at once.  A state holds
two bits per atom and lane, packed eight lanes to a byte
(``np.packbits``) and propagated 64 lanes to a 64-bit word: row ``a``
has a lane's bit set when atom ``a`` is true in it, row ``n_total + a``
when it is false.  Two sentinel rows, one set and one clear in every
lane, pad rule bodies to a fixed width.

The search starts from a set of *start lanes*.  For
:meth:`StableSolver.all_worlds` every world is a start lane with its
probabilistic facts set; grounding numbers them 0 to n - 1, so the
lanes are in world-index order.  For :meth:`StableSolver.satisfiable`
there is one start lane with the facts open and the *assumptions*, the
(atom, value) pairs asked about, set in its true or false rows.  In
every start lane the atoms that head no rule and are not facts are
false.  Then each step takes the lowest atom that is unassigned in some
lane, found by one test over every lane and every atom from the last
split on, and splits every lane where it is unassigned, the false child
right before the true one.  Conflicted and padding lanes have every bit
set, so they are never unassigned, and in the worlds' lanes the set
facts are never split.  So the lanes always spell distinct prefixes in
ascending order, the leaves come out in the order of a depth-first
search that branches false first on the lowest unassigned atom, and
the rows need no sort.  A chunk with no unassigned atom is finished.

The frontier is solved in chunks.  A split that would exceed the chunk
width pushes the second half of the chunk on a work stack and goes on
with the first half, and the generator :meth:`StableSolver._descend`
hands each finished chunk's live leaves to its caller.  ``all_worlds``
starts the worlds in blocks of :data:`_LANES` at a width of
:data:`_LANES`, so at most that many lanes live at once, and packs each
chunk's leaves straight into the rows that
:class:`pasplearn.credal.WorldModels` stores, one bit per atom, so
nothing converts them after the pass.  ``satisfiable`` stops at the
first chunk that holds a leaf.  Its width starts at one 64-lane word
and doubles each time a chunk is taken off the work stack, up to
:data:`_LANES`.  A satisfiable question is usually answered by the
first chunk, one word wide, while an unsatisfiable one, which must
refute every lane, soon runs at the full width.

After every split one loop, :meth:`StableSolver._propagate`, closes
the lanes under unit propagation over the rule completion: a completed
body forces its head true, a false head with one pending body literal
refutes that literal, and an atom whose rules are all refuted is
false.  A lane where an atom turns both true and false conflicts; it is
set all ones, which no rule changes, and the next split drops it.

In a program whose positive dependency graph is cyclic, the same loop
also runs :meth:`StableSolver._unfounded` at each fixpoint of that
completion step, and goes on while either changes a lane.  The check
covers only the loop atoms: those in a strongly connected component
of the positive dependency graph with a positive cycle, found once per
program.  It computes the least model of the unrefuted rules with a
loop head and forces the loop atoms outside it false, so positive loops
never turn into fruitless branching.  An atom outside every loop needs
no such check: once all its rules are refuted, unit propagation
falsifies it.

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

Propagation never removes a stable model, so the leaves are exactly the
stable models of every world, in ascending order; with assumptions,
exactly those that meet them, so ``satisfiable`` is exact.

Constraints are rules whose head is a reserved false atom, pinned false
in every lane.  A constraint whose body completes would force that atom
true, and one with a single pending literal refutes it, so a violated
constraint is a conflict inside propagation and no leaf is reached.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from .grounding import GroundProgram

#: Most lanes alive at once, and the size of a block of starting worlds.
#: It bounds the frontier's memory for every fact count up to the world cap.
_LANES = 1 << 12


class StableSolver:
    """Reusable solver for one ground program across many worlds."""

    def __init__(self, gp: GroundProgram):
        n = gp.n_atoms
        self.n_atoms = n
        self.false_atom = n  # reserved head for constraints, pinned false
        self.n_total = n + 1
        idx = gp.atom_index
        rules = []
        for rule in gp.rules:
            rules.append((
                self.false_atom if rule.head is None else idx[rule.head],
                tuple(idx[l.atom] for l in rule.body if l.positive),
                tuple(idx[l.atom] for l in rule.body if not l.positive),
            ))
        # Rules sorted by head, so each atom's rules are one run.
        rules.sort(key=lambda rule: rule[0])
        self.heads = [h for h, _, _ in rules]
        self.pos = [p for _, p, _ in rules]
        self.neg = [q for _, _, q in rules]
        # Probabilistic atoms are 0 to n_facts - 1 and head no rule.
        self.n_facts = len(gp.prob_atom_ids)
        headed = set(self.heads)
        self.unsupported = [self.false_atom] + [
            a for a in range(self.n_facts, n) if a not in headed
        ]
        self._rule_tables()
        self._find_loops()

    def _rule_tables(self) -> None:
        """Index tables of unit propagation, into the rows of a state.

        ``true_lit[j, r]`` is the row whose bit says that body literal
        ``j`` of rule ``r`` is true, ``false_lit[j, r]`` the row that says
        it is false; short bodies are padded with the sentinel rows.
        ``head_starts`` starts each head's run of rules, and
        ``head_rows`` and ``head_false_rows`` are the run's head rows.

        One entry per body literal, grouped by the row ``pair_rows`` that
        refuting the literal sets, serves the refutation of a pending
        literal: ``pair_others[:, i]`` are the true-rows of the other
        literals of its rule, padded, and ``pair_head_false[i]`` is the
        false-row of that rule's head.
        """
        A = self.n_total
        ones, zeros = 2 * A, 2 * A + 1
        bodies = [
            [(a, A + a) for a in p] + [(A + a, a) for a in q]
            for p, q in zip(self.pos, self.neg)
        ]
        width = max([len(body) for body in bodies] + [1])
        padded = [body + [(ones, zeros)] * (width - len(body)) for body in bodies]
        lits = np.array(padded, dtype=np.intp).reshape(len(bodies), width, 2)
        self.true_lit, self.false_lit = lits[:, :, 0].T, lits[:, :, 1].T
        heads = np.array(self.heads, dtype=np.intp)
        self.head_starts = _run_starts(self.heads)
        self.head_rows = heads[self.head_starts]
        self.head_false_rows = A + self.head_rows
        pairs = sorted(
            (f, r, j) for r, body in enumerate(bodies) for j, (_, f) in enumerate(body)
        )
        rules = np.array([r for _, r, _ in pairs], dtype=np.intp)
        others = np.arange(width) != np.array([j for _, _, j in pairs], dtype=np.intp)[:, None]
        self.pair_others = lits[rules, :, 0][others].reshape(len(pairs), width - 1).T
        self.pair_head_false = A + heads[rules]
        rows = [f for f, _, _ in pairs]
        self.pair_starts = _run_starts(rows)
        self.pair_rows = np.array(rows, dtype=np.intp)[self.pair_starts]

    def _find_loops(self) -> None:
        """Precompute the unfounded-set check's share of the program.

        Loop atoms are those in a strongly connected component of the
        positive dependency graph (head to positive body atom) with more
        than one atom, or with a positive self-edge.  Every positive loop
        lies inside one component (Lin & Zhao 2004); an atom outside
        every loop is left to unit propagation (see :meth:`_unfounded`).
        Each loop atom heads a rule with a positive body atom in its
        component, so the rules with a loop head, ``loop_rules``, form
        one run per loop atom, in order.  ``loop_body[i]`` lists the
        positive body atoms of loop rule ``i`` that lie in its head's
        component, as indices into ``loop_atoms``, padded with
        ``len(loop_atoms)``; it is stored transposed, body position first.
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
        if not self.cyclic:
            return
        at = {a: i for i, a in enumerate(self.loop_atoms)}
        rules = [r for r, h in enumerate(self.heads) if loop[h]]
        bodies = [
            [at[a] for a in self.pos[r] if comp[a] == comp[self.heads[r]]] for r in rules
        ]
        self.loop_rules = np.array(rules, dtype=np.intp)
        self.loop_body = np.full(
            (max(map(len, bodies)), len(rules)), len(self.loop_atoms), dtype=np.intp
        )
        for i, body in enumerate(bodies):
            self.loop_body[: len(body), i] = body
        self.loop_starts = _run_starts([self.heads[r] for r in rules])
        self.loop_false_rows = self.n_total + np.array(self.loop_atoms, dtype=np.intp)

    # -- solving ---------------------------------------------------------

    def all_worlds(self) -> tuple[np.ndarray, np.ndarray]:
        """Stable models of every world, from one frontier.

        Returns ``(counts, rows)`` in the layout that
        :class:`pasplearn.credal.WorldModels` stores and documents:
        ``counts[i]`` models of world ``i``, and one packed row per
        model.  A world index is the package's one world encoding: with
        ``n`` probabilistic facts, fact ``j`` (declaration order) is true
        iff bit ``n - 1 - j`` is set.  A row's first ``n`` bits are its
        facts, so they spell its world index, fact 0 most significant.

        The rows are ascending and pairwise distinct, so the models of
        world 0 come first, then those of world 1, and so on (module
        docstring).  A world whose facts propagation refutes has no
        model.
        """
        A, n = self.n_total, self.n_facts
        counts = np.zeros(1 << n, dtype=np.int64)
        # The empty C-ordered head gives a program without models its
        # (0, width) shape and keeps the concatenation C-ordered.
        rows = [np.zeros((0, (self.n_atoms + 7) // 8), dtype=np.uint8)]
        shifts = np.arange(n - 1, -1, -1)[:, None]
        powers = 1 << np.arange(n - 1, -1, -1)
        for first in range(0, 1 << n, _LANES):
            worlds = np.arange(first, min(first + _LANES, 1 << n))
            bits = np.zeros((2 * A, len(worlds)), dtype=np.uint8)
            bits[:n] = worlds >> shifts & 1
            bits[A : A + n] = 1 - bits[:n]
            for leaves in self._descend(bits, _LANES):
                # Packed along the atom axis: packing ``leaves.T`` row-wise
                # reads F-ordered input, which ``np.packbits`` does slowly.
                rows.append(np.packbits(leaves, axis=0).T)
                ids = powers @ leaves[:n]  # ascending, as the rows are
                if ids.size:
                    counts[ids[0] : ids[-1] + 1] += np.bincount(ids - ids[0])
        return counts, np.concatenate(rows)

    def satisfiable(self, assumptions: Iterable[tuple[int, bool]]) -> bool:
        """Whether some world has a stable model that meets every assumption.

        ``assumptions`` are ``(atom index, value)`` pairs, over
        probabilistic and derived atoms alike.  One start lane holds them
        with the probabilistic facts open, so the search splits the
        facts like any other atom and never lists the worlds; it stops
        at the first chunk with a leaf.
        """
        A = self.n_total
        bits = np.zeros((2 * A, 1), dtype=np.uint8)
        for atom, value in assumptions:
            bits[atom if value else A + atom] = 1
        return any(leaves.shape[1] for leaves in self._descend(bits, min(64, _LANES)))

    def _descend(self, bits: np.ndarray, width: int) -> Iterator[np.ndarray]:
        """Split start lanes down to their leaves, one chunk at a time.

        ``bits`` holds one row of lane bits per true and false atom row;
        the never-supported atoms are set false here.  Each step splits
        on the lowest atom open in some lane, found by one test over the
        atoms from the last split on.  A chunk with no open atom is
        finished: it yields its live leaves, possibly none, one column
        per leaf and one row per atom, in ascending order.  A split that
        would exceed ``width`` lanes defers the second half of the chunk
        to the work stack and tests the first half again from the same
        atom; each chunk taken off the stack doubles the width, up to
        :data:`_LANES` (module docstring).
        """
        A, n = self.n_total, self.n_atoms
        bits[A + np.array(self.unsupported)] = 1
        state = self._pack(bits)
        self._propagate(state)
        work = [(state, bits.shape[1], 0)]
        while work:
            state, lanes, k = work.pop()
            # Conflicted and padding lanes are all ones, so never open.
            while (open_ahead := (~(state[k:n] | state[A + k : A + n])).any(axis=1)).any():
                k += int(open_ahead.argmax())
                bits = np.unpackbits(state[: 2 * A], axis=1, count=lanes)
                split = (bits[k] | bits[A + k]) == 0
                reps = (bits[self.false_atom] == 0).astype(np.intp) + split
                total = int(reps.sum())
                if total > width:
                    half = lanes // 2
                    work.append((self._pack(bits[:, half:]), lanes - half, k))
                    state, lanes = self._pack(bits[:, :half]), half
                    continue
                src = np.repeat(np.arange(lanes), reps)
                bits = np.take(bits, src, axis=1)
                true_child = np.flatnonzero(src[1:] == src[:-1]) + 1
                bits[k, true_child] = 1
                bits[A + k, true_child - 1] = 1
                state, lanes = self._pack(bits), total
                self._propagate(state)
                k += 1
            bits = np.unpackbits(state[:A], axis=1, count=lanes)
            yield bits[:n, bits[self.false_atom] == 0]
            width = min(2 * width, _LANES)

    def _pack(self, bits: np.ndarray) -> np.ndarray:
        """A state from one row of lane bits per true and false atom row.

        The lanes are padded to whole 64-bit words.  Padding lanes are
        set all ones, as if they had conflicted, so no rule changes them.
        """
        A = self.n_total
        lanes = bits.shape[1]
        state = np.full((2 * A + 2, -(-lanes // 64) * 8), 0xFF, dtype=np.uint8)
        state[: 2 * A, : (lanes + 7) // 8] = np.packbits(bits, axis=1)
        if lanes % 8:
            state[: 2 * A, lanes // 8] |= 0xFF >> lanes % 8
        state[2 * A + 1] = 0
        return state

    # -- propagation -------------------------------------------------------

    def _propagate(self, state: np.ndarray) -> None:
        """Close every lane under the completion rules, in place.

        Works on 64 lanes per word.  Each pass of the loop is one
        completion step over every rule.  In a cyclic program each
        fixpoint of that step also runs :meth:`_unfounded` on the lanes
        where each rule's body is refuted, and the loop goes on while
        either changes a lane.  A conflicting lane is set all ones.
        """
        A = self.n_total
        words = state.view(np.uint64)
        while True:
            before = words.copy()
            complete = np.bitwise_and.reduce(words[self.true_lit], axis=0)
            refuted = np.bitwise_or.reduce(words[self.false_lit], axis=0)
            words[self.head_rows] |= np.bitwise_or.reduceat(complete, self.head_starts)
            words[self.head_false_rows] |= np.bitwise_and.reduceat(refuted, self.head_starts)
            if len(self.pair_rows):
                # Every other body literal is true and the head is false:
                # this literal must not be true too.
                force = np.bitwise_and.reduce(words[self.pair_others], axis=0)
                force &= words[self.pair_head_false]
                words[self.pair_rows] |= np.bitwise_or.reduceat(force, self.pair_starts)
            words[: 2 * A] |= np.bitwise_or.reduce(words[:A] & words[A : 2 * A], axis=0)
            if np.array_equal(before, words) and not (
                self.cyclic and self._unfounded(state, refuted)
            ):
                return

    def _unfounded(self, state: np.ndarray, refuted: np.ndarray) -> bool:
        """Force loop atoms with no optimistic derivation to false.

        Returns whether any lane changed.  The optimistic derivation is
        the least model of the rules with a loop head that are not
        refuted, reading only their positive body atoms in the head's
        own component: one outside it is not false, since the rule is
        not refuted, and is taken as derivable.  Probabilistic atoms head
        no rule, so none is a loop atom, and an open one counts as
        derivable like any other atom outside the loop.  A loop atom
        outside that model is unfounded: no stable model extending the
        lane holds it.  Assigned-true atoms do not justify themselves,
        so a true atom whose support has collapsed into an unfounded
        loop conflicts.

        Other atoms need no check here.  At the fixpoint of
        :meth:`_propagate`, take a lowest component holding an unfounded
        atom that is not false: every unrefuted rule for that atom has
        an unfounded positive body atom in the same component.  Outside
        a loop no rule can, so unit propagation has falsified the atom;
        inside one, this check has.  So the fixpoint is the one a check
        over every atom reaches, and it leaves no unfounded true atom at
        a leaf, which is what makes the leaf stable.
        """
        words = state.view(np.uint64)
        n_loop = len(self.loop_atoms)
        derived = np.zeros((n_loop + 1, words.shape[1]), dtype=np.uint64)
        derived[n_loop] = words[2 * self.n_total]  # pads loop bodies
        open_rules = ~refuted[self.loop_rules]
        while True:
            fire = np.bitwise_and.reduce(derived[self.loop_body], axis=0) & open_rules
            step = np.bitwise_or.reduceat(fire, self.loop_starts)
            if np.array_equal(step, derived[:n_loop]):
                break
            derived[:n_loop] = step
        before = words[self.loop_false_rows]
        after = before | ~derived[:n_loop]
        if np.array_equal(before, after):
            return False
        words[self.loop_false_rows] = after
        return True


def _run_starts(keys: list[int]) -> np.ndarray:
    """Start index of every run of equal keys in a sorted list."""
    return np.array(
        [i for i, key in enumerate(keys) if i == 0 or key != keys[i - 1]], dtype=np.intp
    )


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
