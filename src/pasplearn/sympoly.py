"""Multilinear polynomials representing credal bounds symbolically.

A bound of a query, as a function of the learnable-fact probabilities
``π_0..π_{L-1}``, is a sum over contributing worlds of
``k_w · Π_{j∈w} π_j · Π_{j∉w} (1−π_j)`` with ``k_w`` the product of the
fixed-fact probabilities.  Expanding the ``(1−π)`` factors and
collecting terms yields a unique multilinear normal form: the
coefficient of monomial ``t`` is ``Σ_{b⊆t} (−1)^{|t|−|b|} c_b`` where
``c_b`` accumulates ``k_w`` over contributing worlds with learnable
pattern ``b`` (a signed subset-sum a.k.a. Möbius transform, computed
with a butterfly over the 2^L table of patterns).  Extraction reads
each world's pattern off the bits of its index (:func:`_support`), so
it builds no per-world table and keeps nothing between calls.

A polynomial is an array of monomial bit patterns (bit ``j`` for
variable ``j``, a layout only this module knows) and an array of
coefficients, in canonical order: one gather out of the Möbius table.
:class:`PolyStack` concatenates the distinct ones among several
polynomials over the same variables; equal polynomials are stored, and
evaluated, once.  Three methods evaluate it.  :meth:`PolyStack.evaluate`
takes one gather and one ``np.multiply.reduceat`` for every monomial
product at a point, and one dot product per polynomial for its value.
:meth:`PolyStack.evaluate_many` does the same at k points with one
gather and one ``reduceat`` over a (k × monomials) array, and one
``np.vecdot`` per block of distinct polynomials with the same monomial
count (one product for a block of one monomial each, as numpy's dot of
two length-1 arrays is).  ``np.vecdot`` takes each row's value with
the same BLAS ``ddot`` as a one-point dot product, and each
polynomial's operands start 16-byte aligned in both layouts (the SSE
kernels add in an order that depends on alignment), so both methods
give the same bits, and each row of its gathered factors and products
is :meth:`PolyStack.evaluate`'s at that point.
:meth:`PolyStack.gradient_rows` turns a point's products into every
gradient with one ``np.bincount``.  :meth:`PolyStack.rounding_zeros`
tells which values are zero up to their evaluation's rounding error.
:func:`poly_eval` is the one-polynomial value.
The stack keeps each polynomial's floating-point operations in the
order of evaluating it alone, so its numbers do not depend on which
polynomials share the stack.  Gradients are exact: each partial is the
polynomial with its variable removed, each monomial's product divided
by that variable's factor.  Where a θ component is 0 the products are
recomputed from the point's gathered factors with every zero read as
1.0, and a mask test on the patterns then zeroes the partials that
still hold a zero factor.

:func:`poly_from_world_flags` is the one producer of polynomials, one
per flag array, on one extraction support per call.  :func:`bound_polys`
feeds it each distinct query's lower flags (every answer set satisfies
it) and upper ones (some answer set does), one query at a time.  Both
learners, :func:`extract_poly` and ``--show-equations`` go through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, groupby

import numpy as np

from .credal import world_models, world_weights
from .errors import CapExceeded
from .model import Program, Query, world_cap

#: The bound names, in the order of :meth:`WorldModels.satisfaction`'s flags.
BOUNDS = ("lower", "upper")


@dataclass(eq=False)
class SymPoly:
    """Multilinear polynomial ``Σ_i coeffs[i] · Π_{j : bit j of patterns[i]} π_j``.

    The constant monomial has pattern 0.  Monomials are distinct and in
    canonical order: fewer variables first, then ascending sorted
    variable lists (``1, p0, p1, p0*p1, p0*p2, p1*p2``).  Every sum over
    them, alone or in a :class:`PolyStack`, runs in that order, which
    fixes the last bits of every value, gradient and learned parameter.
    """

    nvars: int
    patterns: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        self.patterns = np.asarray(self.patterns, dtype=np.int64)
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.patterns.ndim != 1 or self.patterns.shape != self.coeffs.shape:
            raise ValueError(f"{self.patterns.shape} patterns for {self.coeffs.shape} coeffs")
        # A bit at or above nvars (or a sign bit) would read the stack's sentinel 1.0.
        if np.any(self.patterns >> self.nvars):
            raise ValueError(f"monomial pattern out of range for {self.nvars} vars")

    def __str__(self) -> str:
        return poly_to_text(self)


def _dot_rows(coefs, prods, out):
    """``np.vecdot(coefs, prods, out=out)`` for numpy before 2.0: one ``dot`` per row.

    ``coefs`` is (m, n) and ``prods`` (k, m, n); ``np.vecdot`` calls
    the same BLAS ``ddot`` per row, so both give the same bits.
    """
    for r, rows in enumerate(prods):
        for j, (c, p) in enumerate(zip(coefs, rows)):
            out[r, j] = c.dot(p)


_vecdot = getattr(np, "vecdot", _dot_rows)


def _padded(arrays, dtype) -> np.ndarray:
    """The arrays end to end, each of odd length followed by a 0, as ``dtype``."""
    parts = [np.zeros(0, dtype)]  # keeps a result of no or empty arrays well-typed
    for a in arrays:
        parts += [a, np.zeros(len(a) % 2, dtype)]
    return np.concatenate(parts)


class PolyStack:
    """Several polynomials over the same variables, stacked for evaluation.

    Equal polynomials (same patterns and coefficients) are stored once:
    ``index[k]`` is the position of input polynomial k among the
    distinct ones, which are ordered by monomial count, ties in order of
    first appearance.  The coefficients and patterns of every distinct
    polynomial are concatenated in order, each odd-length one followed
    by a slot of coefficient 0 and pattern 0 (whose only factor is the
    sentinel 1.0): every polynomial owns an even number of slots, so its
    operands start 16-byte aligned as those of a polynomial stacked
    alone do.  A flat array of variable indices holds a segment per
    monomial.  One gather and one ``reduceat`` give every monomial's
    product at a point; each polynomial's value is then the dot product
    of its own slice (without the padding), and all gradients come from
    one ``bincount`` over ``owner·(nvars+1)+var``.
    This keeps the floating-point operations, and their order, of
    evaluating each polynomial on its own, so the numbers are bit-for-bit
    those of a stack of each polynomial alone (:func:`poly_eval` is the
    one-polynomial value).
    The evaluation API is four methods, each with one result per
    distinct polynomial (callers map inputs through ``index``).
    :meth:`evaluate` returns the values with the gathered factors and
    products behind them, and :meth:`gradient_rows` takes those to the
    gradients at the same point without a second gather or
    ``reduceat``.  :meth:`evaluate_many` returns the same three at each
    of several points, one row per point, and :meth:`rounding_zeros`
    marks the values among them that are zero up to rounding.
    """

    def __init__(self, polys, nvars: int):
        keys: dict[tuple[bytes, bytes], int] = {}
        distinct = []
        index = []
        for p in polys:
            if p.nvars != nvars:
                raise ValueError(f"polynomial over {p.nvars} vars in a stack of {nvars}")
            k = keys.setdefault((p.patterns.tobytes(), p.coeffs.tobytes()), len(keys))
            if k == len(distinct):
                distinct.append(p)
            index.append(k)
        # Polynomials of equal monomial count side by side: one block each.
        order = sorted(range(len(distinct)), key=lambda k: len(distinct[k].coeffs))
        rank = np.empty(len(order), dtype=np.intp)
        rank[order] = np.arange(len(order))
        self.index = rank[np.array(index, dtype=np.intp)]
        distinct = [distinct[k] for k in order]
        self.nvars = nvars
        sizes = [len(p.coeffs) for p in distinct]
        widths = [n + n % 2 for n in sizes]
        # Each polynomial's first slot, then the slot count.
        starts = list(accumulate(widths, initial=0))
        coefs = _padded([p.coeffs for p in distinct], float)
        patterns = _padded([p.patterns for p in distinct], np.int64)
        # The constant monomial and the padding read the sentinel variable
        # nvars (value pinned to 1.0), which keeps their segments non-empty
        # for reduceat.
        self.patterns = np.where(patterns == 0, 1 << nvars, patterns)
        rows, self.flat = np.nonzero(self.patterns[:, None] & (1 << np.arange(nvars + 1)) != 0)
        lengths = np.bincount(rows, minlength=len(self.patterns))
        self.offsets = np.cumsum(lengths) - lengths
        owner = np.repeat(np.arange(len(distinct)), widths)
        self._grad_index = owner[rows] * (nvars + 1) + self.flat
        self._el_coef = coefs[rows]
        self._el_row = rows
        # Each distinct polynomial's coefficients and the slice of its products.
        self._slices = [(coefs[s : s + n], slice(s, s + n)) for s, n in zip(starts, sizes)]
        # Per block of equal monomial count n: its columns of values, its
        # slots, their width, and its (polynomials × n) coefficients.
        self._blocks = []
        for n, group in groupby(range(len(distinct)), key=sizes.__getitem__):
            ks = list(group)
            lo, hi, w = ks[0], ks[-1] + 1, widths[ks[0]]
            block_slots = slice(starts[lo], starts[hi])
            block = coefs[block_slots].reshape(hi - lo, w)[:, :n]
            self._blocks.append((slice(lo, hi), block_slots, w, block))
        # Per distinct polynomial: the relative rounding bound of its values
        # (nvars roundings per product, one per monomial in the dot), and
        # twice that bound times its absolute coefficient sum, which no
        # value's bound at a point in [0, 1]^nvars exceeds.
        self._tol = np.array([(nvars + n) * 2.0**-53 for n in sizes])
        abs_sums = np.bincount(owner, weights=np.abs(coefs), minlength=len(distinct))
        self._zero_bound = 2.0 * self._tol * abs_sums

    def evaluate(self, theta) -> tuple[list[float], np.ndarray, np.ndarray]:
        """Every distinct polynomial's value at theta, with what gave it.

        Returns the values, every flat element's factor (``gathered``)
        and every monomial's product (``prods``); :meth:`gradient_rows`
        reuses the last two at the same theta.
        """
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.nvars,):
            raise ValueError(f"expected theta of length {self.nvars}, got {theta.shape}")
        # theta, then the sentinel variable's 1.0.
        ext = np.empty(self.nvars + 1)
        ext[:-1] = theta
        ext[-1] = 1.0
        gathered = ext.take(self.flat)
        prods = np.multiply.reduceat(gathered, self.offsets)
        return [float(c.dot(prods[s])) for c, s in self._slices], gathered, prods

    def evaluate_many(self, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every distinct polynomial's value at each row of points, with what gave it.

        ``points`` is a (k, nvars) array.  Returns the (k, distinct)
        values, the (k × flat elements) gathered factors and the
        (k × monomials) products; row r of each holds, bit for bit, what
        :meth:`evaluate` gives at ``points[r]``, so :meth:`gradient_rows`
        takes a row of the last two.  This is for a few points at a time.
        """
        points = np.asarray(points, dtype=float)
        k = len(points)
        if points.shape != (k, self.nvars):
            raise ValueError(f"expected points of shape (k, {self.nvars}), got {points.shape}")
        ext = np.ones((k, self.nvars + 1))
        ext[:, :-1] = points
        gathered = ext.take(self.flat, axis=1)
        prods = np.multiply.reduceat(gathered, self.offsets, axis=1)
        values = np.empty((k, len(self._slices)))
        for cols, slots, w, coefs in self._blocks:
            m, n = coefs.shape
            block = prods[:, slots].reshape(k, m, w)[:, :, :n]
            if n == 1:
                # A dot of two length-1 arrays is their product, not 0.0
                # plus it: the two differ in the sign of a zero.
                np.multiply(coefs[:, 0], block[:, :, 0], out=values[:, cols])
            else:
                _vecdot(coefs, block, out=values[:, cols])
        return values, gathered, prods

    def rounding_zeros(self, values, prods) -> np.ndarray:
        """Where values from :meth:`evaluate_many` are zero up to rounding error.

        ``values`` and ``prods`` are (k, distinct) values and their
        (k × monomials) products at k points in [0, 1]^nvars.  A value
        of a polynomial of m monomials is taken for zero when it is at
        most ``(nvars + m)·u·Σ_t |c_t|·prod_t``, with u = 2^-53: each
        product takes fewer than nvars roundings and the dot product m,
        so that bounds the residue of terms that cancel exactly, while a
        small value of terms that do not cancel, such as one monomial of
        coefficient 0.02^10, stays.  Products are at most 1 there, so
        only a positive value below twice ``(nvars + m)·u·Σ_t |c_t|``
        takes the dot product of the absolute coefficients.
        """
        zero = values <= self._zero_bound
        small = zero & (values > 0.0)
        if small.any():
            for r, k in zip(*np.nonzero(small)):
                coefs, s = self._slices[k]
                zero[r, k] = values[r, k] <= self._tol[k] * np.abs(coefs).dot(prods[r, s])
        return zero

    def gradient_rows(self, theta: np.ndarray, gathered, prods) -> np.ndarray:
        """Exact gradients (one row per distinct polynomial) at theta.

        ``theta`` is a float array, and ``gathered`` and ``prods`` are
        what :meth:`evaluate` returned for it.  Each partial is the
        polynomial with its variable removed: per flat element, its
        monomial's product over its own factor.  Where a θ component is
        0 that quotient is undefined, so the products are recomputed
        from ``gathered`` with every zero read as 1.0; the patterns then
        zero each partial with a zero factor other than its own variable.
        """
        # Per flat element: product of its monomial's *other* variables.
        if 0.0 not in theta.tolist():
            others = prods.take(self._el_row)
            others /= gathered
        else:
            vals = np.where(gathered == 0.0, 1.0, gathered)
            others = np.multiply.reduceat(vals, self.offsets).take(self._el_row) / vals
            # Each monomial's zero factors.  A lone zero factor's partial
            # is the rest's product over 1.0 and stays.
            hit = self.patterns & np.bitwise_or.reduce(1 << np.flatnonzero(theta == 0.0))
            others[hit.take(self._el_row) & ~(1 << self.flat) != 0] = 0.0
        width = self.nvars + 1
        n = len(self._slices)
        others *= self._el_coef
        # bincount of no weights is int64; astype keeps a stack without
        # monomials float and copies nothing otherwise.
        grads = np.bincount(self._grad_index, weights=others, minlength=n * width)
        grads = grads.astype(float, copy=False).reshape(n, width)
        return grads[:, : self.nvars]  # sentinel column: d/d(1)


def poly_eval(p: SymPoly, theta) -> float:
    """Value of p at theta (length must equal nvars)."""
    return PolyStack([p], p.nvars).evaluate(theta)[0][0]


def poly_to_text(p: SymPoly) -> str:
    """Human-readable rendering in canonical order, e.g. ``0.4*p1 + 0.6*p0*p1``."""
    if not len(p.coeffs):
        return "0"
    parts: list[str] = []
    for pattern, c in zip(p.patterns.tolist(), p.coeffs.tolist()):
        factors = [f"p{j}" for j in range(p.nvars) if pattern >> j & 1]
        magnitude = repr(abs(c))
        if factors and abs(c) == 1.0:
            term = "*".join(factors)
        else:
            term = "*".join([magnitude] + factors)
        if not parts:
            parts.append(term if c >= 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c >= 0 else f"- {term}")
    return " ".join(parts)


# -- extraction from world enumeration ---------------------------------


def _support(program: Program) -> tuple[np.ndarray, list[int], np.ndarray, np.ndarray]:
    """(``k_f``, ``axes``, the 2^L patterns in canonical order, their columns).

    Fact j is bit n−1−j of the world index, so one world-flag array
    reshaped to an axis per fact and transposed to ``axes`` (the fixed
    facts, then the learnable ones, each in declaration order) is a
    (2^(n−L) × 2^L) table.  Its row is the fixed facts' world, and
    ``k_f[row]`` the product of their probability factors in fact
    order.  Its column is the learnable pattern with learnable 0 as the
    most significant bit: pattern t's bits reversed.  Nothing here has
    2^n entries, and nothing is kept between calls.
    """
    facts = program.prob_facts
    fixed = [j for j, pf in enumerate(facts) if not pf.learnable]
    k_f = world_weights([(1.0 - facts[j].prob, facts[j].prob) for j in fixed])
    nvars = program.n_prob_facts - len(fixed)
    # Canonical order sorts by popcount, then by ascending variable list:
    # the list whose lowest differing variable is smaller comes first,
    # which is the larger pattern once bit j is moved to bit nvars-1-j.
    every = np.arange(1 << nvars, dtype=np.int64)
    popcount = np.zeros_like(every)
    reversed_bits = np.zeros_like(every)
    for j in range(nvars):
        bit = every >> j & 1
        popcount += bit
        reversed_bits |= bit << (nvars - 1 - j)
    order = every[np.lexsort((-reversed_bits, popcount))]
    return k_f, fixed + list(program.learnable_indices()), order, reversed_bits[order]


def poly_from_world_flags(program: Program, flags) -> list[SymPoly]:
    """One polynomial ``Σ_w f[w] · k_w · Π_{j∈w} π_j · Π_{j∉w} (1−π_j)`` per array.

    Each array ``f`` of the iterable ``flags`` marks contributing worlds
    by world index.  Their polynomials, in order, are over the learnable
    parameters in declaration order, in canonical monomial form.  The
    arrays are read one at a time, and :func:`_support` is built once,
    for the first.  Monomial t is left out when its coefficient is
    within rounding error of zero, at most ``K·u·Σ_{b⊆t} |c_b|`` in
    magnitude, with u = 2^-53 and K = n + L + 2^(n−L) for n facts of
    which L are learnable.  A small coefficient that is no cancellation
    residue, such as 0.02^10, stays.  It reads no world pass.  Raises
    ``ValueError`` unless an array has one flag per world, then
    :class:`~pasplearn.errors.CapExceeded` above
    :func:`~pasplearn.model.world_cap` facts, as
    :func:`~pasplearn.credal.world_models` does.  The flags take one
    array axis per fact, which numpy 1.x allows up to n = 32.
    """
    n, nvars, cap = program.n_prob_facts, len(program.learnable_indices()), world_cap()
    support = None
    polys = []
    for f in flags:
        mask = np.asarray(f, dtype=bool)
        if mask.shape != (1 << n,):
            raise ValueError(f"expected {1 << n} world flags, got {mask.shape}")
        if n > cap:
            raise CapExceeded(n, cap)
        k_f, axes, order, columns = support = support or _support(program)
        table = mask.reshape((2,) * n).transpose(axes).reshape(len(k_f), 1 << nvars)
        # Each flagged world's column and fixed-fact weight, read through
        # broadcast views, so no per-world table is built.  Each pattern's
        # worlds are added in world order: the rows run in the order of the
        # fixed facts' bits in the world index.
        cols = np.broadcast_to(np.arange(1 << nvars), table.shape)[table]
        arr = np.zeros(1 << nvars)
        np.add.at(arr, cols, np.broadcast_to(k_f[:, None], table.shape)[table])
        del table, cols  # per-world arrays: gone before the next flags are read
        # scale[t] = Σ_{b⊆t} |c_b|: the same butterfly with + bounds the
        # magnitudes that coefficient t's rounding errors scale with.
        # Variable 0 goes first; it is the columns' highest bit.
        scale = np.abs(arr)
        for k in reversed(range(nvars)):
            arr = arr.reshape(-1, 2, 1 << k)
            arr[:, 1, :] -= arr[:, 0, :]
            scale = scale.reshape(-1, 2, 1 << k)
            scale[:, 1, :] += scale[:, 0, :]
        coeffs = arr.reshape(-1)[columns]
        # A coefficient within rounding error of zero is a cancellation
        # residue: n-factor products, up to 2^(n-L) worlds summed per
        # pattern, and L butterfly levels, in units of the unit roundoff.
        tol = (n + nvars + 2.0 ** (n - nvars)) * 2.0**-53
        keep = np.abs(coeffs) > tol * scale.reshape(-1)[columns]
        polys.append(SymPoly(nvars, order[keep], coeffs[keep]))
    return polys


def bound_polys(program: Program, queries, bounds) -> list[list[SymPoly]]:
    """For each of ``bounds``, every query's polynomial, in query order.

    A bound is a name in :data:`BOUNDS`.  Worlds contribute to a query's
    upper bound when some answer set satisfies it, to its lower bound
    when all do.  One :func:`poly_from_world_flags` call reads each
    distinct query's flags once, one query's at a time.  Raises
    ``ValueError`` on any other bound name, and
    :class:`~pasplearn.errors.InconsistentWorld` if a world has none.
    """
    for b in bounds:
        if b not in BOUNDS:
            raise ValueError(f"bound must be one of {BOUNDS}, got {b!r}")
    wm = world_models(program)
    distinct = {q: k for k, q in enumerate(dict.fromkeys(queries))}
    picks = [BOUNDS.index(b) for b in bounds]
    polys = poly_from_world_flags(
        program, (sat[i] for sat in map(wm.satisfaction, distinct) for i in picks)
    )
    return [[polys[distinct[q] * len(picks) + j] for q in queries] for j in range(len(picks))]


def extract_poly(program: Program, q: Query, bound: str) -> SymPoly:
    """Symbolic ``"lower"`` or ``"upper"`` probability of a query.

    The one-query case of :func:`bound_polys`, with its errors.
    """
    return bound_polys(program, [q], [bound])[0][0]
