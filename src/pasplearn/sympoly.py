"""Multilinear polynomials representing credal bounds symbolically.

A bound of a query, as a function of the learnable-fact probabilities
``π_0..π_{L-1}``, is a sum over contributing worlds of
``k_w · Π_{j∈w} π_j · Π_{j∉w} (1−π_j)`` with ``k_w`` the product of the
fixed-fact probabilities.  Expanding the ``(1−π)`` factors and
collecting terms yields a unique multilinear normal form: the
coefficient of monomial ``t`` is ``Σ_{b⊆t} (−1)^{|t|−|b|} c_b`` where
``c_b`` accumulates ``k_w`` over contributing worlds with learnable
pattern ``b`` (a signed subset-sum a.k.a. Möbius transform, computed
with a butterfly over the 2^L table of patterns).

A polynomial is an array of monomial bit patterns (bit ``j`` for
variable ``j``, a layout only this module knows) and an array of
coefficients, in canonical order: one gather out of the Möbius table.
:class:`PolyStack` concatenates the distinct ones among several
polynomials over the same variables, so that one gather and one
``np.multiply.reduceat`` give every monomial product of all of them at
a point; equal polynomials are stored, and evaluated, once.  Each
polynomial's value is then the dot product of its own coefficients and
products, and all gradients come from one ``np.bincount``.
:func:`poly_eval` and :func:`poly_grad` are the one-polynomial case.
The stack keeps each polynomial's floating-point operations in the
order of evaluating it alone, so its numbers do not depend on which
polynomials share the stack.  Gradients are exact: each
partial is the polynomial with its variable removed, by one path for
every θ.  A θ component equal to 0 is read as 1.0 in the products, and
a mask test on the patterns then zeroes the monomials and partials that
still hold a zero factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .credal import world_models, world_weights
from .model import Program, Query

#: Coefficients smaller than this in absolute value are dropped when
#: polynomials are extracted into normal form.
COEFF_EPS = 1e-15


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


class PolyStack:
    """Several polynomials over the same variables, stacked for evaluation.

    Equal polynomials (same patterns and coefficients) are stored once:
    ``index[k]`` is the position of input polynomial k among the
    distinct ones, in order of first appearance.  The monomials of every
    distinct polynomial are concatenated in order: one coefficient
    array, one flat array of variable indices with a segment per
    monomial, and the slice of monomials each polynomial owns.  One
    gather and one ``reduceat`` give every monomial's product at a
    point; each polynomial's value is then the dot product of its own
    slice, and all gradients come from one ``bincount`` over
    ``owner·(nvars+1)+var``.  This keeps the floating-point operations,
    and their order, of evaluating each polynomial on its own, so the
    numbers are bit-for-bit those of :func:`poly_eval` and
    :func:`poly_grad` (which are the one-polynomial case).
    :meth:`values` and :meth:`gradients` give one result per input
    polynomial; :meth:`distinct_values` and :meth:`distinct_gradients`
    give one per distinct polynomial, for callers that reuse it through
    ``index``.
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
        self.index = np.array(index, dtype=np.intp)
        self.nvars = nvars
        sizes = [len(p.coeffs) for p in distinct]
        # The leading empty arrays keep a stack of no monomials well-typed.
        self.coefs = np.concatenate([np.zeros(0)] + [p.coeffs for p in distinct])
        patterns = np.concatenate([np.zeros(0, dtype=np.int64)] + [p.patterns for p in distinct])
        # The constant monomial reads the sentinel variable nvars (value
        # pinned to 1.0), which keeps its segment non-empty for reduceat.
        self.patterns = np.where(patterns == 0, 1 << nvars, patterns)
        rows, self.flat = np.nonzero(self.patterns[:, None] & (1 << np.arange(nvars + 1)) != 0)
        self.lengths = np.bincount(rows, minlength=len(self.patterns))
        self.offsets = np.cumsum(self.lengths) - self.lengths
        owner = np.repeat(np.arange(len(distinct)), sizes)
        self._grad_index = owner[rows] * (nvars + 1) + self.flat
        self._el_coef = self.coefs[rows]
        self._spans = [(e - n, e) for e, n in zip(accumulate(sizes), sizes)]
        self._coef_slices = [self.coefs[s:e] for s, e in self._spans]

    def __len__(self) -> int:
        """Number of input polynomials, repeats included."""
        return len(self.index)

    def _ext(self, theta) -> np.ndarray:
        """theta with the sentinel 1.0 appended, after a length check."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.nvars,):
            raise ValueError(f"expected theta of length {self.nvars}, got {theta.shape}")
        ext = np.empty(self.nvars + 1)
        ext[:-1] = theta
        ext[-1] = 1.0
        return ext

    def _values(self, prods) -> list[float]:
        return [float(c.dot(prods[s:e])) for c, (s, e) in zip(self._coef_slices, self._spans)]

    def distinct_values(self, theta) -> list[float]:
        """Value of every distinct polynomial at theta."""
        ext = self._ext(theta)
        return self._values(np.multiply.reduceat(ext[self.flat], self.offsets))

    def values(self, theta) -> list[float]:
        """Value of every input polynomial at theta."""
        values = self.distinct_values(theta)
        return [values[k] for k in self.index.tolist()]

    def distinct_gradients(self, theta) -> tuple[list[float], np.ndarray]:
        """Values and exact gradients (one row per distinct polynomial) at theta.

        Each partial is the polynomial with its variable removed.  A θ
        component equal to 0 is read as 1.0 so that every quotient is
        defined; the patterns then zero each monomial with a zero factor
        and each partial with a zero factor other than its own variable.
        """
        ext = self._ext(theta)
        zero = ext == 0.0
        vals = np.where(zero, 1.0, ext)[self.flat]
        prods = np.multiply.reduceat(vals, self.offsets)
        # Per flat element: product of its monomial's *other* variables.
        others = np.repeat(prods, self.lengths) / vals
        if zero.any():
            # Each monomial's zero factors (never the sentinel).  A lone
            # zero factor's partial is the rest's product over 1.0 and stays.
            hit = self.patterns & np.bitwise_or.reduce(1 << np.flatnonzero(zero))
            prods[hit != 0] = 0.0
            others[np.repeat(hit, self.lengths) & ~(1 << self.flat) != 0] = 0.0
        width = self.nvars + 1
        n = len(self._spans)
        grads = np.bincount(
            self._grad_index, weights=self._el_coef * others, minlength=n * width
        ).reshape(n, width)
        return self._values(prods), grads[:, : self.nvars]  # sentinel column: d/d(1)

    def gradients(self, theta) -> tuple[list[float], np.ndarray]:
        """Values and exact gradients (one row per input polynomial) at theta."""
        values, grads = self.distinct_gradients(theta)
        return [values[k] for k in self.index.tolist()], grads[self.index]


def poly_eval(p: SymPoly, theta) -> float:
    """Value of p at theta (length must equal nvars)."""
    return PolyStack([p], p.nvars).values(theta)[0]


def poly_grad(p: SymPoly, theta) -> np.ndarray:
    """Exact gradient of p at theta."""
    return PolyStack([p], p.nvars).gradients(theta)[1][0]


def poly_to_text(p: SymPoly, var_prefix: str = "p") -> str:
    """Human-readable rendering in canonical order, e.g. ``0.4*p1 + 0.6*p0*p1``."""
    if not len(p.coeffs):
        return "0"
    parts: list[str] = []
    for pattern, c in zip(p.patterns.tolist(), p.coeffs.tolist()):
        factors = [f"{var_prefix}{j}" for j in range(p.nvars) if pattern >> j & 1]
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


@lru_cache(maxsize=8)
def _support(program: Program) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pattern per world, ``k_w`` per world, the 2^L patterns in canonical order).

    ``patterns[i]`` packs the learnable facts included in world ``i``
    (bit k = learnable k, declaration order); ``k_w[i]`` is the product
    of the fixed facts' probability factors.
    """
    facts = program.prob_facts
    n = len(facts)
    idx = np.arange(1 << n, dtype=np.int64)
    patterns = np.zeros(1 << n, dtype=np.int64)
    learnable = program.learnable_indices()
    for k, j in enumerate(learnable):
        patterns |= ((idx >> (n - 1 - j)) & 1) << k
    k_w = world_weights(
        [(1.0, 1.0) if pf.learnable else (1.0 - pf.prob, pf.prob) for pf in facts]
    )
    # Canonical order sorts by popcount, then by ascending variable list:
    # the list whose lowest differing variable is smaller comes first,
    # which is the larger pattern once bit j is moved to bit nvars-1-j.
    nvars = len(learnable)
    every = np.arange(1 << nvars, dtype=np.int64)
    popcount = np.zeros_like(every)
    reversed_bits = np.zeros_like(every)
    for j in range(nvars):
        bit = every >> j & 1
        popcount += bit
        reversed_bits |= bit << (nvars - 1 - j)
    return patterns, k_w, every[np.lexsort((-reversed_bits, popcount))]


def poly_from_world_flags(program: Program, flags) -> SymPoly:
    """Polynomial ``Σ_w flags[w] · k_w · Π_{j∈w} π_j · Π_{j∉w} (1−π_j)``.

    ``flags[w]`` marks the contributing worlds (by world index); the
    result is over the program's learnable parameters in declaration
    order, in canonical monomial form.
    """
    mask = np.asarray(flags, dtype=bool)
    n_worlds = 1 << program.n_prob_facts
    if mask.shape != (n_worlds,):
        raise ValueError(f"expected {n_worlds} world flags, got {mask.shape}")
    patterns, k_w, order = _support(program)
    nvars = len(program.learnable_indices())

    arr = np.zeros(1 << nvars)
    np.add.at(arr, patterns[mask], k_w[mask])
    for k in range(nvars):
        arr = arr.reshape(-1, 2, 1 << k)
        arr[:, 1, :] -= arr[:, 0, :]
    coeffs = arr.reshape(-1)[order]
    keep = np.abs(coeffs) >= COEFF_EPS
    return SymPoly(nvars, order[keep], coeffs[keep])


def extract_poly(program: Program, q: Query, bound: str) -> SymPoly:
    """Symbolic lower/upper probability of a query.

    ``bound`` is ``"lower"`` or ``"upper"``.  Worlds contribute to the
    upper bound when some answer set satisfies the query, to the lower
    bound when all do.  Raises :class:`InconsistentWorld` if a world has
    no answer set.
    """
    if bound not in ("lower", "upper"):
        raise ValueError(f"bound must be 'lower' or 'upper', got {bound!r}")
    wm = world_models(program)
    all_sat, some_sat = wm.satisfaction(q)
    flags = all_sat if bound == "lower" else some_sat
    return poly_from_world_flags(program, flags)
