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

Polynomials are immutable after construction and cache flat numpy
arrays: a coefficient per monomial and a segment of variable indices
per monomial.  :class:`PolyStack` concatenates those arrays for several
polynomials over the same variables, so that one gather and one
``np.multiply.reduceat`` give every monomial product of all of them at
a point.  Each polynomial's value is then the dot product of its own
coefficients and products, and all gradients come from one
``np.bincount``.  :func:`poly_eval` and :func:`poly_grad` are the
one-polynomial case.  The stack keeps each polynomial's floating-point
operations in the order of evaluating it alone, so its numbers do not
depend on which polynomials share the stack.  Gradients are exact: each
partial is the polynomial with its variable removed, handled with
explicit zero accounting so that θ components equal to 0 still
differentiate correctly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .credal import world_models
from .model import Program, Query

#: Coefficients smaller than this in absolute value are dropped when
#: polynomials are extracted into normal form.
COEFF_EPS = 1e-15


@dataclass
class SymPoly:
    """Multilinear polynomial in canonical (expanded monomial) form."""

    nvars: int
    coeffs: dict[frozenset, float]
    _cache: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for mono in self.coeffs:
            for j in mono:
                if not 0 <= j < self.nvars:
                    raise ValueError(f"variable {j} out of range for {self.nvars} vars")

    def _arrays(self):
        """(coefs, flat var indices, segment lengths), monomials in canonical order."""
        if self._cache is None:
            order = sorted((len(m), sorted(m), c) for m, c in self.coeffs.items())
            coefs = np.array([c for _, _, c in order], dtype=float)
            flat: list[int] = []
            lengths: list[int] = []
            for _, segment, _ in order:
                # Sentinel index nvars (value pinned to 1.0) keeps the
                # constant monomial's segment non-empty for reduceat.
                segment = segment or [self.nvars]
                flat.extend(segment)
                lengths.append(len(segment))
            self._cache = (
                coefs,
                np.array(flat, dtype=np.intp),
                np.array(lengths, dtype=np.intp),
            )
        return self._cache

    def __str__(self) -> str:
        return poly_to_text(self)


class PolyStack:
    """Several polynomials over the same variables, stacked for evaluation.

    The monomials of every polynomial are concatenated in order: one
    coefficient array, one flat array of variable indices with a
    segment per monomial, and the slice of monomials each polynomial
    owns.  One gather and one ``reduceat`` give every monomial's product
    at a point; each polynomial's value is then the dot product of its
    own slice, and all gradients come from one ``bincount`` over
    ``owner·(nvars+1)+var``.  This keeps the floating-point operations,
    and their order, of evaluating each polynomial on its own, so the
    numbers are bit-for-bit those of :func:`poly_eval` and
    :func:`poly_grad` (which are the one-polynomial case).
    """

    def __init__(self, polys, nvars: int):
        polys = list(polys)
        for p in polys:
            if p.nvars != nvars:
                raise ValueError(f"polynomial over {p.nvars} vars in a stack of {nvars}")
        self.nvars = nvars
        parts = [p._arrays() for p in polys]
        # The leading empty arrays keep a stack of no monomials well-typed.
        empty = np.zeros(0, dtype=np.intp)
        self.coefs = np.concatenate([np.zeros(0)] + [c for c, _, _ in parts])
        self.flat = np.concatenate([empty] + [f for _, f, _ in parts])
        self.lengths = np.concatenate([empty] + [n for _, _, n in parts])
        self.offsets = np.cumsum(self.lengths) - self.lengths
        owner = np.repeat(np.arange(len(polys)), [len(f) for _, f, _ in parts])
        self._grad_index = owner * (nvars + 1) + self.flat
        self._el_coef = np.repeat(self.coefs, self.lengths)
        self._spans = []
        start = 0
        for coefs, _, _ in parts:
            self._spans.append((start, start + len(coefs)))
            start += len(coefs)
        self._coef_slices = [self.coefs[s:e] for s, e in self._spans]

    def __len__(self) -> int:
        return len(self._spans)

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

    def values(self, theta) -> list[float]:
        """Value of every polynomial at theta."""
        ext = self._ext(theta)
        return self._values(np.multiply.reduceat(ext[self.flat], self.offsets))

    def gradients(self, theta) -> tuple[list[float], np.ndarray]:
        """Values and exact gradients (one row per polynomial) at theta.

        Each partial is the polynomial with its variable removed; a θ
        component equal to 0 is handled with explicit zero accounting
        so that it still differentiates correctly.
        """
        ext = self._ext(theta)
        vals = ext[self.flat]
        if ext.all():
            # No zero factor: the zero-accounting formulas below reduce
            # to these, operation for operation.
            prods = np.multiply.reduceat(vals, self.offsets)
            others = np.repeat(prods, self.lengths) / vals
        else:
            zero = vals == 0.0
            nz_vals = np.where(zero, 1.0, vals)
            seg_nz_prod = np.multiply.reduceat(nz_vals, self.offsets)
            seg_zeros = np.add.reduceat(zero.astype(np.int64), self.offsets)
            # Per flat element: product of its monomial's *other* variables.
            el_nz_prod = np.repeat(seg_nz_prod, self.lengths)
            el_zeros = np.repeat(seg_zeros, self.lengths)
            others = np.where(
                el_zeros == 0,
                el_nz_prod / nz_vals,
                np.where((el_zeros == 1) & zero, el_nz_prod, 0.0),
            )
            # A monomial with a zero factor is 0; the rest are products
            # of the same factors in the same order as in values().
            prods = np.where(seg_zeros == 0, seg_nz_prod, 0.0)
        width = self.nvars + 1
        grads = np.bincount(
            self._grad_index, weights=self._el_coef * others, minlength=len(self) * width
        ).reshape(len(self), width)
        return self._values(prods), grads[:, : self.nvars]  # sentinel column: d/d(1)


def poly_eval(p: SymPoly, theta) -> float:
    """Value of p at theta (length must equal nvars)."""
    return PolyStack([p], p.nvars).values(theta)[0]


def poly_grad(p: SymPoly, theta) -> np.ndarray:
    """Exact gradient of p at theta."""
    return PolyStack([p], p.nvars).gradients(theta)[1][0]


def poly_to_text(p: SymPoly, var_prefix: str = "p") -> str:
    """Human-readable rendering with sorted monomials, e.g. ``0.4*p1 + 0.6*p0*p1``."""
    if not p.coeffs:
        return "0"
    parts: list[str] = []
    for mono in sorted(p.coeffs, key=lambda m: (len(m), sorted(m))):
        c = p.coeffs[mono]
        factors = [f"{var_prefix}{j}" for j in sorted(mono)]
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


def poly_from_world_flags(program: Program, flags) -> SymPoly:
    """Polynomial ``Σ_w flags[w] · k_w · Π_{j∈w} π_j · Π_{j∉w} (1−π_j)``.

    ``flags[w]`` marks the contributing worlds (by world index); the
    result is over the program's learnable parameters in declaration
    order, in canonical monomial form.
    """
    wm = world_models(program)
    patterns, k_w = wm.support_arrays()
    nvars = len(program.learnable_indices())
    mask = np.asarray(flags, dtype=bool)
    if mask.shape != patterns.shape:
        raise ValueError(f"expected {patterns.shape[0]} world flags, got {mask.shape}")

    arr = np.zeros(1 << nvars)
    np.add.at(arr, patterns[mask], k_w[mask])
    for k in range(nvars):
        arr = arr.reshape(-1, 2, 1 << k)
        arr[:, 1, :] -= arr[:, 0, :]
    arr = arr.reshape(-1)
    coeffs: dict[frozenset, float] = {}
    for t in np.nonzero(np.abs(arr) >= COEFF_EPS)[0]:
        mono = frozenset(k for k in range(nvars) if t >> k & 1)
        coeffs[mono] = float(arr[t])
    return SymPoly(nvars, coeffs)


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
