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

Polynomials are immutable after construction; evaluation and gradient
use cached flat numpy arrays (a segment per monomial, reduced with
``np.multiply.reduceat``).  Gradients are exact: each partial is the
polynomial with its variable removed, handled with explicit zero
accounting so that θ components equal to 0 still differentiate
correctly.
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
        """(coefs, flat var indices, segment offsets, segment lengths)."""
        if self._cache is None:
            order = sorted(self.coeffs, key=lambda m: (len(m), sorted(m)))
            coefs = np.array([self.coeffs[m] for m in order], dtype=float)
            flat: list[int] = []
            offsets: list[int] = []
            for mono in order:
                offsets.append(len(flat))
                # Sentinel index nvars (value pinned to 1.0) keeps the
                # constant monomial's segment non-empty for reduceat.
                flat.extend(sorted(mono) or [self.nvars])
            lengths = np.diff(offsets + [len(flat)])
            self._cache = (
                coefs,
                np.array(flat, dtype=np.intp),
                np.array(offsets, dtype=np.intp),
                lengths,
            )
        return self._cache

    def __str__(self) -> str:
        return poly_to_text(self)


def poly_eval(p: SymPoly, theta) -> float:
    """Value of p at theta (length must equal nvars)."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (p.nvars,):
        raise ValueError(f"expected theta of length {p.nvars}, got {theta.shape}")
    if not p.coeffs:
        return 0.0
    coefs, flat, offsets, _ = p._arrays()
    ext = np.append(theta, 1.0)
    prods = np.multiply.reduceat(ext[flat], offsets)
    return float(coefs @ prods)


def poly_grad(p: SymPoly, theta) -> np.ndarray:
    """Exact gradient of p at theta."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (p.nvars,):
        raise ValueError(f"expected theta of length {p.nvars}, got {theta.shape}")
    grad = np.zeros(p.nvars + 1)
    if not p.coeffs:
        return grad[: p.nvars]
    coefs, flat, offsets, lengths = p._arrays()
    ext = np.append(theta, 1.0)
    vals = ext[flat]
    zero = vals == 0.0
    nz_vals = np.where(zero, 1.0, vals)
    seg_nz_prod = np.multiply.reduceat(nz_vals, offsets)
    seg_zeros = np.add.reduceat(zero.astype(np.int64), offsets)
    # Per flat element: product of its monomial's *other* variables.
    el_nz_prod = np.repeat(seg_nz_prod, lengths)
    el_zeros = np.repeat(seg_zeros, lengths)
    el_coef = np.repeat(coefs, lengths)
    others = np.where(
        el_zeros == 0,
        el_nz_prod / nz_vals,
        np.where((el_zeros == 1) & zero, el_nz_prod, 0.0),
    )
    np.add.at(grad, flat, el_coef * others)
    return grad[: p.nvars]  # sentinel slot holds d/d(1), discarded


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


def poly_from_world_flags(program: Program, flags, cap: int | None = None) -> SymPoly:
    """Polynomial ``Σ_w flags[w] · k_w · Π_{j∈w} π_j · Π_{j∉w} (1−π_j)``.

    ``flags[w]`` marks the contributing worlds (by world index); the
    result is over the program's learnable parameters in declaration
    order, in canonical monomial form.
    """
    wm = world_models(program, cap)
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


def extract_poly(program: Program, q: Query, bound: str, cap: int | None = None) -> SymPoly:
    """Symbolic lower/upper probability of a query.

    ``bound`` is ``"lower"`` or ``"upper"``.  Worlds contribute to the
    upper bound when some answer set satisfies the query, to the lower
    bound when all do.  Raises :class:`InconsistentWorld` if a world has
    no answer set.
    """
    if bound not in ("lower", "upper"):
        raise ValueError(f"bound must be 'lower' or 'upper', got {bound!r}")
    wm = world_models(program, cap)
    all_sat, some_sat = wm.satisfaction(q)
    flags = all_sat if bound == "lower" else some_sat
    return poly_from_world_flags(program, flags, cap)
