"""The finite-dimensional convolution *-algebra of a finite groupoid.

Functions on arrows convolve by summing over factorizations; the involution
conjugates values along inverses.  The norm is the largest operator norm of
the blocks of the regular representation, one block per unit acting on the
functions supported on that unit's source fiber.  In finite dimensions the
full and reduced algebras coincide, so this single norm realizes both.

Convolution and the regular representation run on index arrays that the
groupoid caches once: the composition triples (A, B, C) with A[i] B[i] =
C[i], in ``comp`` order, and per unit a fiber-by-fiber matrix of the arrows
a b^-1.  A regular-representation block is then one gather of f's values
through that matrix, and the involution, the extension by zero and the
conditional expectation are single gathers or scatters.

Convolution multiplies f[A] by g[B] with the real and imaginary parts kept
apart (re = fr gr - fi gi, im = fr gi + fi gr), then sums each part into
its arrow with ``np.bincount``, which adds in input order.  That is the
arithmetic, and the order, of a scalar loop over ``comp`` doing
``out[c] += f[a] * g[b]``, so the results agree to the last bit.  numpy's
vectorized complex multiply does not: it can round some products
differently, which moves the digits of float witnesses in the reports.

Tolerances: identities that are pure arithmetic are checked to 1e-12;
norm comparisons, which pass through a dense spectral computation, to 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actions import EmbeddedSubgroupoid
from .errors import GroupoidMismatch, HypothesisFailed, StructureError
from .groupoids import (
    FiniteGroupoid,
    is_group_bundle,
    subgroupoid_properties,
)

EXACT_TOL = 1e-12
NORM_TOL = 1e-9


@dataclass
class GroupoidFunction:
    """A complex-valued function on the arrows of a fixed groupoid."""

    groupoid: FiniteGroupoid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.groupoid.n_arrows,):
            raise StructureError("one value per arrow required")

    def close_to(self, other: "GroupoidFunction", tol: float = EXACT_TOL) -> bool:
        _same_groupoid(self, other)
        return bool(np.max(np.abs(self.values - other.values), initial=0.0) <= tol)


def _same_groupoid(f: GroupoidFunction, g: GroupoidFunction) -> None:
    if f.groupoid is not g.groupoid:
        raise GroupoidMismatch("functions live on different groupoids")


def delta(G: FiniteGroupoid, arrow: int) -> GroupoidFunction:
    v = np.zeros(G.n_arrows, dtype=np.complex128)
    v[arrow] = 1.0
    return GroupoidFunction(G, v)


def convolve(f: GroupoidFunction, g: GroupoidFunction) -> GroupoidFunction:
    """(f g)(c) sums f(a) g(b) over the factorizations c = a b."""
    _same_groupoid(f, g)
    G = f.groupoid
    A, B, C = G.comp_triples
    fa, gb = f.values[A], g.values[B]
    out = np.empty(G.n_arrows, dtype=np.complex128)
    out.real = np.bincount(C, fa.real * gb.real - fa.imag * gb.imag, minlength=G.n_arrows)
    out.imag = np.bincount(C, fa.real * gb.imag + fa.imag * gb.real, minlength=G.n_arrows)
    return GroupoidFunction(G, out)


def involution(f: GroupoidFunction) -> GroupoidFunction:
    G = f.groupoid
    return GroupoidFunction(G, np.conj(f.values[G.inv_index]))


@dataclass
class RegularRepresentation:
    """Per unit, the matrix of convolution acting on that unit's source fiber."""

    groupoid: FiniteGroupoid
    fibers: tuple[tuple[int, ...], ...]     # one arrow tuple per unit
    blocks: tuple[np.ndarray, ...]


def regular_representation(G: FiniteGroupoid, f: GroupoidFunction
                           ) -> RegularRepresentation:
    if f.groupoid is not G:
        raise GroupoidMismatch("function lives on a different groupoid")
    fibers = tuple(fiber for fiber, _ in G.fiber_indices)
    blocks = tuple(f.values[idx] for _, idx in G.fiber_indices)
    return RegularRepresentation(G, fibers, blocks)


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value by a dense decomposition (exact to machine precision)."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def reduced_norm(G: FiniteGroupoid, f: GroupoidFunction) -> float:
    rep = regular_representation(G, f)
    return max((spectral_norm(b) for b in rep.blocks), default=0.0)


def _require_hypotheses(emb: EmbeddedSubgroupoid, *, closed: bool = False) -> None:
    """Raise the first failing bundle hypothesis, then closedness if asked.

    The outcome is computed on first use and memoized on the embedding, so
    repeated embeddings and expectations do not re-run the subgroupoid,
    normality and closedness tests.
    """
    if emb.hypotheses is None:
        props = subgroupoid_properties(emb.parent, emb.arrows)
        failed = next((name for name, ok in (
            ("subgroupoid", props.is_subgroupoid), ("open", props.open),
            ("wide", props.wide), ("normal", props.normal)) if not ok), None)
        if failed is None and not is_group_bundle(emb.groupoid):
            failed = "group bundle"
        emb.hypotheses = (failed, props.closed)
    failed, subset_closed = emb.hypotheses
    if failed is not None:
        raise HypothesisFailed(failed)
    if closed and not subset_closed:
        raise HypothesisFailed("closed")


def embed(emb: EmbeddedSubgroupoid, f: GroupoidFunction) -> GroupoidFunction:
    """Extend a function on an open wide normal group bundle by zero."""
    _require_hypotheses(emb)
    if f.groupoid is not emb.groupoid:
        raise GroupoidMismatch("function must live on the subgroupoid")
    out = np.zeros(emb.parent.n_arrows, dtype=np.complex128)
    out[np.asarray(emb.to_parent, dtype=np.intp)] = f.values
    return GroupoidFunction(emb.parent, out)


def conditional_expectation(emb: EmbeddedSubgroupoid, f: GroupoidFunction
                            ) -> GroupoidFunction:
    """Restrict a function on the parent to the (closed) subgroupoid."""
    _require_hypotheses(emb, closed=True)
    if f.groupoid is not emb.parent:
        raise GroupoidMismatch("function must live on the parent groupoid")
    return GroupoidFunction(emb.groupoid, f.values[np.asarray(emb.to_parent, dtype=np.intp)])


def random_function(G: FiniteGroupoid, rng: np.random.Generator,
                    *, integral: bool = False) -> GroupoidFunction:
    if integral:
        v = rng.integers(-3, 4, size=G.n_arrows).astype(np.complex128)
    else:
        v = rng.standard_normal(G.n_arrows) + 1j * rng.standard_normal(G.n_arrows)
    return GroupoidFunction(G, v)
