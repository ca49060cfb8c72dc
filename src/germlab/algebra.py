"""The finite-dimensional convolution *-algebra of a finite groupoid.

Functions on arrows convolve by summing over factorizations; the involution
conjugates values along inverses.  The norm is the largest operator norm of
the blocks of the regular representation, one block per unit acting on the
functions supported on that unit's source fiber.  In finite dimensions the
full and reduced algebras coincide, so this single norm realizes both.

Convolution and the regular representation run on index arrays that the
groupoid caches once: the rows (A, B, C) of ``comp``, A[i] B[i] = C[i],
read off the composition table in column-major order, and per unit a
fiber-by-fiber matrix of the arrows a b^-1, gathered from the table.  A
regular-representation block is then one gather of f's values through that
matrix, and the involution, the extension by zero and the conditional
expectation are single gathers or scatters.

Convolution multiplies f[A] by g[B] with the real and imaginary parts kept
apart (re = fr gr - fi gi, im = fr gi + fi gr), then sums each part into
its arrow with ``np.bincount``, which adds in input order.  That is the
arithmetic, and the order, of a scalar loop over ``comp`` doing
``out[c] += f[a] * g[b]``, so the results agree to the last bit.  numpy's
vectorized complex multiply does not: it can round some products
differently, which moves the digits of float witnesses in the reports.

Every operation also takes a stack of functions: ``values`` of shape
(k, n), one function per row, where a 1-D array is one function.  A stack
convolves with one ``np.bincount`` over the offset index ``row * n + C``:
each row's products still go into its own bins in ``comp`` order, so every
row equals the 1-D result bit for bit.  The involution, the embedding and
the expectation are single gathers over the stack.

``reduced_norm`` reads one block per orbit of units, the block of the
orbit's least unit (``FiniteGroupoid.orbit_units``).  The blocks of one
orbit are permutation-similar: an arrow g with d(g) = v and r(g) = u maps
the fiber d^-1(u) onto d^-1(v) by a -> a g, and (a g)(b g)^-1 = a b^-1, so
the block at v is the block at u with its rows and columns permuted alike.
Permutation matrices are unitary, so the two blocks have the same singular
values.  LAPACK meets the permuted matrix in another order, though, and its
top singular value can differ in the last bits: the norm equals the
maximum over all units only to within a few ulps.

The isotropy splits each representative's block further.  Right translation
a -> a g by an arrow g of the isotropy group G_x permutes the fiber d^-1(x)
and keeps every a b^-1, so it commutes with the block.
``FiniteGroupoid.fiber_stacks`` takes g of largest order o and lists the
fiber, of size s, as r = s / o right cosets c_p <g>; in the order c_p g^j
the block has f(c_p g^(j-l) c_q^-1) at ((p, j), (q, l)), an r x r matrix of
o x o circulants.  The unitary DFT along j turns every circulant into a
diagonal, so the block is unitarily similar to the direct sum over t of the
r x r matrices B_t[p, q] = sum_j f(c_p g^j c_q^-1) w^(jt), with
w = exp(-2 pi i / o), and its norm is the largest of theirs.  One
vector-matrix product per function, orbit and (p, q), a row of o values
times the cached matrix ``_dft(o)``, computes them with BLAS's gemv, which
LAPACK's SVD also calls: the first ``np.fft`` call in a process adds about
0.5 MB of resident memory, and the first gemm about 0.25 MB.  When
r = 1 < o the norms are moduli; otherwise one
``np.linalg.svd(compute_uv=False)`` call per block shape takes the top
singular values, and a trivial G_x (o = 1) hands it the block itself.  So ``group:z70``'s one 70x70 block is 70 moduli,
``symmetric:4``'s 24x24 blocks are 4 of 6x6 or 3 of 8x8, and
``symmetric:5``'s 120x120 blocks 6 of 20x20.  numpy runs a stacked product
as one BLAS call per row, and LAPACK on each matrix of a stack, on the same
copy of it that a single call makes; all rows and matrices of a block shape
have one shape, so a stack's norms equal those of single calls bit for bit.

Stacks run in chunks of rows whose largest temporary holds about
``CHUNK_VALUES`` values, so a chunk's working set stays in cache and the
memory a stack adds is bounded.  Chunking changes no result, since every
row is computed on its own.

Tolerances: identities that are pure arithmetic are checked to 1e-12;
norm comparisons, which pass through a DFT and a dense spectral
computation, to 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
CHUNK_VALUES = 1 << 13      # values in the largest temporary of one chunk of a stack


@dataclass
class GroupoidFunction:
    """A complex-valued function on the arrows of a fixed groupoid, or a
    stack of them: ``values`` is (n_arrows,) or (k, n_arrows)."""

    groupoid: FiniteGroupoid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim not in (1, 2) or self.values.shape[-1] != self.groupoid.n_arrows:
            raise StructureError("one value per arrow required")

    def close_to(self, other: "GroupoidFunction", tol: float = EXACT_TOL
                 ) -> bool | np.ndarray:
        """Whether the values agree to tol: a bool, or one per row of a stack."""
        _same_groupoid(self, other)
        ok = np.max(np.abs(self.values - other.values), axis=-1, initial=0.0) <= tol
        return bool(ok) if ok.ndim == 0 else ok


def _same_groupoid(f: GroupoidFunction, g: GroupoidFunction) -> None:
    if f.groupoid is not g.groupoid:
        raise GroupoidMismatch("functions live on different groupoids")


def _chunks(k: int, width: int):
    """Row slices of a k-row stack, each about CHUNK_VALUES / width rows."""
    step = max(1, CHUNK_VALUES // max(width, 1))
    return (slice(lo, lo + step) for lo in range(0, k, step))


def delta(G: FiniteGroupoid, arrow: int) -> GroupoidFunction:
    v = np.zeros(G.n_arrows, dtype=np.complex128)
    v[arrow] = 1.0
    return GroupoidFunction(G, v)


def convolve(f: GroupoidFunction, g: GroupoidFunction) -> GroupoidFunction:
    """(f g)(c) sums f(a) g(b) over the factorizations c = a b, row by row."""
    _same_groupoid(f, g)
    if f.values.shape != g.values.shape:
        raise StructureError("convolution needs two functions or two stacks of one size")
    G = f.groupoid
    n = G.n_arrows
    A, B, C = G.comp.T
    fv, gv = f.values.reshape(-1, n), g.values.reshape(-1, n)
    out = np.empty(fv.shape, dtype=np.complex128)
    offset = None
    for rows in _chunks(len(fv), len(C)):
        fa, gb = fv[rows].take(A, axis=1), gv[rows].take(B, axis=1)
        m = len(fa)
        if offset is None:      # the first chunk is the longest; one row needs no offset
            offset = C if m == 1 else (np.arange(m)[:, None] * n + C).ravel()
        bins = offset[:m * len(C)]
        part = out[rows]
        part.real = np.bincount(bins, (fa.real * gb.real - fa.imag * gb.imag).ravel(),
                                minlength=m * n).reshape(m, n)
        part.imag = np.bincount(bins, (fa.real * gb.imag + fa.imag * gb.real).ravel(),
                                minlength=m * n).reshape(m, n)
    return GroupoidFunction(G, out.reshape(f.values.shape))


def involution(f: GroupoidFunction) -> GroupoidFunction:
    G = f.groupoid
    return GroupoidFunction(G, np.conj(f.values.take(G.inv, axis=-1)))


@dataclass
class RegularRepresentation:
    """Per unit, the matrix of convolution acting on that unit's source fiber."""

    groupoid: FiniteGroupoid
    fibers: tuple[tuple[int, ...], ...]     # one arrow tuple per unit
    blocks: tuple[np.ndarray, ...]          # (s, s), or (k, s, s) for a stack


def regular_representation(G: FiniteGroupoid, f: GroupoidFunction
                           ) -> RegularRepresentation:
    if f.groupoid is not G:
        raise GroupoidMismatch("function lives on a different groupoid")
    fibers = tuple(fiber for fiber, _ in G.fiber_indices)
    blocks = tuple(f.values.take(idx, axis=-1) for _, idx in G.fiber_indices)
    return RegularRepresentation(G, fibers, blocks)


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value by a dense decomposition (exact to machine precision)."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


@lru_cache(maxsize=None)
def _dft(o: int) -> np.ndarray:
    """The o x o matrix exp(-2 pi i (j t mod o) / o) over rows j, columns t,
    exact at the quarter turns (4 j t = 0 mod o): 1, -i, -1 and i."""
    turns = [(1, -1j, -1, 1j)[4 * k // o] if 4 * k % o == 0
             else complex(math.cos(2 * math.pi * k / o), -math.sin(2 * math.pi * k / o))
             for k in range(o)]
    return np.array(turns)[np.arange(o)[:, None] * np.arange(o) % o]


def reduced_norm(G: FiniteGroupoid, f: GroupoidFunction) -> float | np.ndarray:
    """The largest block norm of the regular representation: a float, or one
    per row of a stack.  One block per orbit, split into o blocks of r x r by
    one DFT along its circulant axis; one SVD call per block shape and chunk
    of rows, or moduli when r = 1 < o."""
    if f.groupoid is not G:
        raise GroupoidMismatch("function lives on a different groupoid")
    fv = f.values.reshape(-1, G.n_arrows)
    norms = np.zeros(len(fv))
    for idx in G.fiber_stacks:      # (orbits, r, r, o) per shape
        _, r, _, o = idx.shape
        for rows in _chunks(len(fv), idx.size):
            blocks = fv[rows].take(idx, axis=1)
            if o > 1:       # one vector-matrix product per function, orbit and (p, q)
                blocks = (blocks[..., None, :] @ _dft(o))[..., 0, :]
            blocks = np.moveaxis(blocks, -1, 2)         # (rows, orbits, o, r, r)
            if r == 1 and o > 1:
                top = np.abs(blocks[..., 0, 0])
            else:
                top = np.linalg.svd(blocks, compute_uv=False)[..., 0]
            np.maximum(norms[rows], top.max(axis=(1, 2)), out=norms[rows])
    return float(norms[0]) if f.values.ndim == 1 else norms


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
    out = np.zeros(f.values.shape[:-1] + (emb.parent.n_arrows,), dtype=np.complex128)
    out[..., np.asarray(emb.to_parent, dtype=np.intp)] = f.values
    return GroupoidFunction(emb.parent, out)


def conditional_expectation(emb: EmbeddedSubgroupoid, f: GroupoidFunction
                            ) -> GroupoidFunction:
    """Restrict a function on the parent to the (closed) subgroupoid."""
    _require_hypotheses(emb, closed=True)
    if f.groupoid is not emb.parent:
        raise GroupoidMismatch("function must live on the parent groupoid")
    return GroupoidFunction(emb.groupoid,
                            f.values.take(np.asarray(emb.to_parent, dtype=np.intp), axis=-1))


def random_function(G: FiniteGroupoid, rng: np.random.Generator,
                    *, integral: bool = False) -> GroupoidFunction:
    (f,) = random_functions(rng, 1, G, integral=integral)
    return GroupoidFunction(G, f.values[0])


def random_functions(rng: np.random.Generator, k: int, *groupoids: FiniteGroupoid,
                     integral: bool = False) -> tuple[GroupoidFunction, ...]:
    """k rounds of random functions, one on each groupoid per round, drawn in
    one generator call: one stack per groupoid, row i from round i.

    A function's values are integers in [-3, 3], or standard normal real
    parts followed by standard normal imaginary parts.  The generator fills
    its output in order, so the (k, width) draw holds the same numbers as k
    rounds of ``random_function`` calls.
    """
    span = 1 if integral else 2         # draws per arrow
    widths = [span * G.n_arrows for G in groupoids]
    if integral:
        raw = rng.integers(-3, 4, size=(k, sum(widths))).astype(np.complex128)
    else:
        raw = rng.standard_normal((k, sum(widths)))
    out, lo = [], 0
    for G, w in zip(groupoids, widths):
        v, n = raw[:, lo:lo + w], G.n_arrows
        out.append(GroupoidFunction(G, v if integral else v[:, :n] + 1j * v[:, n:]))
        lo += w
    return tuple(out)
