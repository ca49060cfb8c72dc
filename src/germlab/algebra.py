"""The finite-dimensional convolution *-algebra of a finite groupoid.

Functions on arrows convolve by summing over factorizations; the involution
conjugates values along inverses.  The norm is the largest operator norm of
the blocks of the regular representation, one block per unit acting on the
functions supported on that unit's source fiber.  In finite dimensions the
full and reduced algebras coincide, so this single norm realizes both.

Convolution and the regular representation read each unit's matrix of
the arrows a b^-1 over its d-fiber from ``FiniteGroupoid.fibers_by_size``,
and refuse, as the norm does, an arrow whose source is not a listed unit,
which is in no fiber.  A block is one gather of f's values through that
matrix, and the involution, the extension by zero and the conditional
expectation are single gathers or scatters.

Convolution runs per d-fiber.  A factorization c = a b with d(c) = x has
b in the fiber d^-1(x) and a = c b^-1, so on that fiber f g is the fiber
matrix [f(c b^-1)], rows c and columns b, times g restricted to the fiber:
one matrix-vector product per unit, which numpy runs as one stacked ``@``
per fiber size (``FiniteGroupoid.fibers_by_size``) and BLAS computes.  Its
sums run in another order than a scalar loop over ``comp`` doing
``out[c] += f[a] * g[b]``.  On the seeded samples, whose values are
Gaussian integers, that does not matter: every product and partial sum is
an integer far below 2^53, so both are exact and agree to the last bit,
the sign of zero included.  On other values each is within the
dot-product bound gamma_(s+2) sum |f(a)| |g(b)| of the exact sum, s the
fiber size (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
sections 3.1 and 3.6).

Every operation also takes a stack of functions: ``values`` of shape
(k, n), one function per row, where a 1-D array is one function.  A stack
convolves with the same stacked products, one per function and unit, and
the involution, the embedding and the expectation are single gathers over
the stack, so every row equals the 1-D result.

``reduced_norm`` reads one block per orbit of units, the block of the
orbit's least unit (``FiniteGroupoid.orbit_units``).  The blocks of one
orbit are permutation-similar: an arrow g with d(g) = v and r(g) = u maps
the fiber d^-1(u) onto d^-1(v) by a -> a g, and (a g)(b g)^-1 = a b^-1, so
the block at v is the block at u with its rows and columns permuted alike.
Permutation matrices are unitary, so the two blocks have the same singular
values.  Rounding meets the permuted matrix in another order, though, and
its computed top singular value can differ in the last bits: the norm
equals the maximum over all units only to within a few ulps.

The isotropy splits each representative's block further.  Right translation
a -> a g by an arrow g of the isotropy group G_x permutes the fiber d^-1(x)
and keeps every a b^-1, so it commutes with the block.
``FiniteGroupoid.fiber_stacks`` takes g of largest order o and lists the
fiber, of size s, as r = s / o right cosets c_p <g>; in the order c_p g^j
the block has f(c_p g^(j-l) c_q^-1) at ((p, j), (q, l)), an r x r matrix of
o x o circulants.  The unitary DFT along j turns every circulant into a
diagonal, so the block is unitarily similar to the direct sum over t of the
r x r matrices B_t[p, q] = sum_j f(c_p g^j c_q^-1) w^(jt), with
w = exp(-2 pi i / o), and its norm is the largest of theirs.

Not every B_t is needed.  Right translation by any h in G_x commutes with
the block too, and if h^-1 g h = g^k it maps the eigenspace of right
translation by g that carries B_t onto the one that carries B_(kt), so
B_t and B_(kt) are unitarily equivalent and have one norm (Clifford
theory; Serre, *Linear Representations of Finite Groups*, 1977, section
8).  ``fiber_stacks`` keeps the least t of each class {k t mod o}, k over
the exponents that G_x conjugates g to.  Every element of a symmetric
group is conjugate to its inverse, so there t and -t share a class.  One
(kept, o) @ (o, r r) product per function and orbit, the kept rows of the
cached symmetric matrix ``_dft(o)`` times the orbit's entries with j along
the rows, computes the kept blocks with BLAS and leaves each contiguous.
The product is not taken across the rows of a stack: BLAS rounds a
product with one column (gemv) and one with many (gemm) differently (on
``group:z3``'s order-3 DFT they differ in the last bit), so a row's norm
would depend on how many rows share its call.  The kept blocks' norms
equal the skipped ones' exactly in exact arithmetic, and to a few ulps
computed: rounding meets unitarily equivalent matrices in another order.

When r = 1 the blocks are 1 x 1 and their norms are moduli (G_x is then
cyclic, so every class is one t).  So ``group:z70``'s one 70x70 block is
70 moduli and a unit alone in its orbit with trivial isotropy one
modulus.  ``symmetric:4``'s 24x24 blocks split into 3 of 6x6 (g of order
4, t = 1 and 3 in one class) or 2 of 8x8 (order 3, t = 1 and 2 in one
class), and ``symmetric:5``'s 120x120 block at the unit with isotropy
S5 into 4 of 20x20 (order 6, classes {0}, {1, 5}, {2, 4} and {3}), not 6.
Otherwise each B_t's norm is sqrt(max(lambda_max(B_t^* B_t), 0)), the top eigenvalue
of its Gram matrix: one stacked product per stack of ``fiber_stacks`` and
chunk of rows forms the Gram matrices, and one ``np.linalg.eigvalsh`` call takes their
eigenvalues.  On ``symmetric:4``'s 100-row stacks that is about 2, 4 and
5 us per 4x4, 6x6 and 8x8 matrix, against 4, 8 and 9 us for
``np.linalg.svd(compute_uv=False)`` (one core of a 2-core x86-64 host,
OpenBLAS 0.3.31).  The computed Gram matrix is within gamma_r |B|^* |B|
of the exact one entrywise (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2002, section 3.5), so within r gamma_r ||B||^2 in norm;
``eigvalsh`` is backward stable, and by Weyl's inequality no eigenvalue
moves further than the perturbation's norm.  So the computed lambda_max
is ||B||^2 (1 + O(r u)), u the unit roundoff, and its square root keeps
that relative bound, as the SVD's top value does.  The small eigenvalues
carry the same absolute error and so lose their relative accuracy, but
only the top one is read.  The Gram matrix squares the values, so each
row is first scaled by the power of 2 that puts its largest modulus in
[1/2, 1), and its norms scaled back: unscaled, moduli above about 1e154
overflow it and moduli below about 1e-154 lose digits to underflow.  A
power of 2 scales every rounding step exactly, so the scaling changes no
norm otherwise.  The clamp at 0 keeps the norm of a zero block 0.0,
should ``eigvalsh`` round its zero below 0.  numpy runs a stacked product
matrix by matrix, each as a single product of that shape runs, and LAPACK
on each matrix of a stack, on the same copy of it that a single call
makes; all matrices of a block shape have one shape, so a stack's norms
equal those of single calls bit for bit.

Stacks run in ``semigroups.chunks`` of rows whose largest temporary holds
about ``CHUNK_ENTRIES`` values, 2^15 complex values or 512 KB, so the
memory a stack adds is bounded; a 100-row convolution on ``group:z70``'s
70x70 fiber runs in 17 chunks.  Chunking changes no result, since every
row is computed on its own.

The algebra suite takes no samples and no norms: each of its identities
is certified on the index arrays: ``star_representation_defect`` and
``embedding_defect``, cached per subject by ``extensions.Subject``, their
corollaries (the expectation among them) and ``faithfulness_defect``.
``random_functions`` draws Gaussian integers, parts in [-3, 3], from
``SplitMix64``, a counter-based generator in uint64 array arithmetic
(Steele, Lea and Flood, OOPSLA 2014), for the tests and the benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .actions import EmbeddedSubgroupoid
from .errors import GroupoidMismatch, HypothesisFailed, StructureError
from .groupoids import FiniteGroupoid, is_group_bundle
from .semigroups import chunks, distinct, first_index


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


def _same_groupoid(f: GroupoidFunction, g: GroupoidFunction) -> None:
    if f.groupoid is not g.groupoid:
        raise GroupoidMismatch("functions live on different groupoids")


def delta(G: FiniteGroupoid, arrow: int) -> GroupoidFunction:
    v = np.zeros(G.n_arrows, dtype=np.complex128)
    v[arrow] = 1.0
    return GroupoidFunction(G, v)


def _require_listed_sources(G: FiniteGroupoid) -> None:
    """Raise the first arrow whose source is not a listed unit: it is in no fiber."""
    hit = first_index(~G.unit_mask[G.d])
    if hit is not None:
        raise StructureError(f"arrow {hit[0]} has source {G.d[hit]}, which is not a listed unit")


def convolve(f: GroupoidFunction, g: GroupoidFunction) -> GroupoidFunction:
    """(f g)(c) sums f(a) g(b) over the factorizations c = a b, row by row."""
    _same_groupoid(f, g)
    if f.values.shape != g.values.shape:
        raise StructureError("convolution needs two functions or two stacks of one size")
    G = f.groupoid
    _require_listed_sources(G)
    fv, gv = np.atleast_2d(f.values), np.atleast_2d(g.values)
    out = np.empty(fv.shape, dtype=np.complex128)
    for fibers, idx in G.fibers_by_size:      # (m, s) fibers, (m, s, s) matrices [c b^-1]
        for rows in chunks(len(fv), idx.size):
            part = out[rows]
            part[:, fibers] = (fv[rows].take(idx, axis=1)
                               @ gv[rows].take(fibers, axis=1)[..., None])[..., 0]
    return GroupoidFunction(G, out.reshape(f.values.shape))


def involution(f: GroupoidFunction) -> GroupoidFunction:
    G = f.groupoid
    return GroupoidFunction(G, np.conj(f.values.take(G.inv, axis=-1)))


@dataclass
class RegularRepresentation:
    """Per unit, the matrix of convolution acting on that unit's source fiber."""

    groupoid: FiniteGroupoid
    blocks: tuple[np.ndarray, ...]          # (s, s), or (k, s, s) for a stack


def regular_representation(G: FiniteGroupoid, f: GroupoidFunction
                           ) -> RegularRepresentation:
    if f.groupoid is not G:
        raise GroupoidMismatch("function lives on a different groupoid")
    _require_listed_sources(G)
    stacks = {fibers.shape[1]: iter(np.moveaxis(f.values.take(idx, axis=-1), -3, 0))
              for fibers, idx in G.fibers_by_size}     # each size's units in units order
    size = np.bincount(G.d, minlength=G.n_arrows)[G.units]
    return RegularRepresentation(G, tuple(next(stacks[s]) for s in size.tolist()))


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
    per row of a stack.  One block per orbit, split into o blocks of r x r,
    of which one per class of conjugate characters is computed (the others
    have the same norms; see ``FiniteGroupoid.fiber_stacks``) by one
    product with the kept DFT rows per function and orbit; per stack and
    chunk of rows, one stacked Gram product and one ``eigvalsh`` call, whose
    top eigenvalues are the squared norms, or moduli when r = 1.  Each row is
    scaled exactly by a power of 2 first, so the Gram matrices neither
    over- nor underflow."""
    if f.groupoid is not G:
        raise GroupoidMismatch("function lives on a different groupoid")
    _require_listed_sources(G)
    fv = np.atleast_2d(f.values)
    # 2^-e puts a row's largest modulus in [1/2, 1); e >= -1021 keeps 2^-e
    # finite for a row of subnormal values
    e = np.maximum(np.frexp(np.abs(fv).max(axis=1, initial=0.0))[1], -1021)
    fv = fv * np.ldexp(1.0, -e)[:, None]
    norms = np.zeros(len(fv))
    for idx, kept, _ in G.fiber_stacks:     # (orbits, r, r, o) per (r, o, kept)
        orbits, r, _, o = idx.shape
        idx, dft = idx.transpose(0, 3, 1, 2), _dft(o)[kept]
        for rows in chunks(len(fv), idx.size):
            blocks = fv[rows].take(idx, axis=1)         # (rows, orbits, o, r, r)
            if o > 1:       # one (kept, o) @ (o, r r) product per function and orbit
                blocks = (dft @ blocks.reshape(-1, o, r * r)).reshape(-1, orbits, len(kept), r, r)
            if r == 1:
                top = np.abs(blocks[..., 0, 0])
            else:
                gram = blocks.conj().swapaxes(-1, -2) @ blocks
                top = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))
            np.maximum(norms[rows], top.max(axis=(1, 2)), out=norms[rows])
    norms = np.ldexp(norms, e)
    return float(norms[0]) if f.values.ndim == 1 else norms


def star_representation_defect(G: FiniteGroupoid) -> str | None:
    """Why the blocks that ``reduced_norm`` reads are not a faithful
    *-representation of the convolution algebra, or None: the certificate
    of the C*-identity, of associativity and of anti-multiplicativity.

    At each representative x of ``fiber_stacks``, in ``orbit_units`` order,
    the block of f is M(f) = [f(M[a, b])] over the fiber, with
    M[(p, j), (q, l)] = I[p, q, (j - l) mod o].  So each condition on M
    depends on (p, q, t, u, v) only, and is checked on I:

    - every entry is an arrow;
    - star: inv I[p, q, u] = I[q, p, -u], so M(f^*) = M(f)^*;
    - multiplicativity: I[p, q, u] I[q, t, v] = I[p, t, u + v] in the
      table, so for a, b, c of the fiber M[a, b] M[b, c] = M[a, c];
    - injective rows: the entries I[p, q, u] over (q, u), row (p, j) of M,
      are distinct.

    Then the s pairs (M[a, b], M[b, c]) over b are distinct factorizations
    of M[a, c], s = r o the fiber size.  Then cover: every arrow is
    indexed, at one representative only (the count below implies it only
    under the unit law, which ``germ.groupoid_axioms`` checks apart).
    Last, complete sum: every arrow has exactly s factorizations in the
    table.  The lower bound holds, so the certificate counts the defined
    entries of the table against the sum of s over the arrows, and counts
    each arrow's only to name one.  Then (M(f) M(g))[a, c] sums f(y) g(z)
    over every factorization y z of M[a, c], which is (f g)(M[a, c]): each
    block is a *-homomorphism, so ||M(f^* f)|| = ||M(f)^* M(f)|| =
    ||M(f)||^2 at every block, and the reduced norm, the largest, satisfies
    ||f^* f|| = ||f||^2 for every f.  By cover the direct sum M of the
    blocks is injective, so (f g) h = f (g h) and (f g)^* = g^* f^* for
    every f, g and h, as their images under M agree.  The checks are
    O(r^3 o^2) gathers per representative, not O(s^3), with no samples and
    no floats.  The witness names the first failing representative,
    condition and index tuple, conditions in order, tuples row-major.
    """
    n, inv, flat = G.n_arrows, G.inv, G.table.reshape(-1)
    owner = np.full(n, -1, dtype=np.intp)        # the representative indexing each arrow
    size = np.zeros(n, dtype=np.intp)            # its fiber size there
    blocks = sorted(((x, I) for stack, _, units in G.fiber_stacks
                     for x, I in zip(units.tolist(), stack)), key=lambda block: block[0])
    for x, I in blocks:
        r, _, o = I.shape
        u = np.arange(o)
        hit = first_index((I < 0) | (I >= n))
        if hit is not None:
            return f"not an arrow at unit {x}: I[{hit[0]},{hit[1]},{hit[2]}] = {I[hit]}"
        hit = first_index(inv[I] != I.transpose(1, 0, 2)[:, :, -u % o])
        if hit is not None:
            p, q, v = hit
            return f"star fails at unit {x}: inv I[{p},{q},{v}] != I[{q},{p},{-v % o}]"
        sums = (u[:, None] + u) % o
        for rows in chunks(r, r * r * o * o):
            # I[p, q, u] I[q, t, v] against I[p, t, u + v], at [p, q, t, u, v]
            prod = flat[I[rows, :, None, :, None] * n + I[None, :, :, None, :]]
            hit = first_index(prod != I[rows, None][:, :, :, sums])
            if hit is not None:
                p, q, t, v, w = hit
                p += rows.start
                return (f"product fails at unit {x}: I[{p},{q},{v}] I[{q},{t},{w}]"
                        f" != I[{p},{t},{(v + w) % o}]")
        row = I.reshape(r, r * o)
        ranked = np.sort(row, axis=1)
        repeats = (ranked[:, 1:] == ranked[:, :-1]).any(axis=1)
        if repeats.any():
            p = int(np.argmax(repeats))
            first: dict[int, int] = {}
            for k, a in enumerate(row[p].tolist()):
                j = first.setdefault(a, k)
                if j != k:
                    return (f"row repeats at unit {x}: I[{p},{j // o},{j % o}] = "
                            f"I[{p},{k // o},{k % o}] = arrow {a}")
        arrows = distinct(I)
        shared = arrows[owner[arrows] >= 0]
        if shared.size:
            a = int(shared[0])
            return f"arrow {a} indexed at units {owner[a]} and {x}"
        owner[arrows], size[arrows] = x, r * o
    hit = first_index(owner < 0)
    if hit is not None:
        return f"arrow {hit[0]} indexed at no representative"
    if np.count_nonzero(G.table >= 0) != size.sum():
        count = np.bincount(G.table[G.table >= 0], minlength=n)
        a = int(np.argmax(count != size))
        return (f"sum incomplete at unit {owner[a]}: arrow {a} has {count[a]} factorizations,"
                f" not {size[a]}")
    return None


def require_bundle(emb: EmbeddedSubgroupoid, *, closed: bool = False) -> None:
    """Raise the first failing bundle hypothesis, then closedness if asked.

    The subgroupoid, normality and closedness tests are the embedding's
    cached ``properties``, so repeated embeddings and expectations do not
    re-run them.
    """
    props = emb.properties
    failed = next((name for name, ok in (
        ("subgroupoid", props.is_subgroupoid), ("open", props.open),
        ("wide", props.wide), ("normal", props.normal),
        ("group bundle", is_group_bundle(emb.groupoid))) if not ok), None)
    if failed is not None:
        raise HypothesisFailed(failed)
    if closed and not props.closed:
        raise HypothesisFailed("closed")


def _map_defect(emb: EmbeddedSubgroupoid) -> str | None:
    """Why t = ``to_parent`` does not map H isomorphically onto the
    subgroupoid's arrows, or None, conditions in this order: bijection
    (every entry is one of those arrows, no two are equal, and each arrow
    is an entry); star, ``G.inv[t] == t[H.inv]``; products,
    ``G.table[t, t] == t[H.table]`` with -1 exactly where H's table is -1.
    """
    G, H, t = emb.parent, emb.groupoid, emb.to_parent
    hit = first_index(~emb.arrows[t])
    if hit is not None:
        return f"H arrow {hit[0]} maps to {t[hit]}, not an arrow of the subgroupoid"
    back = np.full(G.n_arrows, -1, dtype=np.intp)
    back[t] = np.arange(H.n_arrows)
    hit = first_index(back[t] != np.arange(H.n_arrows))
    if hit is not None:
        return f"H arrows {hit[0]} and {back[t[hit]]} both map to {t[hit]}"
    hit = first_index(emb.arrows & (back < 0))
    if hit is not None:
        return f"arrow {hit[0]} of the subgroupoid is the image of no H arrow"
    hit = first_index(G.inv[t] != t[H.inv])
    if hit is not None:
        (h,) = hit
        return f"star fails at H arrow {h}: inv {t[h]} = {G.inv[t[h]]}, not {t[H.inv[h]]}"
    products, image = G.table[np.ix_(t, t)], np.where(H.table >= 0, t[H.table], -1)
    hit = first_index(products != image)
    if hit is not None:
        h, k = hit
        return f"product fails at H arrows ({h},{k}): {products[h, k]} in G, not {image[h, k]}"
    return None


def embedding_defect(emb: EmbeddedSubgroupoid) -> str | None:
    """Why extension by zero from the bundle H into its parent G is not an
    isometric *-homomorphism, or None: the certificate of the embedding.

    After the bundle hypotheses (``require_bundle``), t = ``to_parent``
    maps H isomorphically onto the subgroupoid's arrows (``_map_defect``),
    so ``embed`` writes each value once, embed(f^*) = embed(f)^* and
    embed(f g) = embed(f) embed(g).

    Isometry, at every unit x of G (each stack of ``fibers_by_size``):
    P = back[idx], where back inverts t, is the fiber matrix [a b^-1]
    written in H's arrows, -1 where a b^-1 is not in H.  Then

    - cosets: P >= 0 is the kernel of lead, the first column of each row
      with P >= 0; its classes are the cosets H c in the fiber, and
      P = -1 across them;
    - bijection: on the class of lead l, c -> P[c, l] is a bijection onto
      H's d-fiber at y, the source of those arrows (y = r(l), in H);
    - block: P[a, b] = h k^-1 in H's table inside each class, with
      h = P[a, l] and k = P[b, l];
    - reach: the units of H are exactly the y of the classes.

    So at x the block of embed(f) is [f(h k^-1)] over each class, H's block
    at y with rows and columns permuted alike, and 0 across classes: a
    permuted direct sum of H's blocks.  Its norm is the largest of theirs,
    and since the y are exactly H's units, ||embed(f)|| = ||f|| for every
    f.  All of it is index gathers, with no samples and no floats.
    The witness names the first failure: the conditions on t first, then
    units in ``fibers_by_size`` order, at a unit its first failing
    condition and the first failing pair, row-major, or class, by lead.
    """
    require_bundle(emb)
    defect = _map_defect(emb)
    if defect is not None:
        return defect
    G, H = emb.parent, emb.groupoid
    back = np.full(G.n_arrows, -1, dtype=np.intp)
    back[emb.to_parent] = np.arange(H.n_arrows)
    fiber_size = np.bincount(H.d, minlength=H.n_arrows)
    reached = np.zeros(H.n_arrows, dtype=bool)
    for fibers, idx in G.fibers_by_size:      # (m, s) fibers, (m, s, s) matrices [a b^-1]
        for rows in chunks(len(fibers), idx[0].size):
            P = back[idx[rows]]
            inside = P >= 0
            lead = inside.argmax(axis=2)
            listed = np.take_along_axis(P, lead[..., None], axis=2)[..., 0]    # P[c, lead c]
            y = back[G.r[np.take_along_axis(fibers[rows], lead, axis=1)]]      # r(lead c), in H
            ranked = np.sort(lead * H.n_arrows + listed, axis=1)
            quotient = H.table[listed[:, :, None], H.inv[listed][:, None, :]]
            bad = np.stack((
                (inside != (lead[:, :, None] == lead[:, None, :])).any(axis=(1, 2)),
                ((H.d[listed] != y) | (inside.sum(axis=2) != fiber_size[y])).any(axis=1)
                | (ranked[:, 1:] == ranked[:, :-1]).any(axis=1),
                (inside & (P != quotient)).any(axis=(1, 2))))
            hit = first_index(bad.any(axis=0))
            if hit is not None:
                (i,) = hit
                return _class_defect(G, H, back, fibers[rows][i], P[i], lead[i],
                                     int(np.argmax(bad[:, i])))
            reached[y] = True
    hit = first_index(reached != H.unit_mask)
    if hit is not None:
        (y,) = hit
        return (f"H arrow {y} is a class's range but not a unit of H" if reached[y]
                else f"H unit {y} is reached by no class")
    return None


def _class_defect(G: FiniteGroupoid, H: FiniteGroupoid, back: np.ndarray, fiber: np.ndarray,
                  P: np.ndarray, lead: np.ndarray, condition: int) -> str:
    """The witness of ``embedding_defect`` at the unit of a d-fiber of G,
    from back (G's arrows as H's, -1 off H), the fiber's matrix P of H's
    arrows, each row's lead and the first failing condition: 0 cosets,
    1 bijection, 2 block."""
    x, inside = int(G.d[fiber[0]]), P >= 0
    if condition == 0:
        a, b = first_index(inside != (lead[:, None] == lead))
        where = "in H across classes" if inside[a, b] else "off H inside a class"
        return f"cosets fail at unit {x}: {fiber[a]} {fiber[b]}^-1 is {where}"
    listed = P[np.arange(len(P)), lead]
    if condition == 1:
        for l in np.unique(lead).tolist():
            y = back[G.r[fiber[l]]]
            if not np.array_equal(np.sort(listed[lead == l]), np.flatnonzero(H.d == y)):
                return f"class of {fiber[l]} at unit {x} does not list H's fiber at unit {y}"
    quotient = H.table[listed[:, None], H.inv[listed]]
    a, b = first_index(inside & (P != quotient))
    return (f"class block fails at unit {x}: {fiber[a]} {fiber[b]}^-1 is H arrow {P[a, b]},"
            f" not {quotient[a, b]}")


def embed(emb: EmbeddedSubgroupoid, f: GroupoidFunction) -> GroupoidFunction:
    """Extend a function on an open wide normal group bundle by zero."""
    require_bundle(emb)
    if f.groupoid is not emb.groupoid:
        raise GroupoidMismatch("function must live on the subgroupoid")
    out = np.zeros(f.values.shape[:-1] + (emb.parent.n_arrows,), dtype=np.complex128)
    out[..., emb.to_parent] = f.values
    return GroupoidFunction(emb.parent, out)


def conditional_expectation(emb: EmbeddedSubgroupoid, f: GroupoidFunction
                            ) -> GroupoidFunction:
    """Restrict a function on the parent to the (closed) subgroupoid."""
    require_bundle(emb, closed=True)
    if f.groupoid is not emb.parent:
        raise GroupoidMismatch("function must live on the parent groupoid")
    return GroupoidFunction(emb.groupoid, f.values.take(emb.to_parent, axis=-1))


def faithfulness_defect(emb: EmbeddedSubgroupoid) -> str | None:
    """Why E(f^* f) can vanish on a nonzero f, or None, given the closed
    bundle hypotheses and ``embedding_defect``, by which every source d(y),
    in H by wide, is in ``to_parent``'s image; ``table[inv y, y] == d(y)``
    for every y, and each source u has exactly |d^-1(u)| factorizations
    (two ``bincount``s).  So u's factorizations are the (y^-1, y), and
    (f^* f)(u) = sum of |f(y)|^2 over d(y) = u, read by E, is 0 at every u
    only if f = 0.  The witness names the first failure.
    """
    G = emb.parent
    inverse = G.table[G.inv, np.arange(G.n_arrows)]
    hit = first_index(inverse != G.d)
    if hit is not None:
        y = hit[0]
        return f"inverse law fails at arrow {y}: {G.inv[y]} {y} = {inverse[y]}, not {G.d[y]}"
    count, size = (np.bincount(a, minlength=G.n_arrows) for a in (G.table[G.table >= 0], G.d))
    hit = first_index((size > 0) & (count != size))
    if hit is not None:
        return f"unit {hit[0]} has {count[hit]} factorizations, not {size[hit]}"
    return None


class SplitMix64:
    """A counter-based SplitMix64 stream: word i of the stream with this seed
    is the mix of seed + (i + 1) * 0x9E3779B97F4A7C15, the (i + 1)-th output
    of the sequential generator, so any run of words is one array
    computation.  ``counter`` counts the words drawn so far."""

    def __init__(self, seed: int):
        self.seed = seed % (1 << 64)
        self.counter = 0

    def words(self, count: int) -> np.ndarray:
        """The next count words, as uint64."""
        z = np.arange(self.counter + 1, self.counter + count + 1, dtype=np.uint64)
        self.counter += count
        z = z * 0x9E3779B97F4A7C15 + self.seed
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        return z ^ (z >> 31)

    def gaussian_integers(self, shape: tuple[int, ...]) -> np.ndarray:
        """Complex values a + b i with a, b in [-3, 3], one word each, filled in
        order: a from the word's high 32 bits h, b from its low 32 bits h,
        each as floor(7 h / 2^32) - 3, so each of the 7 parts has
        probability within 2^-32 of 1/7."""
        w = self.words(math.prod(shape)).reshape(shape)
        out = np.empty(shape, dtype=np.complex128)
        out.real = ((w >> 32) * 7 >> 32).astype(np.int64) - 3
        out.imag = ((w & 0xFFFFFFFF) * 7 >> 32).astype(np.int64) - 3
        return out


def random_function(G: FiniteGroupoid, rng: SplitMix64 | np.random.Generator
                    ) -> GroupoidFunction:
    (f,) = random_functions(rng, 1, G)
    return GroupoidFunction(G, f.values[0])


def random_functions(rng: SplitMix64 | np.random.Generator, k: int,
                     *groupoids: FiniteGroupoid) -> tuple[GroupoidFunction, ...]:
    """k rounds of random functions, one on each groupoid per round: one
    stack per groupoid, row i from round i, with Gaussian-integer values.

    rng is a ``SplitMix64``, whose words are drawn in order, so the k rounds
    hold the values of k rounds of ``random_function`` calls.  A numpy
    ``Generator`` also serves: one draw of it seeds a new stream.
    """
    if not isinstance(rng, SplitMix64):
        rng = SplitMix64(int(rng.integers(1 << 63)))
    sizes = [G.n_arrows for G in groupoids]
    raw = rng.gaussian_integers((k, sum(sizes)))
    return tuple(GroupoidFunction(G, v)
                 for G, v in zip(groupoids, np.split(raw, np.cumsum(sizes)[:-1], axis=1)))
