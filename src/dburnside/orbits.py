"""Orbits of automorphisms on pairs of basis labels, one Mackey product each.

The products u∘w of u in kB(H, G) and w in kB(G, H) repeat along a group
action (Bouc, Biset Functors for Finite Groups, LNM 1990, §2.3): composing
with isomorphism bisets gives, for β, β' in Aut(H) and α in Aut(G),

    ((β×α)L) ∘ ((α×β')M) = (β×β')(L∘M),      (L∘M)^op = M^op ∘ L^op.

Inner automorphisms fix every label, so Out(H) × Out(G) × Out(H), with the
opposite, acts on the pairs.  The middle α leaves the product unchanged, and
the outer β, β' and the opposite move its kB(H, H) labels by a permutation.
So :class:`PairOrbits` computes one Mackey product per orbit and relabels it
for every other pair of the orbit, and it names each class of pairs under
the middle α alone by its least pair, so that a reader of the products
keeps one pair per class by comparing each pair with its class.

Everything is read off label permutations: each generator of Out(H) or
Out(G) (``lattice.outer_automorphism_generators``) is turned once into a
permutation of the basis indices of kB(H, G) and of kB(H, H) on the left,
the other sides are read through the opposite, the groups they generate are
listed as rows of images, and canonical forms of pairs are computed for whole
arrays of pairs at once.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from . import errors
from .bisets import BisetSpace, mackey_tuples, op_indices
from .lattice import canonical, outer_automorphism_generators

Items = Tuple[Tuple[int, int], ...]  # sorted (basis index, multiplicity)

# a listed group has at most this many elements, and at most this many
# images of basis indices in all
_GROUP_ORDER = 1024
_GROUP_CELLS = 1 << 21
_CHUNK = 1 << 11  # pairs per vectorised step


def _label_permutation(sp: BisetSpace, left: Sequence[int],
                       right: Sequence[int]) -> np.ndarray:
    """Basis index of the image of each basis label of kB(X, Y) under the
    automorphism ``left`` × ``right`` of X × Y."""
    yn = len(right)
    image = [a * yn + b for a in left for b in right]
    index = sp.basis_index()
    out = np.empty(len(sp.basis()), np.int64)
    for i, L in enumerate(sp.basis()):
        errors.budget.check("pair orbits")
        out[i] = index[canonical(sp.product, [image[x] for x in L])]
    return out


class _Group:
    """The group generated by permutations of a few index sets at once, each
    generator one permutation per set.  ``blocks[i]`` lists the images of
    set i under each element, breadth-first from the identity (row 0);
    ``mul[a, b]`` is the row of a∘b (b applied first) and ``inv[a]`` that
    of a^-1.

    A generator that would make the list longer than ``_GROUP_ORDER``
    elements or ``_GROUP_CELLS`` images in all is left out, so the list may
    be a subgroup: orbits under a subgroup are finer but still orbits.
    """

    def __init__(self, sizes: Sequence[int],
                 generators: Iterable[Sequence[np.ndarray]]):
        ends = np.cumsum(sizes)
        starts = ends - sizes
        elements = np.arange(ends[-1])[None, :]
        self.mul = np.zeros((1, 1), np.int64)
        kept: List[np.ndarray] = []
        for perms in generators:
            g = np.concatenate([p + s for p, s in zip(perms, starts)])
            if (elements == g).all(axis=1).any():
                continue  # already in the group
            listed = self._close(kept + [g], min(_GROUP_ORDER,
                                                 _GROUP_CELLS // ends[-1]))
            if listed is not None:
                kept.append(g)
                elements, self.mul = listed
        self.inv = np.argmax(self.mul == 0, axis=1)
        self.blocks = [(elements[:, s:e] - s).astype(np.int32)
                       for s, e in zip(starts, ends)]

    @staticmethod
    def _close(gens: List[np.ndarray], cap: int):
        elems = [np.arange(len(gens[0]))]
        found = {elems[0].tobytes(): 0}
        parent, via = [0], [0]
        left = [[] for _ in gens]  # left[k][e]: the row of gens[k]∘elems[e]
        e = 0
        while e < len(elems):
            for k, g in enumerate(gens):
                h = g[elems[e]]
                j = found.setdefault(h.tobytes(), len(elems))
                if j == len(elems):
                    if j >= cap:
                        return None
                    elems.append(h)
                    parent.append(e)
                    via.append(k)
                left[k].append(j)
            e += 1
        table = np.array(left)
        mul = np.empty((len(elems), len(elems)), np.int64)
        mul[0] = np.arange(len(elems))
        for e in range(1, len(elems)):
            mul[e] = table[via[e]][mul[parent[e]]]
        return np.array(elems), mul


class _Diagonal:
    """Canonical forms of pairs (x, y) under a group acting on both points,
    its elements given as rows of images ``on_x`` and ``on_y``.

    The form takes x to the least point x0 of its orbit, by the first
    element a that does, and then a·y to its least image y0 under the
    stabilizer of x0, by its element s; ``__call__`` returns x0, y0, a, s.
    """

    def __init__(self, on_x: np.ndarray, on_y: np.ndarray):
        self.on_y = on_y
        self.first = on_x.argmin(axis=0)
        self.least = on_x.min(axis=0)
        self.row = np.full(on_x.shape[1], -1)
        least_y, by = [], []
        for x0 in _distinct(self.least).tolist() if len(on_x) > 1 else ():
            stab = np.flatnonzero(on_x[:, x0] == x0)
            if len(stab) > 1:
                self.row[x0] = len(by)
                pick = on_y[stab].argmin(axis=0)
                by.append(stab[pick])
                least_y.append(on_y[stab[pick], np.arange(on_y.shape[1])])
        self.least_y = np.array(least_y, np.int32).reshape(-1, on_y.shape[1])
        self.by = np.array(by, np.int32).reshape(-1, on_y.shape[1])

    def __call__(self, x: np.ndarray, y: np.ndarray):
        a = self.first[x]
        x0 = self.least[x]
        y0 = self.on_y[a, y]
        s = np.zeros_like(y0)
        r = self.row[x0]
        moved = r >= 0
        if moved.any():
            r, y1 = r[moved], y0[moved]
            s[moved] = self.by[r, y1]
            y0[moved] = self.least_y[r, y1]
        return x0, y0, a, s


class PairOrbits:
    """The pairs (iu, iw) of basis indices of kB(H, G) × kB(G, H) under
    Out(H) × Out(G) × Out(H) and the opposite, with each orbit's product.

    ``classes`` tells which pairs differ only by the middle Out(G): those
    have the same product, and the least of them is the class's value.
    ``products`` (read by the span) and ``table`` (the rows of the regular
    trace form) both read one append-only orbit table: a row per orbit met
    so far with its product, one Mackey product for one representative.
    A pair's product is its orbit's row relabelled on kB(H, H).
    """

    def __init__(self, sp_hg: BisetSpace, sp_gh: BisetSpace,
                 sp_hh: BisetSpace):
        H, G = sp_hg.left, sp_hg.right
        self.spaces = sp_hg, sp_gh, sp_hh
        self.basis_hg, self.basis_gh = sp_hg.basis(), sp_gh.basis()
        self.index_hh = sp_hh.basis_index()
        # one int object per kB(H, H) index, shared by the items of every
        # product: the span keeps up to hundreds of thousands of them
        self.labels_hh = list(range(len(self.index_hh)))
        nu, nw, nh = len(self.basis_hg), len(self.basis_gh), len(sp_hh.basis())
        self.nw = nw
        op_u = self.op_u = np.array(op_indices(sp_hg, sp_gh))  # to kB(G,H)
        op_w = self.op_w = np.array(op_indices(sp_gh, sp_hg))
        op_h = self.op_h = np.array(op_indices(sp_hh, sp_hh))
        one_h, one_g = range(H.order), range(G.order)
        # Out(H) on the left of kB(H, G) and kB(H, H), and through the
        # opposite, (1×β)L = ((β×1)L^op)^op, on the right of kB(G, H) and
        # kB(H, H); Out(G) on the right of kB(H, G) and so on the left of
        # kB(G, H)
        outer = _Group((nu, nw, nh, nh), (
            (u, op_u[u[op_w]], h, op_h[h[op_h]])
            for u, h in ((_label_permutation(sp_hg, b, one_g),
                          _label_permutation(sp_hh, b, one_h))
                         for b in outer_automorphism_generators(H))))
        middle = _Group((nu, nw), (
            (u, op_u[u[op_w]])
            for u in (_label_permutation(sp_hg, one_h, a)
                      for a in outer_automorphism_generators(G))))
        b_u, b_w, self.b_left, self.b_right = outer.blocks
        self.b_mul = outer.mul
        self.a_u, self.a_w = middle.blocks
        # each label as t·r: r the least of its Out(H)-orbit, t in Out(H)
        self.rep_u, self.t_u = b_u.min(axis=0), outer.inv[b_u.argmin(axis=0)]
        self.rep_w, self.t_w = b_w.min(axis=0), outer.inv[b_w.argmin(axis=0)]
        self.reps_u, self.reps_w = _distinct(self.rep_u), _distinct(self.rep_w)
        self.orbit_u = np.searchsorted(self.reps_u, self.rep_u)
        self.orbit_w = np.searchsorted(self.reps_w, self.rep_w)
        # Out(G) on the Out(H)-orbits
        self.on_orbits = _Diagonal(self.orbit_u[self.a_u[:, self.reps_u]],
                                   self.orbit_w[self.a_w[:, self.reps_w]])
        # the product of each orbit met so far as a row of (kB(H, H) index,
        # multiplicity) pairs, in the order met, and the row of each orbit
        # key x0·|reps_w| + y0 (as ``_canonical`` forms it), -1 if not met
        self._table = np.zeros((0, 1, 2), np.int32)
        self._rows_used = 0
        self._row = np.full(len(self.reps_u) * len(self.reps_w), -1, np.int32)

    # -- orbits ------------------------------------------------------------

    def classes(self, pairs: np.ndarray) -> np.ndarray:
        """A number per pair iu * n + iw (n the dimension of kB(G, H)),
        equal for pairs that differ by Out(G) alone: the least pair of
        their class, x0 * n + y0 with x0 the least of the orbit of iu and
        y0 the least image of iw under the stabilizer of x0."""
        on_labels = _Diagonal(self.a_u, self.a_w)
        out = np.empty(len(pairs), pairs.dtype)
        for s in range(0, len(pairs), _CHUNK):
            iu, iw = np.divmod(pairs[s:s + _CHUNK], self.nw)
            x0, y0, _, _ = on_labels(iu, iw)
            out[s:s + _CHUNK] = x0 * self.nw + y0
        return out

    def _canonical(self, iu: np.ndarray, iw: np.ndarray):
        """(orbit, lam, mu) of each pair before the opposite: its orbit under
        Out(H)×Out(G)×Out(H) and the (λ, μ) with product (λ×μ)(orbit's)."""
        x0, y0, a, s = self.on_orbits(self.orbit_u[iu], self.orbit_w[iw])
        # α = s∘a takes the Out(H)-orbits of iu, iw to those of x0, y0
        v = self.a_u[s, self.a_u[a, self.rep_u[iu]]]
        z = self.a_w[s, self.a_w[a, self.rep_w[iw]]]
        lam = self.b_mul[self.t_u[iu], self.t_u[v]]
        mu = self.b_mul[self.t_w[iw], self.t_w[z]]
        return x0 * len(self.reps_w) + y0, lam, mu

    def canonical(self, pairs: np.ndarray):
        """(orbit, op, lam, mu) per pair: the product of the pair is that of
        its orbit's representative relabelled by λ on the left and μ on the
        right of kB(H, H), then by the opposite where ``op`` is set."""
        iu, iw = np.divmod(pairs, self.nw)
        key, lam, mu = self._canonical(iu, iw)
        key_op, lam_op, mu_op = self._canonical(self.op_w[iw], self.op_u[iu])
        op = key_op < key
        return (np.where(op, key_op, key), op, np.where(op, lam_op, lam),
                np.where(op, mu_op, mu))

    # -- products ------------------------------------------------------------

    def _rows(self, pairs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The product of each pair as a row of two arrays K, C: its kB(H, H)
        indices and their multiplicities, padded with multiplicity 0.

        The orbits of the pairs that the table lacks are appended to it
        first, one Mackey product each, for the orbit's representative;
        every pair's row is then its orbit's row relabelled on kB(H, H).
        """
        orbit, op, lam, mu = self.canonical(pairs)
        new = _distinct(orbit[self._row[orbit] < 0])
        if len(new):
            items, lens = [], []  # the items of all new rows, row by row
            for k in new.tolist():
                errors.budget.check("pair products")
                x0, y0 = divmod(k, len(self.reps_w))
                raw = mackey_tuples(*self.spaces,
                                    self.basis_hg[self.reps_u[x0]],
                                    self.basis_gh[self.reps_w[y0]])
                items += [(self.index_hh[t], c) for t, c in raw.items()]
                lens.append(len(raw))
            n = self._rows_used
            m = n + len(new)
            cap, width, _ = self._table.shape
            if m > cap or max(lens) > width:
                # the capacity at least doubles, so a table of r rows is
                # copied O(log r) times; rows past m stay unwritten, and
                # np.zeros gives pages that cost no memory until written
                grown = np.zeros((max(m, 2 * cap), max(width, max(lens)), 2),
                                 np.int32)
                grown[:n, :width] = self._table[:n]
                self._table = grown
            # every new row in one assignment: item j of row r at (n + r, j)
            start = np.repeat(np.cumsum(lens) - lens, lens)
            self._table[np.repeat(np.arange(n, m), lens),
                        np.arange(len(items)) - start] = items
            self._row[new] = np.arange(n, m)
            self._rows_used = m
        rows = self._table[self._row[orbit]]
        ks = self.b_left[lam[:, None], self.b_right[mu[:, None], rows[..., 0]]]
        return np.where(op[:, None], self.op_h[ks], ks), rows[..., 1]

    def products(self, pairs: np.ndarray) -> Iterator[Items]:
        """The sorted (kB(H, H) index, multiplicity) items of u∘w for each
        pair iu * n + iw, in the order given, a chunk of pairs at a time.

        Chunks start at 64 pairs and double up to ``_CHUNK``, so a reader
        that stops early has had few products computed that it never read.
        """
        s, size = 0, 64
        while s < len(pairs):
            K, C = self._rows(pairs[s:s + size])
            s, size = s + size, min(2 * size, _CHUNK)
            order = np.argsort(K, axis=1)
            K = np.take_along_axis(K, order, axis=1)
            C = np.take_along_axis(C, order, axis=1)
            held = C > 0  # the items of all rows, row by row, then by index
            items = zip(map(self.labels_hh.__getitem__, K[held].tolist()),
                        C[held].tolist())
            for n in held.sum(axis=1).tolist():
                yield tuple(islice(items, n))

    def table(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Per u of kB(H, G), the products u∘w for every w of kB(G, H) as
        the rows w of two arrays K, C, as ``_rows`` gives them."""
        for s in range(0, len(self.basis_hg) * self.nw, self.nw):
            errors.budget.check("trace form")
            yield self._rows(np.arange(s, s + self.nw))


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values (``np.unique`` would import numpy.ma)."""
    v = np.sort(values)
    return v[np.diff(v, prepend=-1) != 0]  # the values are never negative

