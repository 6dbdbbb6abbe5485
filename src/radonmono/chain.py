"""The group generated by integer matrices mod p, as a stabilizer chain.

`StabilizerChain` is the modular engine of `group.modular_group_analysis`.
It keeps no element list: memory grows with the sum of the orbit lengths,
not with the order.  It uses no exact arithmetic: every inverse it holds is
a product of inverses passed to `add`.  The module loads numpy, so `group`
imports it only on the modular path.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import CapExceeded


class _Level:
    """One level of a stabilizer chain: the orbit of the base vector e_base.

    `gens` are the strong generators that fix every earlier base vector,
    with their `inverses`.  `points` maps the key of each orbit vector x to
    its index in the transversal: u[i] is a product of generators moving
    e_base to x, and u_inv[i] its inverse.
    """

    def __init__(self, base: int, ident: np.ndarray, key: bytes):
        self.base = base
        self.gens: list[np.ndarray] = []
        self.inverses: list[np.ndarray] = []
        self.points = {key: 0}
        self.u = ident[None]
        self.u_inv = ident[None]


class StabilizerChain:
    """The group generated by everything passed to `add`, mod p, as a stabilizer chain.

    Matrices are (d, d) int64 arrays with entries in 0..p-1, acting on row
    vectors from the right.  Level i holds the orbit of a standard basis
    vector e_{b_i} under the strong generators that fix e_{b_0}, ...,
    e_{b_{i-1}}; the image of e_b under g is row b of g, so orbits need no
    products beyond the transversal's.  A matrix that fixes every e_b is the
    identity, so there are at most d levels and the order is the product of
    the orbit lengths.  `add` keeps the chain complete (deterministic
    Schreier-Sims, Seress 2003, ch. 4): each level's Schreier generators
    u_x s u_{xs}^-1 are formed as one (N, d, d) batch and sifted together
    through the lower levels; the first nontrivial residue becomes a strong
    generator, and the check resumes at the level where it dropped out.

    Every orbit is taken under a subgroup of the true stabilizer, so the
    product of the orbit lengths never exceeds the order: CapExceeded is
    raised as soon as it passes `cap`, exactly when the order does.  A
    vector is keyed by its bytes cast to the narrowest unsigned type that
    holds p - 1.  `gens` holds only the generators that enlarged the group,
    and `inverses` their inverses; the chain starts from (g, g^-1) `pairs`.
    """

    def __init__(self, p: int, degree: int, cap: int, pairs=()):
        self.p, self.degree, self.cap = p, degree, cap
        self.narrow = np.min_scalar_type(p - 1)
        self.key_type = np.dtype((np.void, degree * self.narrow.itemsize))
        self.ident = np.eye(degree, dtype=np.int64)
        self.levels: list[_Level] = []
        self.gens: list[np.ndarray] = []
        self.inverses: list[np.ndarray] = []
        for pair in pairs:
            self.add([pair])

    @property
    def order(self) -> int:
        return math.prod(len(level.points) for level in self.levels)

    def trivial(self) -> "StabilizerChain":
        return StabilizerChain(self.p, self.degree, self.cap)

    def contains(self, g: np.ndarray) -> bool:
        residue, _, drop = self._sift(g[None], 0)
        return not self._nontrivial(residue, drop)[0]

    def add(self, word) -> None:
        """Extend the group by g, the product of a word of (x, x^-1) pairs; a member changes nothing.

        g^-1 is the reversed product of the inverses.  g joins the top
        level's strong generators; the check of that level's Schreier
        generators then finds what g adds to the stabilizers.
        """
        g = self._product([x for x, _ in word])
        if self.contains(g):
            return
        g_inv = self._product([x_inv for _, x_inv in reversed(word)])
        self.gens.append(g)
        self.inverses.append(g_inv)
        self._insert(g, g_inv, 0, 0)
        self._complete(0)

    def _product(self, mats: list[np.ndarray]) -> np.ndarray:
        return functools.reduce(lambda a, b: a @ b % self.p, mats)

    def _keys(self, vectors: np.ndarray) -> list[bytes]:
        return vectors.astype(self.narrow).view(self.key_type).ravel().tolist()

    def _nontrivial(self, residue: np.ndarray, drop: np.ndarray) -> np.ndarray:
        return (drop < len(self.levels)) | (residue != self.ident).any(axis=(1, 2))

    def _sift(self, h: np.ndarray, start: int, h_inv: np.ndarray | None = None):
        """Strip a batch through the levels from `start` on.

        Returns the residues, their inverses when `h_inv` gives those of h
        (else None), and per element the first level whose orbit misses its
        base image (len(levels) when it passes them all).
        """
        p = self.p
        h = h.copy()
        h_inv = None if h_inv is None else h_inv.copy()
        drop = np.full(len(h), len(self.levels))
        active = np.arange(len(h))
        for i in range(start, len(self.levels)):
            if not active.size:
                break
            level = self.levels[i]
            where = [level.points.get(key, -1) for key in self._keys(h[active, level.base])]
            where = np.array(where, dtype=np.int64)
            drop[active[where < 0]] = i
            active, where = active[where >= 0], where[where >= 0]
            h[active] = h[active] @ level.u_inv[where] % p
            if h_inv is not None:
                h_inv[active] = level.u[where] @ h_inv[active] % p
        return h, h_inv, drop

    def _insert(self, s: np.ndarray, s_inv: np.ndarray, first: int, last: int) -> None:
        """Make s a strong generator of the levels first..last, opening level last if new."""
        if last == len(self.levels):
            base = next(b for b in range(self.degree) if (s[b] != self.ident[b]).any())
            self.levels.append(_Level(base, self.ident, self._keys(self.ident[base][None])[0]))
        for level in self.levels[first : last + 1]:
            level.gens.append(s)
            level.inverses.append(s_inv)
            self._grow_orbit(level, s, s_inv)

    def _grow_orbit(self, level: _Level, s: np.ndarray, s_inv: np.ndarray) -> None:
        """Breadth-first: the whole orbit by the new generator s, then only new points by all."""
        p, points = self.p, level.points
        room = self.cap // (self.order // len(points))  # the longest orbit within the cap
        frontier, frontier_inv = level.u, level.u_inv
        chunks, chunks_inv = [level.u], [level.u_inv]
        step = [(s, s_inv)]
        while True:
            found, found_inv = [], []
            for t, t_inv in step:
                prods = frontier @ t % p
                keys = self._keys(prods[:, level.base])
                # images of distinct points under one generator are distinct
                fresh = [i for i, key in enumerate(keys) if key not in points]
                if not fresh:
                    continue
                points.update(zip(map(keys.__getitem__, fresh), itertools.count(len(points))))
                if len(points) > room:
                    raise CapExceeded(f"group order exceeded the cap of {self.cap}")
                if len(fresh) < len(keys):
                    prods, inv = prods[fresh], frontier_inv[fresh]
                else:
                    inv = frontier_inv
                found.append(prods)
                found_inv.append(t_inv @ inv % p)
            if not found:
                break
            frontier, frontier_inv = np.concatenate(found), np.concatenate(found_inv)
            chunks.append(frontier)
            chunks_inv.append(frontier_inv)
            step = list(zip(level.gens, level.inverses))
        level.u, level.u_inv = np.concatenate(chunks), np.concatenate(chunks_inv)

    def _complete(self, i: int) -> None:
        """Complete levels i, ..., 0, given that the levels below i are complete."""
        p = self.p
        while i >= 0:
            level = self.levels[i]
            us = np.concatenate([level.u @ s % p for s in level.gens])
            where = [level.points[key] for key in self._keys(us[:, level.base])]
            schreier = us @ level.u_inv[where] % p
            residue, _, drop = self._sift(schreier, i + 1)
            bad = np.flatnonzero(self._nontrivial(residue, drop))
            if not bad.size:
                i -= 1
                continue
            # the first failing Schreier generator u_x s u_{xs}^-1, sifted again with its inverse
            n = bad[0]
            k, x = divmod(n, len(level.u))
            h_inv = self._product([level.u[where[n]], level.inverses[k], level.u_inv[x]])
            residue, residue_inv, drop = self._sift(schreier[n][None], i + 1, h_inv[None])
            j = int(drop[0])
            self._insert(residue[0], residue_inv[0], i + 1, j)
            i = j
