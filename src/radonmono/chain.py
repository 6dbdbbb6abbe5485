"""The group generated by integer matrices mod p, as a stabilizer chain.

`StabilizerChain` is the modular engine of `group.modular_group_analysis`.
It keeps no element list: memory grows with the sum of the orbit lengths,
not with the order.  It uses no exact arithmetic: every inverse it holds is
a product of inverses passed to `extend`.  The module loads numpy, so
`group` imports it only on the modular path.
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
    e_base to x, and u_inv[i] its inverse.  `unsifted[k, x]` is False for
    the pairs (gens[k], point x) whose Schreier generator is known to lie in
    the stabilizer the lower levels generate; its shape is the number of
    generators and of points when the level was last checked.
    """

    def __init__(self, base: int, ident: np.ndarray, key: bytes):
        self.base = base
        self.gens: list[np.ndarray] = []
        self.inverses: list[np.ndarray] = []
        self.points = {key: 0}
        self.u = ident[None]
        self.u_inv = ident[None]
        self.unsifted = np.zeros((0, 0), dtype=bool)
        self.stacked = self.u[:0]  # gens as one array, restacked when they grow

    def pending(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The pairs (k, x) not known to sift to 1, in the order k, then x; None if there are none.

        The pairs of new generators and new points join `unsifted` as True.
        """
        shape = (len(self.gens), len(self.points))
        if self.unsifted.shape != shape:
            unsifted = np.ones(shape, dtype=bool)
            k0, x0 = self.unsifted.shape
            unsifted[:k0, :x0] = self.unsifted
            self.unsifted = unsifted
        elif not self.unsifted.any():
            return None
        if len(self.stacked) != shape[0]:
            self.stacked = np.stack(self.gens)
        return np.nonzero(self.unsifted)


class StabilizerChain:
    """The group generated by everything passed to `extend`, mod p, as a stabilizer chain.

    Matrices are (d, d) int64 arrays with entries in 0..p-1, acting on row
    vectors from the right.  Level i holds the orbit of a standard basis
    vector e_{b_i} under the strong generators that fix e_{b_0}, ...,
    e_{b_{i-1}}; the image of e_b under g is row b of g, so orbits need no
    products beyond the transversal's.  A matrix that fixes every e_b is the
    identity, so there are at most d levels and the order is the product of
    the orbit lengths.  `extend` keeps the chain complete (deterministic
    Schreier-Sims, Seress 2003, §4.2): each Schreier generator u_x s
    u_{xs}^-1 is sifted through the lower levels once, unless it fails.
    Transversals are append-only and the lower levels only grow, so a
    Schreier generator that sifted to 1 stays in the stabilizer; a level
    forms the pairs of its new generators and new points, and those that
    failed before, as one gathered (N, d, d) batch and sifts them together.
    The first nontrivial residue becomes a strong generator, and the check
    resumes at the level where it dropped out.  Membership questions go in
    one batch too: `contains` sifts a whole stack of matrices, and `extend`
    the products of all its words.

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
        self.extend([pair] for pair in pairs)

    @property
    def order(self) -> int:
        return math.prod(len(level.points) for level in self.levels)

    def trivial(self) -> "StabilizerChain":
        return StabilizerChain(self.p, self.degree, self.cap)

    def contains(self, h: np.ndarray) -> np.ndarray:
        """Which matrices of an (N, d, d) batch are members, sifted together."""
        residue, _, drop = self._sift(h, 0)
        return ~self._nontrivial(residue, drop)

    def extend(self, words) -> None:
        """Extend the group by the products of words of (x, x^-1) pairs, in order; a member changes nothing.

        The products are sifted as one batch; after one enlarges the group,
        only those after it are sifted again.  g^-1 is the reversed product
        of the inverses, formed only for a g that enlarges the group.  g
        joins the top level's strong generators; the check of that level's
        Schreier generators then finds what g adds to the stabilizers.
        """
        words = list(words)
        if not words:
            return
        gs = [self._product([x for x, _ in word]) for word in words]
        batch = gs[0][None] if len(gs) == 1 else np.stack(gs)
        n = 0
        while n < len(words):
            new = np.flatnonzero(~self.contains(batch[n:]))
            if not new.size:
                return
            n += int(new[0])
            g, g_inv = gs[n], self._product([x_inv for _, x_inv in reversed(words[n])])
            self.gens.append(g)
            self.inverses.append(g_inv)
            self._insert(g, g_inv, 0, 0)
            self._complete(0)
            n += 1

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
        """Breadth-first: the whole orbit by the new generator s, then only new points by all;
        a level that s alone generates grows its cycle by doubling (`_grow_cycle`)."""
        p, points = self.p, level.points
        room = self.cap // (self.order // len(points))  # the longest orbit within the cap
        if len(level.gens) == 1 and len(points) == 1:
            self._grow_cycle(level, s, s_inv, room)
            return
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

    def _grow_cycle(self, level: _Level, s: np.ndarray, s_inv: np.ndarray, room: int) -> None:
        """The orbit of e_base under s alone, by doubling.

        Breadth-first search would meet the points e_base s^k one per round,
        in order of k.  Here the transversal u = (s^0, ..., s^(2^j - 1)) is
        extended by the whole block u s^(2^j), cut at its first known point:
        a cycle first repeats at e_base.  The points and transversals come out
        exactly as breadth-first search leaves them.  As u_x s = u_{x+1}, only
        the last point's Schreier generator, s^N, can differ from 1: only it is sifted.
        """
        p, points = self.p, level.points
        u, u_inv = level.u, level.u_inv
        power, power_inv = s, s_inv
        while True:
            block = u @ power % p
            keys = self._keys(block[:, level.base])
            if points.keys().isdisjoint(keys):
                new = len(keys)
            else:
                new = next(i for i, key in enumerate(keys) if key in points)
            if len(points) + new > room:
                raise CapExceeded(f"group order exceeded the cap of {self.cap}")
            points.update(zip(keys[:new], itertools.count(len(points))))
            u = np.concatenate([u, block[:new]])
            u_inv = np.concatenate([u_inv, power_inv @ u_inv[:new] % p])
            if new < len(keys):
                break
            power, power_inv = power @ power % p, power_inv @ power_inv % p
        level.u, level.u_inv = u, u_inv
        level.unsifted = (np.arange(len(u)) == len(u) - 1)[None]

    def _complete(self, i: int) -> None:
        """Complete levels i, ..., 0, given that the levels below i are complete."""
        p = self.p
        while i >= 0:
            level = self.levels[i]
            pairs = level.pending()
            if pairs is None:
                i -= 1
                continue
            ks, xs = pairs
            us = level.u[xs] @ level.stacked[ks] % p
            where = [level.points[key] for key in self._keys(us[:, level.base])]
            schreier = us @ level.u_inv[where] % p
            residue, _, drop = self._sift(schreier, i + 1)
            bad = self._nontrivial(residue, drop)
            level.unsifted[ks, xs] = bad
            if not bad.any():
                i -= 1
                continue
            # the first failing Schreier generator u_x s u_{xs}^-1, sifted again with its inverse;
            # once its residue is a strong generator below, it lies in the stabilizer
            n = int(bad.argmax())
            k, x = ks[n], xs[n]
            h_inv = self._product([level.u[where[n]], level.inverses[k], level.u_inv[x]])
            residue, residue_inv, drop = self._sift(schreier[n][None], i + 1, h_inv[None])
            j = int(drop[0])
            self._insert(residue[0], residue_inv[0], i + 1, j)
            level.unsifted[k, x] = False
            i = j
