"""Masked uniform grids and scalar grid functions.

Nodes live at box corners with uniform spacing h.  Each node is flagged
excluded / interior / boundary by one rule (`_mask`).  Interior nodes are
the solver unknowns, boundary nodes carry Dirichlet data.  Which cells are
integrated over, and their corners and centres, is decided in one place,
`energy._Discretization`, whose docstring states the rule.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import MetricSpace, metric_distance

__all__ = ["GridDomain", "GridFunction", "EXCLUDED", "INTERIOR", "BOUNDARY"]

EXCLUDED, INTERIOR, BOUNDARY = 0, 1, 2


@dataclass
class GridDomain:
    """Uniform tensor grid on a box with a node mask.

    mask values: 0 excluded, 1 interior, 2 boundary (Dirichlet).
    """

    bounds: np.ndarray          # (n, 2)
    shape: tuple[int, ...]      # nodes per axis
    mask: np.ndarray            # (shape,) int8
    h: float = field(init=False)

    def __post_init__(self):
        self.bounds = np.atleast_2d(np.asarray(self.bounds, dtype=float))
        self.shape = tuple(int(s) for s in self.shape)
        spacings = [(hi - lo) / (s - 1) for (lo, hi), s in zip(self.bounds, self.shape)]
        if not np.allclose(spacings, spacings[0], rtol=1e-12, atol=0.0):
            raise ValueError(f"grid spacing must be uniform across axes, got {spacings}")
        self.h = float(spacings[0])
        self.mask = np.asarray(self.mask, dtype=np.int8).reshape(self.shape)

    # --- constructors ---------------------------------------------------

    @classmethod
    def box(cls, bounds, shape) -> "GridDomain":
        """Full box: interior everywhere except the outer faces (boundary)."""
        return cls(bounds, shape, _mask(np.ones(shape, dtype=bool)))

    @classmethod
    def disc(cls, radius: float, shape, bounds=None) -> "GridDomain":
        """Disc/ball mask |x| <= radius inside its bounding box."""
        return cls.annulus(0.0, radius, shape, bounds)

    @classmethod
    def annulus(cls, r_inner: float, r_outer: float, shape, bounds=None) -> "GridDomain":
        """Annulus/shell mask r_inner <= |x| <= r_outer inside its bounding box."""
        if bounds is None:
            bounds = [(-r_outer, r_outer)] * len(shape)
        dom = cls(bounds, shape, np.zeros(shape, dtype=np.int8))
        r = np.linalg.norm(dom.node_coords(), axis=-1)
        dom.mask = _mask((r >= r_inner) & (r <= r_outer))
        return dom

    # --- geometry ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self.bounds.shape[0]

    def node_coords(self) -> np.ndarray:
        """(shape..., n) array of node coordinates, computed on each call (the
        same bits every time): the domain holds no array the size of the
        grid times n, which would stay alive through a solve."""
        axes = [np.linspace(lo, hi, s) for (lo, hi), s in zip(self.bounds, self.shape)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    def node_distances(self, space: MetricSpace, x) -> np.ndarray:
        """Flat array of the metric distance from x to every node, +inf on
        excluded nodes: the live nodes of B(x, r) are those below r."""
        coords = self.node_coords().reshape(-1, self.n)
        x = np.broadcast_to(np.asarray(x, dtype=float), coords.shape)
        d = np.asarray(metric_distance(space, coords, x))
        return np.where(self.mask.ravel() > 0, d, np.inf)


def _mask(inside: np.ndarray) -> np.ndarray:
    """The node mask of the region `inside`: its nodes off the outer box
    faces are interior; a one-node collar of outside nodes around it (Moore
    neighbourhood) and its own nodes on the faces, which lack stencil cells,
    are boundary, where Dirichlet data is evaluated.  Every cell with an
    interior corner then has all its corners live, so interior nodes keep
    full stencils and no staircase gap opens between the quadrature region
    and the mask region."""
    core = (slice(1, -1),) * inside.ndim
    dilated = np.pad(inside, 1)  # a padded border of outside nodes: no roll wraps around
    for ax in range(inside.ndim):
        dilated = dilated | np.roll(dilated, 1, axis=ax) | np.roll(dilated, -1, axis=ax)
    interior = np.pad(inside[core], 1)
    return np.where(interior, INTERIOR, np.where(dilated[core], BOUNDARY, EXCLUDED)).astype(np.int8)


@dataclass
class GridFunction:
    """Scalar field on the nodes of a GridDomain."""

    domain: GridDomain
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(self.domain.shape)
        live = self.domain.mask > 0
        if not np.all(np.isfinite(self.values[live])):
            raise ValueError("grid function has non-finite values on live nodes")

    @classmethod
    def from_callable(cls, domain: GridDomain, f: Callable[[np.ndarray], np.ndarray]) -> "GridFunction":
        coords = domain.node_coords().reshape(-1, domain.n)
        vals = np.asarray(f(coords), dtype=float).reshape(domain.shape)
        vals = np.where(domain.mask > 0, vals, 0.0)
        return cls(domain, vals)

    def copy(self) -> "GridFunction":
        return GridFunction(self.domain, self.values.copy())

    def to_csv(self, path) -> None:
        """Serialize as `x1,...,xn,value,boundary` rows (17 significant digits)."""
        dom = self.domain
        coords = dom.node_coords().reshape(-1, dom.n)
        vals = self.values.ravel()
        flags = dom.mask.ravel()
        live = np.flatnonzero(flags > 0)
        row_fmt = "%.17g," * (dom.n + 1) + "%d\n"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(f"x{i + 1}" for i in range(dom.n)) + ",value,boundary\n")
            # in blocks, so that the rows as Python floats never all exist at once
            for start in range(0, len(live), 1024):
                idx = live[start:start + 1024]
                rows = np.column_stack([coords[idx], vals[idx], flags[idx] == BOUNDARY])
                fh.writelines(row_fmt % tuple(row) for row in rows.tolist())

    @classmethod
    def from_csv(cls, domain: GridDomain, path) -> "GridFunction":
        data = np.genfromtxt(path, delimiter=",", names=True)
        n = domain.n
        try:
            coords = np.stack([data[f"x{i + 1}"] for i in range(n)], axis=-1)
        except (KeyError, ValueError) as exc:
            raise ValueError(f"solution file does not have x1..x{n} columns") from exc
        live_count = int(np.count_nonzero(domain.mask > 0))
        if len(coords) != live_count:
            raise ValueError(
                f"solution file has {len(coords)} rows, grid has {live_count} live nodes")
        vals = np.zeros(domain.shape)
        idx = []
        for ax in range(n):
            lo = domain.bounds[ax, 0]
            pos = (coords[:, ax] - lo) / domain.h
            ii = np.rint(pos).astype(int)
            if np.abs(pos - ii).max() > 1e-6 or ii.min() < 0 or ii.max() >= domain.shape[ax]:
                raise ValueError("solution coordinates do not lie on the grid")
            idx.append(ii)
        vals[tuple(idx)] = data["value"]
        return cls(domain, vals)
