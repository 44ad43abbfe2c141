"""Independent oracles for the test suite.

Each oracle computes its answer by a route disjoint from the library code it
checks: closed-form antiderivatives and dense interval scans for Muckenhoupt
constants, 1-d flux integration for radial p-harmonic profiles, polar
reduction for radial ball averages, 1-d adaptive quadrature over the
spheres or slices of a ball for off-centre ball averages, a tensor Gauss
rule in coordinates adapted to the Heisenberg gauge ball, and scalar
rejection sampling, one candidate at a time, for uniform draws in unit balls.
The Hessian references assemble the solver's cell blocks by COO triplets and
scipy's duplicate summation, or by one bincount over a slot map of sorted
(row, column) keys, not through the solver's stencil.  The grid references
classify one node and one cell at a time, from their neighbours and corners
as tuples of indices.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.sparse as sp
from scipy.integrate import cumulative_simpson, quad


def power_antiderivative(exponent: float):
    """F with F' = |x|^exponent on R (exponent > -1)."""
    a = exponent

    def F(x):
        x = np.asarray(x, dtype=float)
        return np.sign(x) * np.abs(x) ** (a + 1.0) / (a + 1.0)

    return F


def ap_constant_power_1d(w_exp: float, p: float, lo: float, hi: float,
                         n_points: int = 2001) -> float:
    """[|x|^a]_{A_p} on the interval (lo, hi) by dense brute force over all
    subinterval pairs, with interval integrals from exact antiderivatives."""
    dual_exp = w_exp * (1.0 - p / (p - 1.0))
    Fw = power_antiderivative(w_exp)
    Fd = power_antiderivative(dual_exp)
    # endpoints graded toward the singularity at 0 plus a uniform sweep
    t = np.linspace(0.0, 1.0, n_points // 2)
    graded = np.sign(np.linspace(-1, 1, n_points // 2)) * np.abs(
        np.linspace(-1, 1, n_points // 2)) ** 3
    pts = np.unique(np.concatenate([
        np.linspace(lo, hi, n_points),
        lo + (hi - lo) * t,
        graded * max(abs(lo), abs(hi)),
    ]))
    pts = pts[(pts >= lo) & (pts <= hi)]
    a = pts[:, None]
    b = pts[None, :]
    length = b - a
    with np.errstate(divide="ignore", invalid="ignore"):
        avg_w = (Fw(b) - Fw(a)) / length
        avg_d = (Fd(b) - Fd(a)) / length
        prod = avg_w * avg_d ** (p - 1.0)
    prod = np.where(length > 1e-12, prod, -np.inf)
    return float(np.nanmax(prod))


def radial_p_harmonic(p: float, n: int, r_in: float, r_out: float,
                      u_in: float, u_out: float, rr: np.ndarray) -> np.ndarray:
    """Radial p-harmonic profile with the given boundary values, from the
    first-order flux form r^{n-1} |u'|^{p-2} u' = const integrated by dense
    Simpson quadrature."""
    grid = np.linspace(r_in, r_out, 20001)
    base = grid ** (-(n - 1) / (p - 1.0))
    integral = cumulative_simpson(base, x=grid, initial=0.0)
    c_pow = (u_out - u_in) / integral[-1]
    return u_in + c_pow * np.interp(rr, grid, integral)


def radial_ball_average_2d(exponent: float, radius: float) -> float:
    """Average of |x|^a over a centered disc: polar reduction
    (2/(a+2)) r^a, valid for a > -2."""
    if exponent <= -2:
        raise ValueError("not integrable in the plane")
    return 2.0 / (exponent + 2.0) * radius ** exponent


def centered_ap_power_2d(w_exp: float, p: float) -> float:
    """A_p product of |x|^a over centered discs in the plane (radius cancels):
    avg(|x|^a) * avg(|x|^{a(1-p')})^{p-1} via the polar reduction."""
    dual_exp = w_exp * (1.0 - p / (p - 1.0))
    return (radial_ball_average_2d(w_exp, 1.0)
            * radial_ball_average_2d(dual_exp, 1.0) ** (p - 1.0))


def _quad_power(f, a: float, lo: float, hi: float, breaks=()) -> float:
    """Integral of |x|^a f(x) over [lo, hi] by adaptive quadrature, split at
    0 and at the kinks `breaks` of f, with the algebraic weight of QUADPACK
    on the pieces that end at 0."""
    cuts = sorted({lo, hi, *(x for x in (0.0, *breaks) if lo < x < hi)})
    total = 0.0
    for u, v in zip(cuts[:-1], cuts[1:]):
        if u == 0.0:
            total += quad(f, 0.0, v, weight="alg", wvar=(a, 0.0), epsabs=0.0, epsrel=1e-12)[0]
        elif v == 0.0:
            total += quad(lambda t: f(-t), 0.0, -u, weight="alg", wvar=(a, 0.0), epsabs=0.0,
                          epsrel=1e-12)[0]
        else:
            total += quad(lambda x: abs(x) ** a * f(x), u, v, epsabs=0.0, epsrel=1e-12,
                          limit=200)[0]
    return total


def _solid_angle_in_ball(rho: float, d: float, r: float, dim: int) -> float:
    """Angle (dim 2) or solid angle (dim 3) of the part of the sphere
    |x| = rho inside a ball of radius r whose centre is at distance d from
    0: the whole sphere, none of it, or an arc / cap of half-angle t with
    cos t = (rho^2 + d^2 - r^2) / (2 rho d)."""
    if rho <= r - d:
        return 2.0 * math.pi if dim == 2 else 4.0 * math.pi
    if rho >= r + d or rho <= d - r:
        return 0.0
    cos_t = (rho ** 2 + d ** 2 - r ** 2) / (2.0 * rho * d)
    return 2.0 * math.acos(cos_t) if dim == 2 else 2.0 * math.pi * (1.0 - cos_t)


def radial_ball_average(profile, dim: int, d: float, r: float, power: float = 0.0,
                        breaks=()) -> float:
    """Average of |x|^power profile(|x|) over a ball of radius r in R^dim
    (dim 2 or 3) whose centre is at distance d from 0: integrals over rho of
    rho^(dim-1) times the solid angle inside the ball, by 1-d quadrature."""
    lo, hi = max(d - r, 0.0), d + r
    kinks = (abs(r - d), *breaks)
    angle = lambda rho: _solid_angle_in_ball(rho, d, r, dim)
    num = _quad_power(lambda rho: profile(rho) * angle(rho), power + dim - 1, lo, hi, kinks)
    return num / _quad_power(angle, dim - 1.0, lo, hi, kinks)


def slice_ball_average(exponent: float, center, r: float, bounds) -> float:
    """Average of |x1|^a over the disc B(center, r) clipped to the box
    `bounds` ((2, 2) lows and highs): the integrals over x1 of the length
    L(x1) of the slice of the clipped disc, by 1-d quadrature."""
    (lo1, hi1), (lo2, hi2) = bounds
    c1, c2 = center

    def length(x1):
        h = math.sqrt(max(r * r - (x1 - c1) ** 2, 0.0))
        return max(min(c2 + h, hi2) - max(c2 - h, lo2), 0.0)

    # L has kinks where the disc's rim crosses the box's edges x2 = lo2, hi2
    kinks = [c1 + sign * math.sqrt(r * r - (edge - c2) ** 2)
             for edge in (lo2, hi2) if abs(edge - c2) < r for sign in (-1.0, 1.0)]
    lo, hi = max(c1 - r, lo1), min(c1 + r, hi1)
    return _quad_power(length, exponent, lo, hi, kinks) / _quad_power(length, 0.0, lo, hi, kinks)


def cut_ball_average(exponent: float, c1: float, r: float, hi: float) -> float:
    """Average of |x1|^a over a ball of R^3 of radius r centred at x1 = c1
    and cut by the plane x1 = hi: its slices x1 = const are discs of area
    pi (r^2 - (x1 - c1)^2), integrated over x1 by 1-d quadrature."""
    area = lambda x: r * r - (x - c1) ** 2
    lo, hi = c1 - r, min(c1 + r, hi)
    return _quad_power(area, exponent, lo, hi) / _quad_power(area, 0.0, lo, hi)


def gauge_ball_average(fn, center, r: float, nodes: int = 32) -> float:
    """Average of fn over the Heisenberg gauge ball B(center, r), the image
    of the unit ball {(a^2 + b^2)^2 + y^2 <= 1} under y -> center * (r a,
    r b, r^2 y / 4).  In the coordinates a + ib = sqrt(cos th) e^(i phi),
    y = sin(th) tau the unit ball's measure is sin(th)^2 / 2 dth dphi dtau
    over [0, pi/2] x [0, 2 pi) x [-1, 1]: a Gauss-Legendre rule in th and
    tau and the trapezoidal rule in phi, accurate to rounding for smooth fn."""
    x, wx = np.polynomial.legendre.leggauss(nodes)
    th, phi, tau = np.meshgrid(np.pi / 4 * (x + 1.0), np.pi * np.arange(2 * nodes) / nodes, x,
                               indexing="ij")
    weight = (np.sin(th) ** 2 * wx[:, None, None] * wx[None, None, :]).ravel()
    rho = np.sqrt(np.cos(th))
    a, b, y = r * rho * np.cos(phi), r * rho * np.sin(phi), r * r * np.sin(th) * tau / 4.0
    c1, c2, c3 = center
    # the group law (c1, c2, c3) * (a, b, t) = (c1 + a, c2 + b, c3 + t + (c1 b - c2 a) / 2)
    pts = np.stack([c1 + a, c2 + b, c3 + y + 0.5 * (c1 * b - c2 * a)], axis=-1).reshape(-1, 3)
    return float(np.sum(weight * fn(pts)) / np.sum(weight))


def unit_ball_rejection(kind: str, n: int, count: int, rng) -> tuple[np.ndarray, int]:
    """The first `count` uniform points of the unit ball by rejection, one
    candidate row rng.random(n) at a time: u mapped to 2u - 1 per axis (the
    t axis of heisenberg1 to u/2 - 1/4) and kept if inside, by the Euclidean
    norm or the Koranyi gauge (a^2 + b^2)^2 + 16 t^2 <= 1.  Returns the
    points and the number of candidate rows drawn."""
    points, rows = [], 0
    while len(points) < count:
        u = rng.random(n).tolist()
        rows += 1
        if kind == "euclidean":
            p = [2.0 * x - 1.0 for x in u]
            inside = sum(x * x for x in p) <= 1.0
        else:
            p = [2.0 * u[0] - 1.0, 2.0 * u[1] - 1.0, 0.5 * u[2] - 0.25]
            inside = (p[0] * p[0] + p[1] * p[1]) ** 2 + 16.0 * p[2] * p[2] <= 1.0
        if inside:
            points.append(p)
    return np.array(points), rows


def hessian_coo(disc, values: np.ndarray, p: float, delta: float) -> sp.csr_matrix:
    """Free-node Hessian of the regularized p-energy of a solver
    discretization (`degenlap.energy._Discretization`): the cell blocks
    h^n p (alpha B^T A B + beta v v^T), alpha = s^((p-2)/2),
    beta = (p-2) s^((p-4)/2), v = B^T A Xu, as COO triplets over every
    pair of free cell corners, converted to CSR."""
    _, _, (s, _, v) = disc.energy_gradient(values, p, delta)
    alpha = s ** ((p - 2.0) / 2.0)
    beta = (p - 2.0) * s ** ((p - 4.0) / 2.0)
    ab = np.einsum("kij,kjc->kic", disc.a, disc.b)
    btab = np.einsum("kmc,kmd->kcd", disc.b, ab)  # B^T A B
    blocks = (disc.cell_volume * p) * (
        alpha[:, None, None] * btab + beta[:, None, None] * v[:, :, None] * v[:, None, :])
    rows, cols, keep = _block_entries(disc)
    n_free = len(disc.free)
    return sp.coo_matrix((blocks.ravel()[keep], (rows[keep], cols[keep])),
                         shape=(n_free, n_free)).tocsr()


def _block_entries(disc):
    """Free-node row and column of every cell-block entry (k, c, d), in C
    order, and whether both are free."""
    c = disc.corner_idx.shape[1]
    rows = disc.free_pos[np.repeat(disc.corner_idx, c, axis=1).ravel()]
    cols = disc.free_pos[np.tile(disc.corner_idx, (1, c)).ravel()]
    return rows, cols, (rows >= 0) & (cols >= 0)


def hessian_slot_map(disc, values: np.ndarray, p: float, delta: float) -> sp.csr_matrix:
    """The same Hessian with the solver's rounding of the blocks,
    (h^n p alpha) B^T A B + ((h^n p beta) v) v^T, with alpha and beta 0 where
    s = 0, summed by a slot map: each free cell-block entry (k, c, d), in C
    order, is given the rank of its (row, column) key among the sorted keys,
    which is its CSR position, and one bincount adds the entries in that
    order.  Each CSR entry thus sums its cells in increasing cell order, and
    the solver's stencil must reproduce the result bit for bit."""
    _, _, (s, _, v) = disc.energy_gradient(values, p, delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.where(s > 0, s ** ((p - 2.0) / 2.0), 0.0)
        beta = np.where(s > 0, (p - 2.0) * s ** ((p - 4.0) / 2.0), 0.0)
    scale = disc.cell_volume * p
    ab = np.einsum("kij,kjc->kic", disc.a, disc.b)  # A B, summed over j in increasing order
    blocks = (scale * alpha)[:, None, None] * np.einsum("kmc,kmd->kcd", disc.b, ab)
    blocks += ((scale * beta)[:, None] * v)[:, :, None] * v[:, None, :]
    rows, cols, keep = _block_entries(disc)
    n_free = len(disc.free)
    keys, slot = np.unique(rows[keep] * n_free + cols[keep], return_inverse=True)
    data = np.bincount(slot, blocks.ravel()[keep], minlength=len(keys))
    indptr = np.searchsorted(keys // n_free, np.arange(n_free + 1))
    return sp.csr_matrix((data, keys % n_free, indptr), shape=(n_free, n_free))


def grid_mask(inside: np.ndarray) -> np.ndarray:
    """Node mask of the region `inside`, node by node: 1 (interior) for a
    node of the region off the outer faces of the box, else 2 (boundary)
    for a node of the region or a node with one among its 3^n - 1 Moore
    neighbours, else 0 (excluded)."""
    shape = inside.shape
    mask = np.zeros(shape, dtype=np.int8)
    for node in itertools.product(*map(range, shape)):
        neighbours = [tuple(i + d for i, d in zip(node, step))
                      for step in itertools.product((-1, 0, 1), repeat=len(shape))]
        near = any(inside[nb] for nb in neighbours if all(0 <= i < s for i, s in zip(nb, shape)))
        on_face = any(i in (0, s - 1) for i, s in zip(node, shape))
        mask[node] = 1 if inside[node] and not on_face else 2 if near else 0
    return mask


def grid_cells(mask: np.ndarray, bounds) -> tuple[np.ndarray, np.ndarray]:
    """(corners, centres) of the quadrature cells, cell by cell in C order:
    the cells whose 2^n corners are all live (mask > 0) and at least one
    interior (mask 1).  A cell's corners are the flat node indices of its
    first node plus each offset in {0, 1}^n, axis 0 varying slowest; its
    centre is lo + (i + 1/2) h on each axis."""
    shape = mask.shape
    h = (bounds[0][1] - bounds[0][0]) / (shape[0] - 1)
    corners, centres = [], []
    for cell in itertools.product(*(range(s - 1) for s in shape)):
        nodes = [tuple(i + o for i, o in zip(cell, offset))
                 for offset in itertools.product((0, 1), repeat=len(shape))]
        flags = [mask[node] for node in nodes]
        if all(f > 0 for f in flags) and any(f == 1 for f in flags):
            corners.append([int(np.ravel_multi_index(node, shape)) for node in nodes])
            centres.append([lo + (i + 0.5) * h for i, (lo, _) in zip(cell, bounds)])
    return (np.array(corners, dtype=np.int64).reshape(-1, 2 ** len(shape)),
            np.array(centres).reshape(-1, len(shape)))
