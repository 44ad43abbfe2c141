import numpy as np
import pytest

from degenlap._rand import child_rng
from degenlap.energy import MatrixField, SolverConfig, _Discretization, solve_dirichlet
from degenlap.geometry import euclidean, heisenberg1
from degenlap.grids import BOUNDARY, GridDomain, GridFunction
from oracles import grid_cells, grid_mask


def per_value_csv(u: GridFunction) -> str:
    """`to_csv`'s format written value by value with '%.17g'."""
    dom = u.domain
    coords = dom.node_coords().reshape(-1, dom.n)
    flags = dom.mask.ravel()
    lines = [",".join(f"x{i + 1}" for i in range(dom.n)) + ",value,boundary"]
    for c, v, f in zip(coords, u.values.ravel(), flags):
        if f > 0:
            lines.append(",".join("%.17g" % x for x in (*c, v)) + f",{int(f == BOUNDARY)}")
    return "\n".join(lines) + "\n"


def assert_same_grid(got: GridDomain, want: GridDomain):
    assert got.bounds.tobytes() == want.bounds.tobytes()
    assert got.shape == want.shape and got.h == want.h
    assert np.array_equal(got.mask, want.mask)


def test_to_csv_matches_per_value_format(tmp_path):
    specials = [1 / 3, -0.0, 1e-300, 1e17, -2.5e-7, 123456789.123, 5e-324, -1.0]
    for dom in (GridDomain.disc(1.0, (9, 9)), GridDomain.box([(-1 / 3, 2 / 3)] * 3, (4, 4, 4))):
        values = np.resize(np.array(specials), dom.shape)
        u = GridFunction(dom, np.where(dom.mask > 0, values, 0.0))
        path = tmp_path / "u.csv"
        u.to_csv(path)
        assert path.read_bytes() == per_value_csv(u).encode()
        back = GridFunction.from_csv(path)
        assert back.values.tolist() == u.values.tolist()
        assert_same_grid(back.domain, dom)


@pytest.mark.parametrize("dom", [GridDomain.disc(1.0, (33, 33)),
                                 GridDomain.box([(-1.0, 1.0)] * 3, (21, 21, 21))],
                         ids=["disc-2d", "heisenberg-box-3d"])
def test_csv_round_trip_bit_exact(tmp_path, dom):
    # every value, signed zeros and subnormals among them, and every
    # coordinate read back with the bits written
    rng = child_rng(31, "csv", str(dom.shape))
    values = rng.normal(size=dom.shape) * 10.0 ** rng.integers(-300, 300, size=dom.shape)
    values.ravel()[:3] = -0.0, 5e-324, np.nextafter(1.0, 2.0)
    u = GridFunction(dom, np.where(dom.mask > 0, values, 0.0))
    path = tmp_path / "u.csv"
    u.to_csv(path)
    back = GridFunction.from_csv(path)
    assert back.values.tobytes() == u.values.tobytes()
    assert_same_grid(back.domain, dom)


@pytest.mark.parametrize("header, rows, message", [
    ("a,b,value,boundary", None, r"does not have the columns \['x1'\]"),
    ("x1,x2,u,boundary", None, r"does not have the columns \['value'\]"),
    ("x1,x2,value,flag", None, r"does not have the columns \['boundary'\]"),
    ("x1,x2,value,boundary", "twice", "lists a node twice"),
    ("x1,x2,value,boundary", "shifted", "do not lie on one uniform grid"),
    ("x1,x2,value,boundary", "stretched", "do not lie on one uniform grid"),
    ("x1,x2,value,boundary", slice(0, 0), "has 0 rows, fewer than two"),
    ("x1,x2,value,boundary", slice(0, 1), "has 1 rows, fewer than two"),
], ids=["no-x-columns", "no-value-column", "no-boundary-column", "node-listed-twice",
        "off-grid", "off-one-grid", "header-only", "one-row"])
def test_csv_refused(tmp_path, header, rows, message):
    dom = GridDomain.disc(1.0, (5, 5))
    path = tmp_path / "u.csv"
    GridFunction.from_callable(dom, lambda pts: pts[:, 0]).to_csv(path)
    lines = path.read_text().splitlines()[1:]
    if rows == "twice":
        lines = [*lines, lines[3]]
    elif rows == "shifted":
        lines[0] = "0.1," + lines[0].split(",", 1)[1]
    elif rows == "stretched":     # each axis on a uniform grid, but not on one
        lines = [f"{1.5 * float(x1)},{rest}" for x1, rest in
                 (line.split(",", 1) for line in lines)]
    elif rows is not None:
        lines = lines[rows]
    path.write_text("\n".join([header, *lines]) + "\n")
    with pytest.raises(ValueError, match=message):
        GridFunction.from_csv(path)


GRID_CASES = [  # (constructor, its radii, bounds, geometry)
    ("box", (), [(-1.0, 1.0)], "euclidean"),
    ("disc", (0.7,), [(-0.3, 1.3)], "euclidean"),
    ("box", (), [(-1.0, 1.0)] * 2, "euclidean"),
    ("disc", (1.0,), [(-1.0, 1.0)] * 2, "euclidean"),
    ("disc", (0.9,), [(-0.3, 1.3)] * 2, "euclidean"),
    ("annulus", (0.25, 1.0), [(-1.0, 1.0)] * 2, "euclidean"),
    ("annulus", (0.5, 0.9), [(0.2, 1.0)] * 2, "euclidean"),
    ("box", (), [(0.0, 2.0)] * 3, "euclidean"),
    ("disc", (1.3,), [(-2.0, 0.5)] * 3, "euclidean"),
    ("annulus", (0.4, 1.0), [(-1.0, 1.0)] * 3, "euclidean"),
    ("box", (), [(-1.0, 1.0)] * 3, "heisenberg1"),
    ("box", (), [(-1.0, 1.0)] * 4, "euclidean"),
    ("disc", (1.0,), [(-1.0, 1.0)] * 4, "euclidean"),
    ("annulus", (0.1, 1.5), [(-0.3, 1.3)] * 4, "euclidean"),
]


@pytest.mark.parametrize("kind, radii, bounds, geometry", GRID_CASES,
                         ids=[f"{c[0]}-{len(c[2])}d-{c[3]}-{i}" for i, c in enumerate(GRID_CASES)])
def test_grid_matches_oracle(kind, radii, bounds, geometry):
    """Masks, included cells, their corners and centres against the node by
    node and cell by cell references."""
    n = len(bounds)
    shape = ({1: 17, 2: 13, 3: 9, 4: 6}[n],) * n
    dom = (GridDomain.box(bounds, shape) if kind == "box"
           else getattr(GridDomain, kind)(*radii, shape, bounds=bounds))
    r = np.linalg.norm(dom.node_coords(), axis=-1)
    r_inner, r_outer = (0.0, *radii)[-2:] if radii else (0.0, np.inf)
    assert np.array_equal(dom.mask, grid_mask((r >= r_inner) & (r <= r_outer)))
    corners, centres = grid_cells(dom.mask, bounds)
    assert len(corners) > 0
    disc = _Discretization(heisenberg1() if geometry == "heisenberg1" else euclidean(n), dom)
    assert disc.corner_idx.flags.c_contiguous
    assert np.array_equal(disc.corner_idx, corners)
    np.testing.assert_allclose(disc.centers, centres, rtol=0, atol=1e-13)


@pytest.mark.parametrize("kind, radii, bounds, geometry", GRID_CASES,
                         ids=[f"{c[0]}-{len(c[2])}d-{c[3]}-{i}" for i, c in enumerate(GRID_CASES)])
def test_csv_carries_its_grid(tmp_path, kind, radii, bounds, geometry):
    """The grid read back from a solution file: the same bounds, shape and
    mask whenever the live nodes reach every face of the box, and otherwise
    the box they span, with the same live node coordinates and values."""
    n = len(bounds)
    shape = ({1: 17, 2: 13, 3: 9, 4: 6}[n],) * n
    dom = (GridDomain.box(bounds, shape) if kind == "box"
           else getattr(GridDomain, kind)(*radii, shape, bounds=bounds))
    rng = child_rng(32, "csv-grid", str(n))
    u = GridFunction(dom, np.where(dom.mask > 0, rng.normal(size=shape), 0.0))
    u.to_csv(tmp_path / "u.csv")
    back = GridFunction.from_csv(tmp_path / "u.csv")
    live = dom.mask > 0
    faces = all(np.take(live, [0, -1], axis=ax).any(axis=tuple(a for a in range(n) if a != ax))
                .all() for ax in range(n))
    if faces:
        assert_same_grid(back.domain, dom)
    got = back.domain.mask > 0
    assert np.array_equal(back.domain.mask[got], dom.mask[live])
    assert back.domain.node_coords()[got].tobytes() == dom.node_coords()[live].tobytes()
    assert back.values[got].tobytes() == u.values[live].tobytes()


def test_solved_domain_holds_no_coordinate_array():
    # the (nodes, n) coordinates are computed on each call, the same bits
    # every time, so none stays alive on the domain through a solve
    dom = GridDomain.disc(1.0, (9, 9, 9))
    psi = GridFunction.from_callable(dom, lambda pts: pts[:, 0] * pts[:, 2])
    u, rep = solve_dirichlet(MatrixField.identity(3), 2.0, psi, config=SolverConfig(p=2.0))
    assert rep.converged and u.domain is dom
    assert {key for key, value in vars(dom).items() if isinstance(value, np.ndarray)} == {
        "bounds", "mask"}
    assert dom.node_coords().tobytes() == dom.node_coords().tobytes()
