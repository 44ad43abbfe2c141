import numpy as np
import pytest

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


def test_to_csv_matches_per_value_format(tmp_path):
    specials = [1 / 3, -0.0, 1e-300, 1e17, -2.5e-7, 123456789.123, 5e-324, -1.0]
    for dom in (GridDomain.disc(1.0, (9, 9)), GridDomain.box([(-1 / 3, 2 / 3)] * 3, (4, 4, 4))):
        values = np.resize(np.array(specials), dom.shape)
        u = GridFunction(dom, np.where(dom.mask > 0, values, 0.0))
        path = tmp_path / "u.csv"
        u.to_csv(path)
        assert path.read_bytes() == per_value_csv(u).encode()
        assert GridFunction.from_csv(dom, path).values.tolist() == u.values.tolist()


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
