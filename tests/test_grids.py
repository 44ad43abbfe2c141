import numpy as np

from degenlap.grids import BOUNDARY, GridDomain, GridFunction


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
