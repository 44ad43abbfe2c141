"""Batch front-end: `degenlap <weights|solve|diagnose|distortion|catalog>`.

Configuration comes from an optional JSON file (--config) plus command-line
overrides (flags win).  Every run writes the fully resolved configuration to
the output directory next to its reports.  Exit codes: 0 success, 2 invalid
configuration, 3 I/O failure.  Numerical flags such as "unbounded-suspected"
are reported inside the JSON output with exit code 0.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._rand import child_rng
from .geometry import Box, euclidean, heisenberg1
from .grids import BOUNDARY, GridDomain, GridFunction
from . import weights as W
from . import energy as E
from . import diagnostics as DG
from . import distortion as DT
from . import catalog as CAT
from .io import write_csv, write_json, write_pgm


class ConfigError(ValueError):
    pass


_COMMON_DEFAULTS = {
    "geometry": "euclidean",
    "dimension": 2,
    "seed": 0,
    "output_dir": "degenlap-out",
}

_DEFAULTS = {
    "weights": {
        **_COMMON_DEFAULTS,
        "fixture": None,
        "weight": None,
        "p": 2.0,
        "t": 2.0,
        "q": None,
        "balls": 1024,
        "budget": 2048,
        "points": 128,
        "radii": 10,
        "window": None,
        "bounds": None,
    },
    "solve": {
        **_COMMON_DEFAULTS,
        "fixture": None,
        "p": 2.0,
        "resolution": 65,
        "mask": None,
        "mask_params": {},
        "bounds": None,
        "psi": "poly:x2-y2",
        "delta_final": None,
        "tolerance": 1e-10,
        "max_iterations": 400,
        "init": "psi",
        "pgm": False,
    },
    "diagnose": {
        **_COMMON_DEFAULTS,
        "fixture": "axis-degenerate-planar",
        "solution": None,
        "resolution": 65,
        "mask": None,
        "mask_params": {},
        "bounds": None,
        "probes": 5,
        "contraction_constant": 1.0,
        "budget": 1024,
        "pgm": False,
    },
    "distortion": {
        **_COMMON_DEFAULTS,
        "dimension": 3,
        "epsilon": 0.1,
        "samples": 200,
        "residual_resolution": 0,
        "tubes": [0.2, 0.15, 0.1],
        "bump_count": 2,
    },
    "catalog": {
        **_COMMON_DEFAULTS,
        "fixture": "all",
        "budget_scale": 1.0,
    },
}

# n = 3 solves above this node count per axis are refused.  Hessian
# assembly sets the memory peak: measured peak RSS 646 MB at 48^3 and
# 1.47 GB at 64^3, on a 2-CPU host with 7 GB of RAM.
MAX_RESOLUTION_3D = 48


def _load_config(path: str | None, subcommand: str, overrides: dict) -> dict:
    cfg = dict(_DEFAULTS[subcommand])
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        file_sub = raw.pop("subcommand", subcommand)
        if file_sub != subcommand:
            raise ConfigError(
                f"config file is for subcommand {file_sub!r}, not {subcommand!r}")
        for key, val in raw.items():
            if key not in cfg:
                raise ConfigError(f"unknown config key {key!r} for {subcommand}")
            cfg[key] = val
    for key, val in overrides.items():
        if val is not None and key in cfg:
            cfg[key] = val
    cfg["subcommand"] = subcommand
    return cfg


def _space_and_dim(cfg):
    if cfg["geometry"] == "euclidean":
        dim = int(cfg["dimension"])
        if dim < 1:
            raise ConfigError("dimension must be >= 1")
        return euclidean(dim), dim
    if cfg["geometry"] == "heisenberg1":
        if int(cfg["dimension"]) not in (3,):
            raise ConfigError("heisenberg1 geometry is 3-dimensional")
        return heisenberg1(), 3
    raise ConfigError(f"unknown geometry {cfg['geometry']!r}")


def _parse_weight(spec: str, dim: int) -> W.Weight:
    kind, _, arg = spec.partition(":")
    try:
        if kind == "pow":
            return W.power_weight(float(arg), dim)
        if kind == "axis-pow":
            return W.axis_power_weight(float(arg))
        if kind == "log":
            return W.log_weight(float(arg), dim)
        if kind == "const":
            return W.constant_weight(float(arg), dim)
    except ValueError as exc:
        raise ConfigError(f"bad weight spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown weight spec {spec!r} (pow:|axis-pow:|log:|const:)")


def _parse_psi(spec: str, dim: int, fixture):
    if spec == "poly:x2-y2":
        return lambda pts: np.atleast_2d(pts)[:, 0] ** 2 - np.atleast_2d(pts)[:, 1] ** 2
    if spec.startswith("affine:"):
        coef = [float(c) for c in spec.split(":", 1)[1].split(",")]
        if len(coef) != dim + 1:
            raise ConfigError(f"affine psi needs {dim + 1} coefficients")
        a, b = np.array(coef[:-1]), coef[-1]
        return lambda pts: np.atleast_2d(pts) @ a + b
    if spec.startswith("radial-pow:"):
        s = float(spec.split(":", 1)[1])
        return lambda pts: np.linalg.norm(np.atleast_2d(pts), axis=1) ** s
    if spec == "exp-cos":
        return lambda pts: np.exp(np.atleast_2d(pts)[:, 0]) * np.cos(np.atleast_2d(pts)[:, 1])
    if spec == "zhong-odd":
        return lambda pts: np.atleast_2d(pts)[:, -1] / np.maximum(
            np.linalg.norm(np.atleast_2d(pts), axis=1), 1e-9)
    if spec == "fixture-solution":
        if fixture is None or fixture.solution is None:
            raise ConfigError("fixture-solution psi requires a fixture with a solution")
        return fixture.solution
    raise ConfigError(f"unknown psi spec {spec!r}")


def _build_domain(cfg, dim: int) -> GridDomain:
    res = int(cfg["resolution"])
    if res < 5:
        raise ConfigError("resolution must be >= 5")
    if dim == 3 and res > MAX_RESOLUTION_3D:
        raise ConfigError(
            f"3-d resolution {res} is above the limit {MAX_RESOLUTION_3D}: Hessian assembly "
            "peaks at 646 MB RSS at 48^3 and 1.47 GB at 64^3")
    shape = (res,) * dim
    bounds = cfg["bounds"] or [[-1.0, 1.0]] * dim
    mask = cfg["mask"]
    params = cfg.get("mask_params") or {}
    if mask == "box":
        dom = GridDomain.box(bounds, shape)
    elif mask == "disc":
        radius = float(params.get("radius", 1.0))
        dom = GridDomain.disc(radius, shape, bounds=bounds)
    elif mask == "annulus":
        dom = GridDomain.annulus(float(params.get("inner", 0.25)),
                                 float(params.get("outer", 1.0)), shape, bounds=bounds)
    else:
        raise ConfigError(f"unknown mask {mask!r}")
    return dom


def _resolve_mask(cfg, fixture) -> None:
    """A fixture with a domain radius works on [-r, r]^n unless the config
    gives explicit bounds, masked by the disc of that radius unless the
    config names another mask.  An unset mask is the box."""
    if fixture is not None and cfg["bounds"] is None and fixture.domain_radius is not None:
        r = fixture.domain_radius
        cfg["bounds"] = [[-r, r]] * fixture.dim
        if cfg["mask"] in (None, "disc"):
            cfg["mask"] = "disc"
            cfg["mask_params"] = {"radius": r}
    if cfg["mask"] is None:
        cfg["mask"] = "box"


def _outdir(cfg) -> Path:
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_resolved(cfg, out: Path):
    write_json(out / "resolved-config.json", {"config": cfg})


# --- subcommand bodies --------------------------------------------------------

def run_weights(cfg) -> int:
    space, dim = _space_and_dim(cfg)
    fixture = CAT.fixture(cfg["fixture"]) if cfg["fixture"] else None
    if fixture is not None:
        weight = fixture.weight
        space, dim = fixture.space, fixture.dim
        domain = fixture.domain
    elif cfg["weight"]:
        weight = _parse_weight(cfg["weight"], dim)
        domain = Box(cfg["bounds"] or [[-1.0, 1.0]] * dim)
    else:
        raise ConfigError("weights needs --fixture or --weight")
    window = cfg["window"]
    if window is None:
        window = [1e-3 * domain.diameter, domain.diameter]
    window = (float(window[0]), float(window[1]))
    if not 0 < window[0] < window[1]:
        raise ConfigError("window must satisfy 0 < r_min < r_max")
    p = float(cfg["p"])
    t = float(cfg["t"])
    seed = int(cfg["seed"])
    balls, budget = int(cfg["balls"]), int(cfg["budget"])
    if balls < 8 or int(cfg["points"]) < 8:
        raise ConfigError("balls and points must be >= 8")
    if int(cfg["radii"]) < 1:
        raise ConfigError("radii must be >= 1")
    if budget < 16:
        raise ConfigError("budget must be >= 16")

    out = _outdir(cfg)
    _write_resolved(cfg, out)

    ap = W.ap_constant(weight, p, space, domain, window, balls, budget, seed)
    a1 = W.a1_constant(weight, space, domain, window, int(cfg["points"]),
                       int(cfg["radii"]), budget, seed)
    rh = W.rh_constant(weight, t, space, domain, window, balls, budget, seed)
    qq = float(cfg["q"]) if cfg["q"] is not None else t * (p - 1.0) + 1.0
    balance = W.balance_check(weight.pow(1.0 - p), weight, p, qq, space, domain,
                              (window[0], min(window[1], 0.45 * float(np.min(domain.lengths)))),
                              pairs=max(balls // 4, 64), budget=budget, seed=seed)
    try:
        tau = W.tau_exponent(p, space.n, space.Q)
    except W.OutOfRegimeError:
        tau = "out-of-regime"

    payload = {
        "weights_report": {
            "ap": ap.to_dict(),
            "a1": a1.to_dict(),
            "rh": rh.to_dict(),
            "balance": balance.to_dict(),
            "tau_exponent": tau,
            "q_used": qq,
        }
    }
    write_json(out / "weights-report.json", payload)
    rows = []
    for kind, rep in (("ap", ap), ("a1", a1), ("rh", rh)):
        for case in rep.worst_cases:
            center = case["center"]
            rows.append([kind] + [float(c) for c in center]
                        + [case["radius"] if case["radius"] is not None else "",
                           case["ratio"]])
    header = ["estimate"] + [f"x{i + 1}" for i in range(dim)] + ["radius", "ratio"]
    write_csv(out / "worst-balls.csv", header, rows)
    return 0


def run_solve(cfg) -> int:
    space, dim = _space_and_dim(cfg)
    fixture = CAT.fixture(cfg["fixture"]) if cfg["fixture"] else None
    if fixture is not None:
        dim = fixture.dim
        space = fixture.space
        a_field = fixture.matrix
        if a_field is None:
            raise ConfigError(f"fixture {fixture.name!r} has no coefficient field")
    else:
        a_field = E.MatrixField.identity(space.m)
    _resolve_mask(cfg, fixture)
    domain = _build_domain(cfg, dim)
    p = float(cfg["p"])
    psi_fn = _parse_psi(cfg["psi"], dim, fixture)
    psi = GridFunction.from_callable(domain, psi_fn)
    config = E.SolverConfig(
        p=p,
        delta_final=cfg["delta_final"],
        tolerance=float(cfg["tolerance"]),
        max_iterations=int(cfg["max_iterations"]),
        init=cfg["init"],
    )
    out = _outdir(cfg)
    _write_resolved(cfg, out)
    u, report = E.solve_dirichlet(a_field, p, psi, domain, config, space)
    u.to_csv(out / "solution.csv")
    write_json(out / "solve-report.json", {"solve_report": report.to_dict()})
    if cfg.get("pgm") and dim == 2:
        vals = np.where(domain.mask > 0, u.values, np.nan)
        write_pgm(out / "solution.pgm", vals)
    return 0


def _probe_lattice(domain: GridDomain, count: int) -> np.ndarray:
    lo = domain.bounds[:, 0] * 0.8
    hi = domain.bounds[:, 1] * 0.8
    axes = [np.linspace(l, h, count) for l, h in zip(lo, hi)]
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack(grid, axis=-1).reshape(-1, domain.n)


def run_diagnose(cfg) -> int:
    fixture = CAT.fixture(cfg["fixture"]) if cfg["fixture"] else None
    if fixture is None:
        raise ConfigError("diagnose needs a fixture for the degeneracy weight")
    dim = fixture.dim
    space = fixture.space
    _resolve_mask(cfg, fixture)
    domain = _build_domain(cfg, dim)
    if cfg["solution"] is None:
        raise ConfigError("diagnose needs --solution CSV from a solve run")
    try:
        u = GridFunction.from_csv(domain, cfg["solution"])
    except OSError as exc:
        raise ConfigError(f"cannot read solution: {exc}") from exc
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"solution file does not match the grid: {exc}") from exc
    probes = _probe_lattice(domain, int(cfg["probes"]))
    if fixture.domain_radius is not None:
        probes = probes[np.linalg.norm(probes, axis=1) < 0.85 * fixture.domain_radius]
    out = _outdir(cfg)
    _write_resolved(cfg, out)
    report = DG.continuity_map(
        u, fixture.weight, space, fixture.domain, probes,
        contraction_constant=float(cfg["contraction_constant"]),
        budget=int(cfg["budget"]), seed=int(cfg["seed"]),
    )
    write_json(out / "diagnostics-report.json", {"diagnostics": report.to_dict()})
    header = [f"x{i + 1}" for i in range(dim)] + ["mk", "gamma", "alpha", "no_decay", "class"]
    rows = []
    for rec in report.probes:
        rows.append(list(rec.point)
                    + [rec.mk_value if math.isfinite(rec.mk_value) else "inf",
                       rec.gamma,
                       rec.alpha if math.isfinite(rec.alpha) else "inf",
                       int(rec.no_decay), rec.continuity_class])
    write_csv(out / "continuity.csv", header, rows)
    if cfg.get("pgm") and dim == 2:
        k = int(round(math.sqrt(len(report.probes))))
        if k * k == len(report.probes):
            gammas = np.array([rec.gamma for rec in report.probes]).reshape(k, k)
            write_pgm(out / "gamma.pgm", gammas, lo=0.0, hi=1.0)
    return 0


def run_distortion(cfg) -> int:
    eps = float(cfg["epsilon"])
    if eps <= 0:
        raise ConfigError("epsilon must be positive")
    res = int(cfg["residual_resolution"])
    if res > 2 * MAX_RESOLUTION_3D + 1:
        raise ConfigError(f"residual resolution {res} is above the limit "
                          f"{2 * MAX_RESOLUTION_3D + 1}")
    mapping = DT.radial_exp_map(eps, 3)
    rng = child_rng(int(cfg["seed"]), "cli-distortion")
    n = int(cfg["samples"])
    pts = rng.uniform(-1.0, 1.0, (4 * n, 3))
    r = np.linalg.norm(pts, axis=1)
    pts = pts[(r > 0.05) & (r < 0.95)][:n]
    out = _outdir(cfg)
    _write_resolved(cfg, out)
    report = DT.sample_distortion_report(mapping, pts)
    if res > 0:
        dom = GridDomain.box([[-0.5, 0.5]] * 3, (res,) * 3)
        rng2 = child_rng(int(cfg["seed"]), "cli-bumps")
        bumps = []
        for _ in range(int(cfg["bump_count"])):
            center = rng2.uniform(-0.15, 0.15, 3)
            radius = rng2.uniform(0.25, 0.32)
            bumps.append(bump_function(dom, center, radius))
        try:
            table = DT.coordinate_weak_residual(mapping, dom, bumps,
                                                tube_widths=[float(t) for t in cfg["tubes"]])
        except DT.SingularPointError as exc:
            raise ConfigError(f"residual resolution {res}: {exc}; "
                              "use an odd resolution") from exc
        report.residuals = table.to_dict()
    write_json(out / "distortion-report.json", {"distortion": report.to_dict()})
    header = ["x1", "x2", "x3", "jacobian_det", "op_norm", "adj_norm",
              "outer", "inner", "g_eig_min", "g_eig_max"]
    rows = [[*s["point"], s["jacobian_det"], s["op_norm"], s["adj_norm"],
             s["outer"], s["inner"], s["g_eig_min"], s["g_eig_max"]]
            for s in report.samples]
    write_csv(out / "distortion-points.csv", header, rows)
    return 0


def run_catalog(cfg) -> int:
    names = CAT.fixture_names() if cfg["fixture"] in (None, "all") else [cfg["fixture"]]
    out = _outdir(cfg)
    _write_resolved(cfg, out)
    reports = []
    for name in names:
        try:
            reports.append(CAT.verify_fixture(name, budget_scale=float(cfg["budget_scale"]),
                                              seed=int(cfg["seed"])))
        except CAT.FixtureNotFoundError as exc:
            raise ConfigError(f"unknown fixture {exc}") from exc
    write_json(out / "catalog-report.json", {"fixtures": reports})
    return 0


def bump_function(domain: GridDomain, center, radius: float) -> GridFunction:
    """Smooth mollifier bump exp(-1/(1 - (d/R)^2)) supported in B(center, R),
    zeroed on boundary nodes."""
    coords = domain.node_coords().reshape(-1, domain.n)
    d = np.linalg.norm(coords - np.asarray(center, dtype=float), axis=1) / radius
    with np.errstate(divide="ignore", over="ignore"):
        vals = np.where(d < 1.0, np.exp(-1.0 / np.maximum(1.0 - d * d, 1e-300)), 0.0)
    vals = vals.reshape(domain.shape)
    vals[domain.mask == BOUNDARY] = 0.0
    return GridFunction(domain, vals)


# --- entry point ---------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--config", default=None, help="JSON config file")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--output-dir", dest="output_dir", default=None)
    sub.add_argument("--geometry", choices=("euclidean", "heisenberg1"), default=None)
    sub.add_argument("--dimension", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="degenlap",
        description="Degenerate p-Laplacian workbench: weight constants, "
                    "Dirichlet solves, regularity diagnostics, finite distortion.",
    )
    ap.add_argument("--version", action="version", version=f"degenlap {__version__}")
    subs = ap.add_subparsers(dest="subcommand", required=True)

    s = subs.add_parser("weights", help="A_p / A_1 / RH_t constants and balance checks")
    _add_common(s)
    s.add_argument("--fixture", default=None, choices=CAT.fixture_names())
    s.add_argument("--weight", default=None, help="pow:a | axis-pow:a | log:s | const:c")
    s.add_argument("--p", type=float, default=None)
    s.add_argument("--t", type=float, default=None)
    s.add_argument("--q", type=float, default=None)
    s.add_argument("--balls", type=int, default=None)
    s.add_argument("--budget", type=int, default=None)
    s.add_argument("--points", type=int, default=None)
    s.add_argument("--radii", type=int, default=None)

    s = subs.add_parser("solve", help="Dirichlet p-energy minimization")
    _add_common(s)
    s.add_argument("--fixture", default=None, choices=CAT.fixture_names())
    s.add_argument("--p", type=float, default=None)
    s.add_argument("--resolution", type=int, default=None)
    s.add_argument("--mask", choices=("box", "disc", "annulus"), default=None)
    s.add_argument("--psi", default=None)
    s.add_argument("--delta-final", dest="delta_final", type=float, default=None)
    s.add_argument("--tolerance", type=float, default=None)
    s.add_argument("--max-iterations", dest="max_iterations", type=int, default=None)
    s.add_argument("--init", choices=("psi", "zero"), default=None)
    s.add_argument("--pgm", action="store_const", const=True, default=None)

    s = subs.add_parser("diagnose", help="continuity map from a solved grid")
    _add_common(s)
    s.add_argument("--fixture", default=None, choices=CAT.fixture_names())
    s.add_argument("--solution", default=None, help="solution.csv from a solve run")
    s.add_argument("--resolution", type=int, default=None)
    s.add_argument("--mask", choices=("box", "disc", "annulus"), default=None)
    s.add_argument("--probes", type=int, default=None)
    s.add_argument("--contraction-constant", dest="contraction_constant",
                   type=float, default=None)
    s.add_argument("--budget", type=int, default=None)
    s.add_argument("--pgm", action="store_const", const=True, default=None)

    s = subs.add_parser("distortion", help="finite-distortion quantities and residuals")
    _add_common(s)
    s.add_argument("--epsilon", type=float, default=None)
    s.add_argument("--samples", type=int, default=None)
    s.add_argument("--residual-resolution", dest="residual_resolution",
                   type=int, default=None)

    s = subs.add_parser("catalog", help="verify fixture claims")
    _add_common(s)
    s.add_argument("--fixture", default=None)
    s.add_argument("--budget-scale", dest="budget_scale", type=float, default=None)

    return ap


_RUNNERS = {
    "weights": run_weights,
    "solve": run_solve,
    "diagnose": run_diagnose,
    "distortion": run_distortion,
    "catalog": run_catalog,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    sub = args.pop("subcommand")
    config_path = args.pop("config", None)
    try:
        cfg = _load_config(config_path, sub, args)
        return _RUNNERS[sub](cfg)
    except ConfigError as exc:
        print(f"degenlap: config error: {exc}", file=sys.stderr)
        return 2
    except CAT.FixtureNotFoundError as exc:
        print(f"degenlap: unknown fixture: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"degenlap: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
