"""Batch front-end: `degenlap <weights|solve|diagnose|distortion|catalog>`.

Configuration comes from defaults, then an optional JSON file (--config),
then command-line flags (flags win).  Each subcommand accepts only the
settings it reads, as flags and as config keys (`_SETTINGS`).  A fixture
(`weights` and `solve` --fixture) fixes the geometry and the dimension; an
explicit value that contradicts it is refused.  Every run writes the fully
resolved configuration, with the geometry and dimension that ran, to
resolved-config.json in the output directory next to its reports.

Exit codes: 0 success; 2 invalid configuration, which covers unknown flags
or config keys and out-of-range values, refused before the output directory
is created; 3 I/O failure.  Numerical flags such as "unbounded-suspected"
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


# Each subcommand's settings, each declared once: key -> (default, the
# argparse keywords of its flag --<key with "-" for "_">, or None for a key
# that only a config file sets).  `_load_config` takes its defaults from
# here and `build_parser` its flags, and a subcommand accepts no other key.
_INT = {"type": int}
_FLOAT = {"type": float}
_SWITCH = {"action": "store_const", "const": True}
_FIXTURE = {"choices": CAT.fixture_names()}
# each mask's parameters (config key mask_params) and their defaults
_MASK_PARAMS = {"box": {}, "disc": {"radius": 1.0}, "annulus": {"inner": 0.25, "outer": 1.0}}
_MASK = {"choices": tuple(_MASK_PARAMS)}
_RUN = {"seed": (0, _INT), "output_dir": ("degenlap-out", {})}
# unset until resolved: a fixture fixes both (`_space_and_dim`)
_GEOMETRY = {"geometry": (None, {"choices": ("euclidean", "heisenberg1")}),
             "dimension": (None, _INT)}

_SETTINGS = {
    "weights": {
        **_RUN, **_GEOMETRY,
        "fixture": (None, _FIXTURE),
        "weight": (None, {"help": "pow:a | axis-pow:a | log:s | const:c"}),
        "p": (2.0, _FLOAT),
        "t": (2.0, _FLOAT),
        "q": (None, _FLOAT),
        "balls": (1024, _INT),
        "budget": (2048, _INT),
        "points": (128, _INT),
        "radii": (10, _INT),
        "window": (None, None),
        "bounds": (None, None),
    },
    "solve": {
        "output_dir": _RUN["output_dir"], **_GEOMETRY,
        "fixture": (None, _FIXTURE),
        "p": (2.0, _FLOAT),
        "resolution": (65, _INT),
        "mask": (None, _MASK),
        "mask_params": ({}, None),
        "bounds": (None, None),
        "psi": ("poly:x2-y2", {}),
        "delta_final": (None, _FLOAT),
        "tolerance": (1e-10, _FLOAT),
        "max_iterations": (400, _INT),
        "init": ("psi", {"choices": ("psi", "zero")}),
        "pgm": (False, _SWITCH),
    },
    "diagnose": {
        **_RUN,
        "fixture": ("axis-degenerate-planar", _FIXTURE),
        "solution": (None, {"help": "solution.csv from a solve run"}),
        "resolution": (65, _INT),
        "mask": (None, _MASK),
        "mask_params": ({}, None),
        "bounds": (None, None),
        "probes": (5, _INT),
        "contraction_constant": (1.0, _FLOAT),
        "budget": (1024, _INT),
        "pgm": (False, _SWITCH),
    },
    "distortion": {
        **_RUN,
        "epsilon": (0.1, _FLOAT),
        "samples": (200, _INT),
        "residual_resolution": (0, _INT),
        "tubes": ([0.2, 0.15, 0.1], None),
        "bump_count": (2, None),
    },
    "catalog": {
        **_RUN,
        "fixture": ("all", {}),
        "budget_scale": (1.0, _FLOAT),
    },
}

_HELP = {
    "weights": "A_p / A_1 / RH_t constants and balance checks",
    "solve": "Dirichlet p-energy minimization",
    "diagnose": "continuity map from a solved grid",
    "distortion": "finite-distortion quantities and residuals",
    "catalog": "verify fixture claims",
}

# n = 3 solves above this node count per axis are refused.  Measured peak
# RSS of `solve --p 3 --dimension 3` (one BLAS thread, 2-CPU host with 8 GB
# of RAM): 96 MB at 33^3 and 195 MB at 48^3 through the CLI, and 403-416 MB
# at 64^3 through the library, over builds that differ only in code the
# solve does not run.
MAX_RESOLUTION_3D = 48


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _number(value) -> float:
    """value as a float, or nan when it is not a number."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def _intervals(value, shape: tuple, what: str) -> np.ndarray:
    """value as finite floats of `shape`, increasing along the last axis."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        arr = np.zeros(0)
    _require(arr.shape == shape and bool(np.isfinite(arr).all() and (np.diff(arr) > 0).all()),
             f"{what}, got {value!r}")
    return arr


def _bounds(cfg, dim: int) -> list:
    """The configured bounds, or [-1, 1]^dim when unset."""
    if cfg["bounds"] is None:
        return [[-1.0, 1.0]] * dim
    what = f"bounds must be {dim} [lo, hi] pairs, lo < hi"
    return _intervals(cfg["bounds"], (dim, 2), what).tolist()


def _load_config(path: str | None, subcommand: str, overrides: dict) -> dict:
    cfg = {key: default for key, (default, _) in _SETTINGS[subcommand].items()}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        _require(isinstance(raw, dict), "config root must be a JSON object")
        file_sub = raw.pop("subcommand", subcommand)
        _require(file_sub == subcommand,
                 f"config file is for subcommand {file_sub!r}, not {subcommand!r}")
        for key, val in raw.items():
            _require(key in cfg, f"unknown config key {key!r} for {subcommand}")
            cfg[key] = val
    cfg.update((key, val) for key, val in overrides.items() if val is not None)
    # the random streams are keyed by a non-negative seed (numpy's SeedSequence)
    seed = cfg.get("seed", 0)       # solve draws nothing and has no seed
    try:
        integral = not isinstance(seed, bool) and int(seed) == seed
    except (TypeError, ValueError, OverflowError):
        integral = False
    _require(integral, f"seed must be an integer, got {seed!r}")
    _require(seed >= 0, f"seed must be >= 0, got {seed}")
    cfg["subcommand"] = subcommand
    return cfg


def _space_and_dim(cfg, fixture) -> tuple:
    """The run's space and dimension: the fixture's, which an explicit
    geometry or dimension must not contradict, else the configured ones
    (euclidean, dimension 2, or 3 on heisenberg1, when unset).  Both are
    written back into cfg, so that resolved-config.json records what ran."""
    if fixture is not None:
        for key, val in (("geometry", fixture.space.kind), ("dimension", fixture.dim)):
            _require(cfg[key] in (None, val),
                     f"fixture {fixture.name!r} fixes {key} {val!r}, not {cfg[key]!r}")
            cfg[key] = val
        return fixture.space, fixture.dim
    geometry = "euclidean" if cfg["geometry"] is None else cfg["geometry"]
    dim = cfg["dimension"]
    if geometry == "euclidean":
        dim = 2 if dim is None else int(dim)
        _require(dim >= 1, "dimension must be >= 1")
        space = euclidean(dim)
    elif geometry == "heisenberg1":
        dim = 3 if dim is None else int(dim)
        _require(dim == 3, "heisenberg1 geometry is 3-dimensional")
        space = heisenberg1()
    else:
        raise ConfigError(f"unknown geometry {geometry!r}")
    cfg["geometry"], cfg["dimension"] = geometry, dim
    return space, dim


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
    try:
        if spec.startswith("affine:"):
            coef = [float(c) for c in spec.split(":", 1)[1].split(",")]
            _require(len(coef) == dim + 1, f"affine psi needs {dim + 1} coefficients")
            a, b = np.array(coef[:-1]), coef[-1]
            return lambda pts: np.atleast_2d(pts) @ a + b
        if spec.startswith("radial-pow:"):
            s = float(spec.split(":", 1)[1])
            return lambda pts: np.linalg.norm(np.atleast_2d(pts), axis=1) ** s
    except ValueError as exc:
        raise ConfigError(f"bad psi spec {spec!r}: {exc}") from exc
    if spec == "exp-cos":
        return lambda pts: np.exp(np.atleast_2d(pts)[:, 0]) * np.cos(np.atleast_2d(pts)[:, 1])
    if spec == "zhong-odd":
        return lambda pts: np.atleast_2d(pts)[:, -1] / np.maximum(
            np.linalg.norm(np.atleast_2d(pts), axis=1), 1e-9)
    if spec == "fixture-solution":
        _require(fixture is not None and fixture.solution is not None,
                 "fixture-solution psi requires a fixture with a solution")
        return fixture.solution
    raise ConfigError(f"unknown psi spec {spec!r}")


def _build_domain(cfg, dim: int) -> GridDomain:
    res = int(cfg["resolution"])
    _require(res >= 5, "resolution must be >= 5")
    _require(dim != 3 or res <= MAX_RESOLUTION_3D,
             f"3-d resolution {res} is above the limit {MAX_RESOLUTION_3D}: a p = 3 solve "
             "peaks at 195 MB RSS at 48^3 and 416 MB at 64^3")
    shape = (res,) * dim
    bounds = _bounds(cfg, dim)
    sides = np.diff(bounds, axis=1)
    _require(np.allclose(sides, sides[0], rtol=1e-12, atol=0.0),
             f"a grid's bounds must have equal side lengths, got {cfg['bounds']!r}")
    mask, given = cfg["mask"], cfg.get("mask_params") or {}
    _require(mask in _MASK_PARAMS, f"unknown mask {mask!r}")
    _require(isinstance(given, dict) and set(given) <= set(_MASK_PARAMS[mask]),
             f"mask_params of mask {mask!r} must be an object with keys among "
             f"{sorted(_MASK_PARAMS[mask])}, got {given!r}")
    params = {}
    for key, default in _MASK_PARAMS[mask].items():
        params[key] = _number(given.get(key, default))
        _require(0 < params[key] < math.inf,
                 f"mask_params {key} must be a positive number, got {given.get(key)!r}")
    if mask == "box":
        return GridDomain.box(bounds, shape)
    if mask == "disc":
        return GridDomain.disc(params["radius"], shape, bounds=bounds)
    _require(params["inner"] < params["outer"], f"mask_params inner must be < outer, got {given!r}")
    return GridDomain.annulus(params["inner"], params["outer"], shape, bounds=bounds)


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
    """The output directory, created, with the resolved configuration in it.
    Runners call it only once every setting has been checked."""
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "resolved-config.json", {"config": cfg})
    return out


# --- subcommand bodies --------------------------------------------------------

def run_weights(cfg) -> int:
    fixture = CAT.fixture(cfg["fixture"]) if cfg["fixture"] else None
    space, dim = _space_and_dim(cfg, fixture)
    if fixture is not None:
        _require(cfg["weight"] is None and cfg["bounds"] is None,
                 f"fixture {fixture.name!r} fixes the weight and the bounds")
        weight, domain = fixture.weight, fixture.domain
    elif cfg["weight"]:
        weight = _parse_weight(cfg["weight"], dim)
        domain = Box(_bounds(cfg, dim))
    else:
        raise ConfigError("weights needs --fixture or --weight")
    window = cfg["window"]
    if window is None:
        window = [1e-3 * domain.diameter, domain.diameter]
    what = "window must be [r_min, r_max], 0 < r_min < r_max"
    window = tuple(float(r) for r in _intervals(window, (2,), what))
    _require(window[0] > 0, f"{what}, got {cfg['window']!r}")
    p = float(cfg["p"])
    t = float(cfg["t"])
    qq = float(cfg["q"]) if cfg["q"] is not None else t * (p - 1.0) + 1.0
    seed = int(cfg["seed"])
    balls, budget = int(cfg["balls"]), int(cfg["budget"])
    _require(p > 1, "p must be > 1")
    _require(t > 1, "t must be > 1")
    _require(qq > p, "q must be > p")
    _require(balls >= 8 and int(cfg["points"]) >= 8, "balls and points must be >= 8")
    _require(int(cfg["radii"]) >= 1, "radii must be >= 1")
    _require(budget >= 16, "budget must be >= 16")

    out = _outdir(cfg)

    ap = W.ap_constant(weight, p, space, domain, window, balls, budget, seed)
    a1 = W.a1_constant(weight, space, domain, window, int(cfg["points"]),
                       int(cfg["radii"]), budget, seed)
    rh = W.rh_constant(weight, t, space, domain, window, balls, budget, seed)
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
    fixture = CAT.fixture(cfg["fixture"]) if cfg["fixture"] else None
    space, dim = _space_and_dim(cfg, fixture)
    if fixture is not None:
        a_field = fixture.matrix
        _require(a_field is not None, f"fixture {fixture.name!r} has no coefficient field")
    else:
        a_field = E.MatrixField.identity(space.m)
    p = float(cfg["p"])
    _require(p > 1, "p must be > 1")
    tolerance = _number(cfg["tolerance"])
    _require(0 < tolerance < math.inf,
             f"tolerance must be > 0 and finite, got {cfg['tolerance']!r}")
    delta_final = cfg["delta_final"]
    if delta_final is not None:
        delta_final = _number(delta_final)
        _require(0 < delta_final < math.inf,
                 f"delta_final must be > 0 and finite, got {cfg['delta_final']!r}")
    _resolve_mask(cfg, fixture)
    domain = _build_domain(cfg, dim)
    psi_fn = _parse_psi(cfg["psi"], dim, fixture)
    psi = GridFunction.from_callable(domain, psi_fn)
    config = E.SolverConfig(
        p=p,
        delta_final=delta_final,
        tolerance=tolerance,
        max_iterations=int(cfg["max_iterations"]),
        init=cfg["init"],
    )
    out = _outdir(cfg)
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
    _require(bool(cfg["fixture"]), "diagnose needs a fixture for the degeneracy weight")
    fixture = CAT.fixture(cfg["fixture"])
    dim = fixture.dim
    _require(int(cfg["probes"]) >= 1, "probes must be >= 1")
    _require(float(cfg["contraction_constant"]) >= 0, "contraction constant must be >= 0")
    _require(int(cfg["budget"]) >= 16, "budget must be >= 16")
    _resolve_mask(cfg, fixture)
    domain = _build_domain(cfg, dim)
    _require(cfg["solution"] is not None, "diagnose needs --solution CSV from a solve run")
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
    report = DG.continuity_map(
        u, fixture.weight, fixture.space, fixture.domain, probes,
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
    _require(eps > 0, "epsilon must be positive")
    n = int(cfg["samples"])
    _require(n >= 1, "samples must be >= 1")
    # an even count puts a cell center on the map's singular point; 1 leaves no cell
    res = int(cfg["residual_resolution"])
    _require(res == 0 or (res >= 3 and res % 2 == 1),
             f"residual resolution {res} must be 0 (none) or an odd resolution >= 3")
    _require(res <= 2 * MAX_RESOLUTION_3D + 1,
             f"residual resolution {res} is above the limit {2 * MAX_RESOLUTION_3D + 1}")
    tubes, bump_count = cfg["tubes"], _number(cfg["bump_count"])
    _require(isinstance(tubes, list) and len(tubes) > 0
             and all(0 <= _number(t) < math.inf for t in tubes),
             f"tubes must be a list of widths >= 0, got {tubes!r}")
    _require(bump_count.is_integer() and bump_count >= 1,
             f"bump count must be an integer >= 1, got {cfg['bump_count']!r}")
    mapping = DT.radial_exp_map(eps, 3)
    rng = child_rng(int(cfg["seed"]), "cli-distortion")
    pts = rng.uniform(-1.0, 1.0, (4 * n, 3))
    r = np.linalg.norm(pts, axis=1)
    pts = pts[(r > 0.05) & (r < 0.95)][:n]
    out = _outdir(cfg)
    report = DT.sample_distortion_report(mapping, pts)
    if res > 0:
        dom = GridDomain.box([[-0.5, 0.5]] * 3, (res,) * 3)
        rng2 = child_rng(int(cfg["seed"]), "cli-bumps")
        bumps = []
        for _ in range(int(bump_count)):
            center = rng2.uniform(-0.15, 0.15, 3)
            radius = rng2.uniform(0.25, 0.32)
            bumps.append(bump_function(dom, center, radius))
        table = DT.coordinate_weak_residual(mapping, dom, bumps,
                                            tube_widths=[float(t) for t in tubes])
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
    _require(set(names) <= set(CAT.fixture_names()), f"unknown fixture {cfg['fixture']!r}")
    budget_scale = _number(cfg["budget_scale"])
    _require(0 < budget_scale < math.inf,
             f"budget_scale must be > 0 and finite, got {cfg['budget_scale']!r}")
    out = _outdir(cfg)
    reports = [CAT.verify_fixture(name, budget_scale=budget_scale,
                                  seed=int(cfg["seed"]))
               for name in names]
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

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="degenlap",
        description="Degenerate p-Laplacian workbench: weight constants, "
                    "Dirichlet solves, regularity diagnostics, finite distortion.",
    )
    ap.add_argument("--version", action="version", version=f"degenlap {__version__}")
    subs = ap.add_subparsers(dest="subcommand", required=True)
    for name, settings in _SETTINGS.items():
        s = subs.add_parser(name, help=_HELP[name])
        s.add_argument("--config", default=None, help="JSON config file")
        for key, (_, flag) in settings.items():
            if flag is not None:
                s.add_argument("--" + key.replace("_", "-"), dest=key, default=None, **flag)
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
