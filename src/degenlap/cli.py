"""Batch front-end: `degenlap <weights|solve|diagnose|distortion|catalog>`.

Configuration comes from defaults, then an optional JSON file (--config),
then command-line flags (flags win).  Each subcommand accepts only the
settings it reads, as flags and as config keys (`_SETTINGS`).  A config-file
value is parsed and checked exactly as flag text is: it must have the flag's
kind (a JSON number, string or true/false) and lie among its choices and
within its range.  A fixture (`weights` and `solve` --fixture) fixes the
geometry and the dimension; an explicit value that contradicts it is
refused.  `diagnose` reads its grid (box, spacing, mask) from the solution
file, whose rows list every live node, and refuses a solution whose
dimension is not its fixture's.  Every run writes the fully resolved
configuration, with the geometry and dimension that ran, to
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
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import __version__
from ._rand import child_rng
from .geometry import Box, euclidean, heisenberg1
from .grids import BOUNDARY, INTERIOR, GridDomain, GridFunction
from . import energy as E
from .io import write_csv, write_json, write_pgm

if TYPE_CHECKING:
    from .weights import Weight


class ConfigError(ValueError):
    pass


class _Setting(NamedTuple):
    """A setting's default (a config file may give null only where it is
    None: unset); its kind: int, float, str, bool (a switch), a tuple of
    choices, or None for a structured value that only a config file sets and
    its runner checks; a number's bound: "> b" or ">= b" (a float is also
    finite), an upper limit "<= b", or both, as "> b, <= c"; and its flag's
    help."""
    default: object
    kind: object = None
    bound: str | None = None
    help: str | None = None


# Each subcommand's settings, each declared once.  `_load_config` takes its
# defaults from here and parses every value, flag or config file, by its
# declaration (`_parse`); `build_parser` makes the flags --<key with "-" for
# "_">, and a subcommand accepts no other key.
# `catalog.fixture_names()`, which a test ties to this tuple: reading it from
# the catalog would load the estimators with every command
_FIXTURE = ("constant", "axis-degenerate-planar", "zhong-log", "finite-distortion-radial")
# each mask's parameters (config key mask_params) and their defaults
_MASK_PARAMS = {"box": {}, "disc": {"radius": 1.0}, "annulus": {"inner": 0.25, "outer": 1.0}}
# the random streams are keyed by a non-negative seed (numpy's SeedSequence)
_RUN = {"seed": _Setting(0, int, ">= 0"), "output_dir": _Setting("degenlap-out", str)}
# unset until resolved: a fixture fixes both (`_space_and_dim`)
_GEOMETRY = {"geometry": _Setting(None, ("euclidean", "heisenberg1")),
             "dimension": _Setting(None, int, ">= 1")}

_SETTINGS = {
    "weights": {
        **_RUN, **_GEOMETRY,
        "fixture": _Setting(None, _FIXTURE),
        "weight": _Setting(None, str, help="pow:a | axis-pow:a | log:s | const:c"),
        "p": _Setting(2.0, float, "> 1"),
        "t": _Setting(2.0, float, "> 1"),
        "q": _Setting(None, float),
        "balls": _Setting(1024, int, ">= 8"),
        "budget": _Setting(2048, int, ">= 16"),
        "points": _Setting(128, int, ">= 8"),
        "radii": _Setting(10, int, ">= 1"),
        "window": _Setting(None),
        "bounds": _Setting(None),
    },
    "solve": {
        "output_dir": _RUN["output_dir"], **_GEOMETRY,
        "fixture": _Setting(None, _FIXTURE),
        "p": _Setting(2.0, float, "> 1"),
        "resolution": _Setting(65, int, ">= 5"),
        "mask": _Setting(None, tuple(_MASK_PARAMS)),
        "mask_params": _Setting({}),
        "bounds": _Setting(None),
        "psi": _Setting("poly:x2-y2", str),
        "delta_final": _Setting(None, float, "> 0"),
        "tolerance": _Setting(1e-10, float, "> 0"),
        "max_iterations": _Setting(400, int, ">= 1"),
        "init": _Setting("psi", ("psi", "zero")),
        "pgm": _Setting(False, bool),
    },
    "diagnose": {
        **_RUN,
        "fixture": _Setting("axis-degenerate-planar", _FIXTURE),
        "solution": _Setting(None, str, help="solution.csv from a solve run, which gives the grid"),
        "probes": _Setting(5, int, ">= 1"),
        "contraction_constant": _Setting(1.0, float, ">= 0"),
        "budget": _Setting(1024, int, ">= 16"),
        "pgm": _Setting(False, bool),
    },
    "distortion": {
        **_RUN,
        "epsilon": _Setting(0.1, float, "> 0"),
        "samples": _Setting(200, int, ">= 1"),
        # 0 (none) or odd, checked by `run_distortion`.  Measured wall time
        # and peak RSS (one BLAS thread, 2-CPU host): 0.25 s and 59 MB at 33,
        # 1.0-1.1 s and 200 MB at 65, 3.8-4.6 s and 538 MB at 97
        "residual_resolution": _Setting(0, int, "<= 97"),
        "tubes": _Setting([0.2, 0.15, 0.1]),
        "bump_count": _Setting(2),
    },
    "catalog": {
        **_RUN,
        "fixture": _Setting("all", ("all", *_FIXTURE)),
        # The estimators draw balls x budget samples, both in proportion to
        # the scale, so their cost grows with its square.  Measured wall time
        # and peak RSS (one BLAS thread, 2-CPU host): the constant fixture
        # 0.37 s and 49 MB at scale 4, 0.90 s and 60 MB at 8, 2.8 s and 82 MB
        # at 16, 12 s and 121 MB at 32, 45 s and 218 MB at 64.  All four
        # fixtures, with the peaks of the process and of the zhong-log probe's
        # forked worker and their sum (which counts the pages they share
        # twice): 0.8-1.3 s, 52 + 95 = 147 MB at 1; 1.4-1.6 s, 67 + 95 = 162
        # MB at 2; 5.1 s, 101 + 95 = 196 MB at 4; 20 s, 158 + 94 = 252 MB at
        # 8.  The probe's cost does not grow with the scale above 1.
        "budget_scale": _Setting(1.0, float, "> 0, <= 8"),
    },
}

_HELP = {
    "weights": "A_p / A_1 / RH_t constants and balance checks",
    "solve": "Dirichlet p-energy minimization",
    "diagnose": "continuity map from a solved grid",
    "distortion": "finite-distortion quantities and residuals",
    "catalog": "verify fixture claims",
}

# n = 3 solves above this node count per axis are refused, and so are solves
# in any dimension whose stencil, res^n 3^n entries, outgrows that of
# MAX_RESOLUTION_3D^3: 995328 nodes at n = 1, 576 per axis at n = 2, 13 at
# n = 4, 6 at n = 5.  `diagnose` refuses a solution whose grid has more
# nodes along an axis than a solve may.  Measured peak RSS of `solve --p 3` (one BLAS thread,
# 2-CPU host with 8 GB of RAM; BENCH_13.json): 80.4-80.7 MB at 33^3, 113 MB
# at 41^3 and 152 MB at 48^3 through the CLI, about 1 110 bytes per free
# unknown, and 294 MB at 64^3 through the library; 81 MB and 2.7-2.9 s at
# 13^4 and 65 MB at 6^5 through the CLI; 203 MB and 11.6-11.7 s at 576^2,
# where `solve --p 2 --init zero` (multigrid) peaks at 249 MB in 2.4-2.5 s.
MAX_RESOLUTION_3D = 48


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _parse(key: str, value, kind, bound: str | None = None):
    """value, from a flag or a config file, as `_Setting` declares it: of its
    kind (a JSON value must have its flag's kind, so no string, bool or
    fraction passes for an integer), among its choices, within its bound."""
    if isinstance(kind, tuple):
        _require(value in kind, f"unknown {key} {value!r}, not one of {', '.join(kind)}")
        return value
    what = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}[kind]
    # a bool is an int to Python, but true/false is no number and 1 no switch
    _require(isinstance(value, (int, float) if kind is float else kind)
             and isinstance(value, bool) == (kind is bool), f"{key} must be {what}, got {value!r}")
    if kind not in (int, float):
        return value
    try:
        value = kind(value)
    except OverflowError:           # an integer beyond the float range
        value = math.inf
    lower, _, limit = (bound or "").partition("<=")
    lower = lower.rstrip(", ")
    op, b = (lower or ">= -inf").split()
    rule = " and ".join(filter(None, (lower, "finite" if kind is float else None)))
    _require((value > float(b) if op == ">" else value >= float(b))
             and (kind is int or math.isfinite(value)), f"{key} must be {rule}, got {value!r}")
    _require(not limit or value <= float(limit),
             f"{key} {value!r} is above the limit {limit.strip()}")
    return value


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
    cfg = {key: setting.default for key, setting in _SETTINGS[subcommand].items()}
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
    for key, setting in _SETTINGS[subcommand].items():
        if setting.kind is not None and (cfg[key] is not None or setting.default is not None):
            cfg[key] = _parse(key, cfg[key], setting.kind, setting.bound)
    cfg["subcommand"] = subcommand
    return cfg


def _space_and_dim(cfg, fixture) -> tuple:
    """The run's space and dimension: the fixture's, which an explicit
    geometry or dimension must not contradict, else the configured ones
    (euclidean, dimension 2, or 3 on heisenberg1, when unset).  Both are
    written back into cfg, so that resolved-config.json records what ran."""
    if fixture is not None:
        for key, val in (("geometry", fixture.space.kind), ("dimension", fixture.space.n)):
            _require(cfg[key] in (None, val),
                     f"fixture {fixture.name!r} fixes {key} {val!r}, not {cfg[key]!r}")
            cfg[key] = val
        return fixture.space, fixture.space.n
    geometry = "euclidean" if cfg["geometry"] is None else cfg["geometry"]
    dim = cfg["dimension"]
    if geometry == "euclidean":
        dim = 2 if dim is None else dim
        space = euclidean(dim)
    else:
        dim = 3 if dim is None else dim
        _require(dim == 3, "heisenberg1 geometry is 3-dimensional")
        space = heisenberg1()
    cfg["geometry"], cfg["dimension"] = geometry, dim
    return space, dim


def _parse_weight(spec: str, dim: int) -> Weight:
    from . import weights as W
    kind, _, arg = spec.partition(":")
    make = {"pow": lambda a: W.power_weight(a, dim), "axis-pow": W.axis_power_weight,
            "log": lambda a: W.log_weight(a, dim), "const": W.constant_weight}
    _require(kind in make, f"unknown weight spec {spec!r} (pow:|axis-pow:|log:|const:)")
    try:
        return make[kind](_parse(f"{kind} parameter", float(arg), float))
    except ValueError as exc:
        raise ConfigError(f"bad weight spec {spec!r}: {exc}") from exc


def _parse_psi(spec: str, dim: int, fixture):
    _require(dim >= 2 or spec not in ("poly:x2-y2", "exp-cos"),
             f"psi {spec!r} reads a second coordinate, and the dimension is {dim}")
    if spec == "poly:x2-y2":
        return lambda pts: np.atleast_2d(pts)[:, 0] ** 2 - np.atleast_2d(pts)[:, 1] ** 2
    try:
        if spec.startswith("affine:"):
            coef = [_parse("affine coefficient", float(c), float)
                    for c in spec.split(":", 1)[1].split(",")]
            _require(len(coef) == dim + 1, f"affine psi needs {dim + 1} coefficients")
            a, b = np.array(coef[:-1]), coef[-1]
            return lambda pts: np.atleast_2d(pts) @ a + b
        if spec.startswith("radial-pow:"):
            s = _parse("radial-pow exponent", float(spec.split(":", 1)[1]), float)
            return lambda pts: np.linalg.norm(np.atleast_2d(pts), axis=1) ** s
    except ValueError as exc:
        raise ConfigError(f"bad psi spec {spec!r}: {exc}") from exc
    if spec == "exp-cos":
        return lambda pts: np.exp(np.atleast_2d(pts)[:, 0]) * np.cos(np.atleast_2d(pts)[:, 1])
    if spec == "zhong-odd":
        from .catalog import _zhong_odd
        return _zhong_odd
    if spec == "fixture-solution":
        _require(fixture is not None and fixture.solution is not None,
                 "fixture-solution psi requires a fixture with a solution")
        return fixture.solution
    raise ConfigError(f"unknown psi spec {spec!r}")


def _check_resolution(res: int, dim: int) -> None:
    limit = int((3 * MAX_RESOLUTION_3D) ** (3 / dim) / 3 + 1e-9)
    _require(res <= limit, f"{dim}-d resolution {res} is above the limit {limit}, the stencil "
             "size of 48^3: a p = 3 solve peaks at 152 MB RSS at 48^3, 203 MB at 576^2 and "
             "294 MB at 64^3")


def _build_domain(cfg, dim: int) -> GridDomain:
    res = cfg["resolution"]
    _check_resolution(res, dim)
    shape = (res,) * dim
    bounds = _bounds(cfg, dim)
    sides = np.diff(bounds, axis=1)
    _require(np.allclose(sides, sides[0], rtol=1e-12, atol=0.0),
             f"a grid's bounds must have equal side lengths, got {cfg['bounds']!r}")
    mask, given = cfg["mask"], cfg.get("mask_params") or {}
    _require(isinstance(given, dict) and set(given) <= set(_MASK_PARAMS[mask]),
             f"mask_params of mask {mask!r} must be an object with keys among "
             f"{sorted(_MASK_PARAMS[mask])}, got {given!r}")
    params = {}
    for key, default in _MASK_PARAMS[mask].items():
        params[key] = _parse(f"mask_params {key}", given.get(key, default), float, "> 0")
    if mask == "box":
        domain = GridDomain.box(bounds, shape)
    elif mask == "disc":
        domain = GridDomain.disc(params["radius"], shape, bounds=bounds)
    else:
        _require(params["inner"] < params["outer"],
                 f"mask_params inner must be < outer, got {given!r}")
        domain = GridDomain.annulus(params["inner"], params["outer"], shape, bounds=bounds)
    _require(np.any(domain.mask == INTERIOR),
             f"mask {mask!r} with mask_params {params} on bounds {domain.bounds.tolist()} leaves "
             f"no interior node at resolution {res}")
    return domain


def _resolve_mask(cfg, fixture) -> None:
    """A fixture with a domain radius works on [-r, r]^n unless the config
    gives explicit bounds, masked by the disc of that radius unless the
    config names another mask or mask_params.  An unset mask is the box."""
    if fixture is not None and cfg["bounds"] is None and fixture.domain_radius is not None:
        r = fixture.domain_radius
        cfg["bounds"] = [[-r, r]] * fixture.space.n
        if cfg["mask"] in (None, "disc"):
            cfg["mask"] = "disc"
            cfg["mask_params"] = cfg["mask_params"] or {"radius": r}
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

def _fixture(name: str | None):
    """The catalog's fixture `name`, or None when unset: the catalog, and
    with it the estimators, is loaded only for a fixture."""
    if name is None:
        return None
    from .catalog import fixture
    return fixture(name)


def run_weights(cfg) -> int:
    from . import weights as W
    fixture = _fixture(cfg["fixture"])
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
    p, t, seed, balls, budget = (cfg[key] for key in ("p", "t", "seed", "balls", "budget"))
    qq = cfg["q"] if cfg["q"] is not None else t * (p - 1.0) + 1.0
    _require(qq > p, "q must be > p")

    try:  # a weight that overflows on the samples is a setting out of range
        ap = W.ap_constant(weight, p, space, domain, window, balls, budget, seed)
        a1 = W.a1_constant(weight, space, domain, window, cfg["points"], cfg["radii"],
                           budget, seed)
        rh = W.rh_constant(weight, t, space, domain, window, balls, budget, seed)
        balance = W.balance_check(weight.pow(1.0 - p), weight, p, qq, space, domain,
                                  (window[0], min(window[1], 0.45 * float(np.min(domain.lengths)))),
                                  pairs=max(balls // 4, 64), budget=budget, seed=seed)
    except W.SingularSampleError as exc:
        raise ConfigError(f"weight {weight.name!r}, p {p}, t {t}: {exc}") from exc
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
    out = _outdir(cfg)
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
    fixture = _fixture(cfg["fixture"])
    space, dim = _space_and_dim(cfg, fixture)
    if fixture is not None:
        a_field = fixture.matrix
        _require(a_field is not None, f"fixture {fixture.name!r} has no coefficient field")
    else:
        a_field = E.MatrixField.identity(space.m)
    _resolve_mask(cfg, fixture)
    domain = _build_domain(cfg, dim)
    psi_fn = _parse_psi(cfg["psi"], dim, fixture)
    coords = domain.node_coords().reshape(-1, dim)
    with np.errstate(all="ignore"):  # a non-finite value is refused below, not warned about
        values = np.asarray(psi_fn(coords), dtype=float).reshape(-1)
    bad = np.flatnonzero(~np.isfinite(values) & (domain.mask.ravel() > 0))
    if len(bad):
        raise ConfigError(f"psi {cfg['psi']!r} is not finite on the live nodes: "
                          f"{values[bad[0]]} at {coords[bad[0]].tolist()}")
    # h^n weighs every cell of the quadrature; checked after the boundary
    # data, whose overflow on huge bounds is the more telling refusal
    with np.errstate(over="ignore", under="ignore"):
        volume = np.float64(domain.h) ** dim
    _require(0 < volume < np.inf, f"the cell volume h^{dim} = {volume} of bounds "
             f"{domain.bounds.tolist()} at resolution {cfg['resolution']} is not a positive "
             "finite number")
    psi = GridFunction.from_callable(domain, lambda _pts: values)
    config = E.SolverConfig(
        p=cfg["p"],
        delta_final=cfg["delta_final"],
        tolerance=cfg["tolerance"],
        max_iterations=cfg["max_iterations"],
        init=cfg["init"],
    )
    try:  # an energy that leaves the float range at the boundary data is a p out of range
        u, report = E.solve_dirichlet(a_field, cfg["p"], psi, config, space)
    except ValueError as exc:
        raise ConfigError(f"p {cfg['p']!r}, psi {cfg['psi']!r}: {exc}") from exc
    out = _outdir(cfg)
    u.to_csv(out / "solution.csv")
    write_json(out / "solve-report.json", {"solve_report": report.to_dict()})
    if cfg["pgm"] and dim == 2:
        vals = np.where(domain.mask > 0, u.values, np.nan)
        write_pgm(out / "solution.pgm", vals)
    return 0


def _probe_lattice(domain: GridDomain, count: int) -> np.ndarray:
    """count^n probes spanning the middle 80 % of the grid's box."""
    mid, half = domain.bounds.mean(axis=1), 0.8 * np.diff(domain.bounds, axis=1)[:, 0] / 2
    axes = [np.linspace(m - w, m + w, count) for m, w in zip(mid, half)]
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack(grid, axis=-1).reshape(-1, domain.n)


def run_diagnose(cfg) -> int:
    from . import diagnostics as DG
    _require(cfg["solution"] is not None, "diagnose needs --solution CSV from a solve run")
    fixture = _fixture(cfg["fixture"])
    dim = fixture.space.n
    try:
        u = GridFunction.from_csv(cfg["solution"])
    except OSError as exc:
        raise ConfigError(f"cannot read solution: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"solution file is not a grid function: {exc}") from exc
    domain = u.domain
    _require(domain.n == dim, f"the solution is {domain.n}-dimensional, fixture "
             f"{fixture.name!r} {dim}-dimensional")
    _check_resolution(max(domain.shape), dim)   # every grid a solve writes passes
    lo, hi = fixture.domain.bounds.T
    _require(np.all((lo <= domain.bounds[:, 0]) & (domain.bounds[:, 1] <= hi)),
             f"the solution's grid must lie inside the domain {fixture.domain.bounds.tolist()} "
             f"of fixture {fixture.name!r}, got the box {domain.bounds.tolist()}")
    probes = _probe_lattice(domain, cfg["probes"])
    if fixture.domain_radius is not None:
        probes = probes[np.linalg.norm(probes, axis=1) < 0.85 * fixture.domain_radius]
    report = DG.continuity_map(
        u, fixture.weight, fixture.space, fixture.domain, probes,
        contraction_constant=cfg["contraction_constant"], budget=cfg["budget"],
        seed=cfg["seed"],
    )
    out = _outdir(cfg)
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
    if cfg["pgm"] and dim == 2:
        k = int(round(math.sqrt(len(report.probes))))
        if k * k == len(report.probes):
            gammas = np.array([rec.gamma for rec in report.probes]).reshape(k, k)
            write_pgm(out / "gamma.pgm", gammas, lo=0.0, hi=1.0)
    return 0


def run_distortion(cfg) -> int:
    from . import distortion as DT
    # an even count puts a cell center on the map's singular point; 1 leaves no cell
    res = cfg["residual_resolution"]
    _require(res == 0 or (res >= 3 and res % 2 == 1),
             f"residual resolution {res} must be 0 (none) or an odd resolution >= 3")
    tubes = cfg["tubes"]
    _require(isinstance(tubes, list) and len(tubes) > 0,
             f"tubes must be a list of widths >= 0, got {tubes!r}")
    tubes = [_parse("tubes width", t, float, ">= 0") for t in tubes]
    bump_count = _parse("bump_count", cfg["bump_count"], int, ">= 1")
    mapping = DT.radial_exp_map(cfg["epsilon"], 3)
    rng = child_rng(cfg["seed"], "cli-distortion")
    n = cfg["samples"]
    pts = rng.uniform(-1.0, 1.0, (4 * n, 3))
    r = np.linalg.norm(pts, axis=1)
    pts = pts[(r > 0.05) & (r < 0.95)][:n]
    if res > 0:
        dom = GridDomain.box([[-0.5, 0.5]] * 3, (res,) * 3)
        rng2 = child_rng(cfg["seed"], "cli-bumps")
        bumps = []
        for _ in range(bump_count):
            center = rng2.uniform(-0.15, 0.15, 3)
            radius = rng2.uniform(0.25, 0.32)
            bumps.append(bump_function(dom, center, radius))
    # an epsilon whose Jacobians round to J_f <= 0, and a tube of width 0
    # around the singular point, are settings out of range
    try:
        report = DT.sample_distortion_report(mapping, pts)
        if res > 0:
            table = DT.coordinate_weak_residual(mapping, dom, bumps, tube_widths=tubes)
            report.residuals = table.to_dict()
    except (DT.OrientationReversedError, E.InvalidTestFunctionError) as exc:
        raise ConfigError(f"epsilon {cfg['epsilon']!r}, tubes {tubes}: {exc}") from exc
    out = _outdir(cfg)
    write_json(out / "distortion-report.json", {"distortion": report.to_dict()})
    header = ["x1", "x2", "x3", "jacobian_det", "op_norm", "adj_norm",
              "outer", "inner", "g_eig_min", "g_eig_max"]
    rows = [[*s["point"], s["jacobian_det"], s["op_norm"], s["adj_norm"],
             s["outer"], s["inner"], s["g_eig_min"], s["g_eig_max"]]
            for s in report.samples]
    write_csv(out / "distortion-points.csv", header, rows)
    return 0


def run_catalog(cfg) -> int:
    from . import catalog as CAT
    names = _FIXTURE if cfg["fixture"] == "all" else [cfg["fixture"]]
    reports = CAT._verify_fixtures(names, budget_scale=cfg["budget_scale"], seed=cfg["seed"])
    out = _outdir(cfg)
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
        for key, setting in settings.items():
            kind, flag = setting.kind, {"help": setting.help}
            if kind is bool:
                flag.update(action="store_const", const=True)
            elif isinstance(kind, tuple):   # `_parse` checks the choice, as a file's
                flag["metavar"] = "{" + ",".join(kind) + "}"
            elif kind in (int, float):
                flag["type"] = kind
            if kind is not None:
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
    except OSError as exc:
        print(f"degenlap: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
