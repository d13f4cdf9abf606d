"""Batch CLI: scenario configs in, CSV artifacts and a run summary out.

Subcommands
-----------
``simulate --config FILE [--seed N] [--out DIR]``
    Run the configured solver, write curves.csv / summary.csv / checks.csv /
    manifest.json.  When the scenario has a ``verify`` section its checks run
    too, each in its own forked process while the simulation runs (so a run
    needs ``os.fork``, POSIX only), and the exit code reflects them.
``verify --config FILE [--seed N] [--out DIR]``
    Run only the verification suite; emits checks.csv and manifest.json.
``sweep --config FILE --param dotted.key --values v1,v2,... [--out DIR]``
    Re-run the scenario with one overridden key and aggregate a sweep.csv.

Exit codes: 0 ok, 1 check failure, 2 config error, 3 runtime error.

Configs are YAML with strict key checking (any unknown key fails fast, so a
misspelled mathematical parameter cannot be silently ignored).  Volatilities
are named builtins with parameters; configs carry no executable code.
Outputs are byte-identical for identical (config, seed).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import hashlib
import json
import math
import operator
import sys
import zlib
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from .checks import (
    CHECKS_CSV_COLUMNS,
    CheckReport,
    _bond_maturities,
    bond_join,
    bond_prices,
    inequality_report,
    report_row,
    stability_report,
    step_integrands,
    verify_bichteler_jacod,
    verify_convolution_inequality,
    verify_cumulant_derivatives,
    verify_exponential_moment,
    verify_isometry,
    verify_martingale_bonds,
)
from ._children import _forked
from .curvespace import WeightGrid, make_grid
from .levy import (
    CompoundPoissonComponent,
    CumulantModel,
    GammaComponent,
    LevyDriver,
    WienerComponent,
    build_driver,
    gamma_geometric_family,
    moment_mp,
)
from .model import HjmModel, volatility_from_config
from .solver import (
    SolverConfig,
    _initial_curve,
    _norm_moments,
    _shares,
    euler_solve,
    picard_solve,
)

__all__ = ["ScenarioError", "Scenario", "load_scenario", "run_scenario", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_RUNTIME_ERROR = 3


class ScenarioError(ValueError):
    """Configuration rejected: parse error or invariant violation."""


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(f"section {where!r} must be a mapping")
    return obj


def _require_int(value, what: str, low: int) -> int:
    """``value`` if it is an integer (not a bool) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ScenarioError(f"{what} must be an integer >= {low}, got {value!r}")
    return value


def _require_float(value, what: str) -> float:
    """``value`` as a float if it is a number; a bool is not (``float(True)`` is 1.0)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{what} must be a number, got {value!r}")
    return float(value)


def _require_floats(values, what: str) -> list[float]:
    """A list of numbers as floats, each as ``_require_float`` takes it."""
    if not isinstance(values, list):
        raise ScenarioError(f"{what} must be a list of numbers, got {values!r}")
    return [_require_float(v, f"{what}[{i}]") for i, v in enumerate(values)]


# Defaults of the verify section, read both where a scenario is checked at load
# and where its checks run.  The bond check's horizon is the first horizon.
_VERIFY_ORDERS = [2.0, 4.0]
_VERIFY_HORIZONS = [0.5, 1.0, 2.0]
_BOND_HORIZONS = [1.0]
_FACTOR_CAP = 3.0
# the checks that run at every verify order
_ORDER_CHECKS = {"bichteler_jacod", "convolution"}


def _verify_floats(vc: dict, key: str, default: list[float]) -> list[float]:
    """``verify.<key>`` as floats, ``default`` when the key is absent."""
    return _require_floats(vc.get(key, default), f"verify.{key}")


def _take(section: dict, where: str, allowed: dict[str, bool]) -> dict:
    """Strict key extraction: ``allowed`` maps key -> required flag."""
    unknown = set(section) - set(allowed)
    if unknown:
        raise ScenarioError(
            f"unknown key(s) {sorted(unknown)} in section {where!r}; "
            f"allowed: {sorted(allowed)}"
        )
    missing = {k for k, req in allowed.items() if req and k not in section}
    if missing:
        raise ScenarioError(f"missing required key(s) {sorted(missing)} in section {where!r}")
    return section


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: raw sections plus the path it came from."""

    seed: int
    output_dir: str
    grid: dict
    driver: dict
    volatility: dict
    solver: dict
    verify: dict | None
    source_bytes: bytes

    @property
    def content_hash(self) -> str:
        """Git-style blob hash of the config file."""
        blob = b"blob %d\0" % len(self.source_bytes) + self.source_bytes
        return hashlib.sha1(blob).hexdigest()


_COMPONENT_KEYS = {
    "wiener": {"kind": True, "variance": True},
    "gamma": {"kind": True, "c": True, "rate": True},
    "compound_poisson": {"kind": True, "intensity": True, "jump_std": True},
}


def _read_config(path: Path) -> tuple[bytes, object]:
    """The bytes of a config file and the YAML they hold."""
    try:
        raw_bytes = path.read_bytes()
    except OSError as exc:
        raise ScenarioError(f"cannot read config {path}: {exc}") from exc
    try:
        return raw_bytes, yaml.safe_load(raw_bytes)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"config {path} is not valid YAML: {exc}") from exc


def load_scenario(path: str | Path) -> Scenario:
    """Parse a scenario and check it by building its run: the one place where a
    library call's ``ValueError`` or ``TypeError`` becomes a ``ScenarioError``."""
    raw_bytes, raw = _read_config(Path(path))
    try:
        scenario = _parse_scenario(raw, raw_bytes)
        _cross_validate(scenario)
    except ScenarioError:
        raise
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"invalid scenario: {exc}") from exc
    return scenario


def _parse_scenario(raw, raw_bytes: bytes) -> Scenario:
    """Strict key checking of the sections; values are left to the library."""
    raw = _require_mapping(raw, "top level")
    _take(
        raw,
        "top level",
        {
            "seed": True,
            "output_dir": False,
            "grid": True,
            "driver": True,
            "volatility": True,
            "solver": True,
            "verify": False,
        },
    )
    seed = _require_int(raw["seed"], "seed", 0)

    grid = _take(
        _require_mapping(raw["grid"], "grid"),
        "grid",
        {"x_max": True, "n_points": True, "beta": True},
    )
    _require_int(grid["n_points"], "grid.n_points", 3)
    driver = _take(
        _require_mapping(raw["driver"], "driver"),
        "driver",
        {
            "r_ball": True,
            "delta": True,
            "p_max": False,
            "components": False,
            "family": False,
        },
    )
    if ("components" in driver) == ("family" in driver):
        raise ScenarioError("driver needs exactly one of 'components' or 'family'")
    if "components" in driver:
        comps = driver["components"]
        if not isinstance(comps, list) or not comps:
            raise ScenarioError("driver.components must be a nonempty list")
        for i, comp in enumerate(comps):
            comp = _require_mapping(comp, f"driver.components[{i}]")
            kind = comp.get("kind")
            if kind not in _COMPONENT_KEYS:
                raise ScenarioError(
                    f"driver.components[{i}].kind must be one of {sorted(_COMPONENT_KEYS)}"
                )
            _take(comp, f"driver.components[{i}]", _COMPONENT_KEYS[kind])
    else:
        family = _take(
            _require_mapping(driver["family"], "driver.family"),
            "driver.family",
            {"rule": True, "c0": True, "ratio": True, "rate": True, "d_trunc": True},
        )
        if family["rule"] != "gamma_geometric":
            raise ScenarioError("driver.family.rule must be 'gamma_geometric'")
        _require_int(family["d_trunc"], "driver.family.d_trunc", 1)

    volatility = _take(
        _require_mapping(raw["volatility"], "volatility"),
        "volatility",
        {"name": True, "params": True, "drift_sign": False},
    )
    solver = _take(
        _require_mapping(raw["solver"], "solver"),
        "solver",
        {
            "method": False,
            "horizon": True,
            "n_steps": True,
            "n_paths": True,
            "picard_tol": False,
            "r_local": False,
            "p": False,
            "initial_curve": True,
        },
    )
    _take(
        _require_mapping(solver["initial_curve"], "solver.initial_curve"),
        "solver.initial_curve",
        {"short": True, "long": True, "decay": True},
    )
    if solver.get("method", "euler") not in ("euler", "picard"):
        raise ScenarioError("solver.method must be 'euler' or 'picard'")
    for key in ("n_steps", "n_paths"):
        _require_int(solver[key], f"solver.{key}", 1)

    verify = raw.get("verify")
    if verify is not None:
        verify = _take(
            _require_mapping(verify, "verify"),
            "verify",
            {
                "checks": True,
                "n_paths": False,
                "n_steps": False,
                "maturities": False,
                "orders": False,
                "horizons": False,
                "factor_cap": False,
            },
        )
        # every Monte Carlo check takes a standard error over its paths
        for key, low in (("n_steps", 1), ("n_paths", 2)):
            if key in verify:
                _require_int(verify[key], f"verify.{key}", low)
        checks = verify["checks"]
        unknown = set(checks) - set(CHECK_REGISTRY)
        if unknown:
            raise ScenarioError(
                f"unknown check(s) {sorted(unknown)}; available: {sorted(CHECK_REGISTRY)}"
            )
        # each check runs in its own process and writes its own checks.csv rows
        if len(set(checks)) < len(checks):
            raise ScenarioError(f"verify.checks must be distinct, got {checks!r}")

    return Scenario(
        seed=seed,
        output_dir=str(raw.get("output_dir", "out")),
        grid=grid,
        driver=driver,
        volatility=volatility,
        solver=solver,
        verify=verify,
        source_bytes=raw_bytes,
    )


def _cross_validate(sc: Scenario) -> None:
    """Build what a run builds; check here only what no library call sees before the run."""
    bundle = build_bundle(sc)
    cfg = solver_config(sc, sc.seed)
    _initial_curve(bundle.u0, cfg, bundle.grid)
    moment_mp(bundle.driver, cfg.p)
    vc = sc.verify or {}
    checks = set(vc.get("checks", []))
    # explicit orders always, the default ones where a check runs at them
    for p in _verify_floats(vc, "orders", _VERIFY_ORDERS if checks & _ORDER_CHECKS else []):
        moment_mp(bundle.driver, p)
    horizons = _verify_floats(vc, "horizons", _VERIFY_HORIZONS)
    if not horizons or not all(0 < T < math.inf for T in horizons):
        raise ValueError(f"verify.horizons must be nonempty, positive and finite, got {horizons!r}")
    factor_cap = _require_float(vc.get("factor_cap", _FACTOR_CAP), "verify.factor_cap")
    if not 1 <= factor_cap < math.inf:
        raise ValueError(f"verify.factor_cap must be finite and >= 1, got {factor_cap!r}")
    if "martingale_bonds" in checks:
        _bond_maturities(
            _verify_floats(vc, "maturities", []), bundle.grid, _bond_config(sc, sc.seed).horizon
        )


@dataclass(frozen=True)
class ModelBundle:
    grid: WeightGrid
    driver: LevyDriver
    model: HjmModel
    u0: np.ndarray


def build_bundle(sc: Scenario) -> ModelBundle:
    """Materialize grid, driver, model and initial curve from a scenario."""
    grid = make_grid(
        _require_float(sc.grid["x_max"], "grid.x_max"),
        sc.grid["n_points"],
        _require_float(sc.grid["beta"], "grid.beta"),
    )
    tail = 0.0
    if "components" in sc.driver:
        comps = []
        for i, c in enumerate(sc.driver["components"]):
            kind = c["kind"]
            num = {
                k: _require_float(v, f"driver.components[{i}].{k}")
                for k, v in c.items()
                if k != "kind"
            }
            if kind == "wiener":
                comps.append(WienerComponent(variance=num["variance"]))
            elif kind == "gamma":
                comps.append(GammaComponent(c=num["c"], rate=num["rate"]))
            else:
                comps.append(
                    CompoundPoissonComponent(intensity=num["intensity"], jump_std=num["jump_std"])
                )
    else:
        fam = sc.driver["family"]
        c0, ratio, rate = (
            _require_float(fam[k], f"driver.family.{k}") for k in ("c0", "ratio", "rate")
        )
        comps, tail = gamma_geometric_family(c0, ratio, rate, fam["d_trunc"])
    driver = build_driver(
        comps,
        r_ball=_require_float(sc.driver["r_ball"], "driver.r_ball"),
        delta=_require_float(sc.driver["delta"], "driver.delta"),
        p_max=_require_float(sc.driver.get("p_max", 4.0), "driver.p_max"),
        tail_second_moment=tail,
    )
    params = _require_mapping(sc.volatility["params"], "volatility.params")
    vol = volatility_from_config(
        sc.volatility["name"],
        # a builtin takes one number or a list of them per parameter
        {
            k: _require_floats(v if isinstance(v, list) else [v], f"volatility.params.{k}")
            for k, v in params.items()
        },
    )
    model = HjmModel(
        grid=grid,
        driver=driver,
        cumulant=CumulantModel(driver),
        vol=vol,
        drift_sign=_require_float(sc.volatility.get("drift_sign", -1.0), "volatility.drift_sign"),
    )
    ic = {
        k: _require_float(v, f"solver.initial_curve.{k}")
        for k, v in sc.solver["initial_curve"].items()
    }
    # a non-finite setting gives a non-finite curve, which _initial_curve rejects
    with np.errstate(invalid="ignore", over="ignore"):
        u0 = ic["long"] + (ic["short"] - ic["long"]) * np.exp(-ic["decay"] * grid.nodes)
    return ModelBundle(grid=grid, driver=driver, model=model, u0=u0)


def solver_config(sc: Scenario, seed: int) -> SolverConfig:
    s = sc.solver
    return SolverConfig(
        horizon=_require_float(s["horizon"], "solver.horizon"),
        n_steps=s["n_steps"],
        n_paths=s["n_paths"],
        picard_tol=_require_float(s.get("picard_tol", 1e-8), "solver.picard_tol"),
        r_local=_require_float(s.get("r_local", 1e6), "solver.r_local"),
        p=_require_float(s.get("p", 2.0), "solver.p"),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Verification suite assembly
# ---------------------------------------------------------------------------


def _check_seed(root_seed: int, name: str) -> int:
    return (root_seed * 1000003 + zlib.crc32(name.encode())) % (2**31)


def _run_isometry(sc: Scenario, bundle: ModelBundle, seed: int) -> list[CheckReport]:
    n_steps = sc.verify.get("n_steps", 8)
    n_paths = sc.verify.get("n_paths", 20000)
    F = step_integrands(bundle.grid, bundle.driver.dim, n_steps, seed=_check_seed(seed, "isoF"))
    return [
        verify_isometry(
            bundle.grid, bundle.driver, F, horizon=1.0, n_paths=n_paths,
            seed=_check_seed(seed, "isometry"),
        )
    ]


def _run_cumulant_derivatives(sc: Scenario, bundle: ModelBundle, seed: int) -> list[CheckReport]:
    return verify_cumulant_derivatives(
        bundle.model.cumulant, n_points=100, seed=_check_seed(seed, "cumulant")
    )


def _run_exponential_moment(sc: Scenario, bundle: ModelBundle, seed: int) -> list[CheckReport]:
    return [
        verify_exponential_moment(bundle.driver, seed=_check_seed(seed, "expmoment"))
    ]


def _bond_config(sc: Scenario, seed: int) -> SolverConfig:
    """The bond check's solver settings: its horizon is the first verify
    horizon, and it localizes at the scenario's ``solver.r_local``."""
    vc = sc.verify
    return SolverConfig(
        horizon=_verify_floats(vc, "horizons", _BOND_HORIZONS)[0],
        n_steps=vc.get("n_steps", 20),
        n_paths=vc.get("n_paths", 20000),
        r_local=solver_config(sc, seed).r_local,
        seed=_check_seed(seed, "bond"),
    )


def _bond_check(sc: Scenario, bundle: ModelBundle, seed: int) -> tuple:
    """The bond check's model, initial curve, maturities and solver settings."""
    maturities = _verify_floats(sc.verify, "maturities", [])
    return bundle.model, bundle.u0, maturities, _bond_config(sc, seed)


def _run_martingale_bonds(sc: Scenario, bundle: ModelBundle, seed: int) -> list[CheckReport]:
    return verify_martingale_bonds(*_bond_check(sc, bundle, seed))


def _run_maximal_inequalities(
    sc: Scenario, bundle: ModelBundle, seed: int, convolution: bool
) -> list[CheckReport]:
    vc = sc.verify
    orders = _verify_floats(vc, "orders", _VERIFY_ORDERS)
    horizons = _verify_floats(vc, "horizons", _VERIFY_HORIZONS)
    n_paths = vc.get("n_paths", 8000)
    factor_cap = _require_float(vc.get("factor_cap", _FACTOR_CAP), "verify.factor_cap")
    steps_per_year = vc.get("n_steps", 32)
    label = "convolution" if convolution else "bichteler_jacod"
    reports: list[CheckReport] = []
    for T in horizons:
        n_steps = max(int(round(T * steps_per_year)), 4)
        F = step_integrands(
            bundle.grid, bundle.driver.dim, n_steps,
            seed=_check_seed(seed, f"{label}F"), vanish_at_end=convolution,
        )
        s = np.arange(n_steps) * T / n_steps
        F = F * np.exp(-2.0 * s)[:, None, None]
        for p in orders:
            if convolution:
                main, vs_plain = verify_convolution_inequality(
                    bundle.grid, bundle.driver, F, p, T, n_paths,
                    seed=_check_seed(seed, f"{label}:{p}:{T}"),
                )
                reports += [main, vs_plain]
            else:
                rep = verify_bichteler_jacod(
                    bundle.grid, bundle.driver, F, p, T, n_paths,
                    seed=_check_seed(seed, f"{label}:{p}:{T}"),
                )
                reports.append(rep)
                if p == 2.0:
                    reports.append(
                        inequality_report(
                            f"doob_p2_T{T:g}",
                            rep.ratio,
                            4.0,
                            n_samples=rep.n_samples,
                            standard_error=rep.standard_error,
                            tolerance=0.1,
                            config={"horizon": T},
                        )
                    )
    for p in orders:
        values = {
            f"T{T:g}": next(
                r.ratio for r in reports if r.name == f"{label}_p{p:g}_T{T:g}"
            )
            for T in horizons
        }
        reports.append(
            stability_report(f"{label}_stability_p{p:g}", values, factor_cap)
        )
    return reports


CHECK_REGISTRY = {
    "isometry": _run_isometry,
    "cumulant_derivatives": _run_cumulant_derivatives,
    "exponential_moment": _run_exponential_moment,
    "martingale_bonds": _run_martingale_bonds,
    "bichteler_jacod": partial(_run_maximal_inequalities, convolution=False),
    "convolution": partial(_run_maximal_inequalities, convolution=True),
}


def _bond_shards(sc: Scenario, bundle: ModelBundle, seed: int) -> list[slice]:
    """Contiguous rows of the bond check's paths, one slice per process.

    One per core this process may use, but no more than the row blocks in
    which the full grid steps the paths (``solver._shares``).
    """
    return _shares(_bond_config(sc, seed).n_paths, bundle.grid.n_nodes)


@contextlib.contextmanager
def run_verify_suite(sc: Scenario, bundle: ModelBundle, seed: int, names: list[str]):
    """Run the checks of ``names`` in forked processes, concurrently with the
    body of the ``with`` block; yields a join that waits for them.

    Each check runs in its own process, except the bond check, whose paths
    are split into contiguous rows, one shard per core this process may use
    and at most one per row block (``_bond_shards``): on one core, one
    process prices every path.  Each shard is ``checks.bond_prices`` of its
    rows.  Every child sends back one pickled value (a check's reports, or a
    shard's prices) and the warnings it issued; the bond reports are the
    ``checks.bond_join`` of the shards' prices, in this process.

    The join returns the reports merged sorted by name.  In the order of
    ``names`` it issues each child's warnings again and raises the error of
    a check that failed (``_children._forked``).  Each check draws from its
    own seed stream, so the reports are those of running the checks one
    after another.  However the block is left, every child not yet joined is
    killed and reaped.
    """
    jobs = []  # (name, job) of each child
    for name in names:
        if name == "martingale_bonds":
            bond = _bond_check(sc, bundle, seed)
            jobs += [(name, partial(bond_prices, *bond, r)) for r in _bond_shards(sc, bundle, seed)]
        else:
            jobs.append((name, partial(CHECK_REGISTRY[name], sc, bundle, seed)))

    # every child runs OpenBLAS on one thread; the simulation on the caller's
    with _forked([(f"check {name!r}", job) for name, job in jobs]) as join_children:

        def join() -> list[CheckReport]:
            reports: list[CheckReport] = []
            priced = []  # the bond shards' values, in row order
            for (name, _job), value in zip(jobs, join_children()):
                if name == "martingale_bonds":
                    priced.append(value)
                else:
                    reports += value
            if priced:
                reports += bond_join(*_bond_check(sc, bundle, seed), priced)
            return sorted(reports, key=lambda r: r.name)

        yield join


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def _write_curves_csv(path: Path, ensemble) -> None:
    """Write ``path_id,t,x,u`` rows ordered by path, then time, then node.

    The bytes are those of ``csv.writer`` in its default dialect with every
    number written as ``repr(float(.))``: CRLF line ends and no quoting,
    since no id or float repr holds a comma, quote or line break.  Each
    path's rows are joined into one string and written at once.
    """
    times, nodes = ensemble.times.tolist(), ensemble.grid.nodes.tolist()
    prefixes = [f"{t!r},{x!r}," for t in times for x in nodes]
    with open(path, "w", newline="") as fh:
        fh.write("path_id,t,x,u\r\n")
        for p in range(ensemble.n_paths):
            values = ensemble.curves[p].ravel().tolist()
            cells = map(operator.add, prefixes, map(repr, values))  # "t,x,u"
            # the separator ends one row and starts the next with the path id
            fh.write(f"{p}," + f"\r\n{p},".join(cells) + "\r\n")


def _write_summary_csv(path: Path, ensemble) -> None:
    """Per time node, the p = 2 norm estimates of ``solver._norm_moments``."""
    means, se_means, sup_means, _ = _norm_moments(ensemble, 2.0)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "H2_script", "H2_bb", "se", "n_alive"])
        for j, t in enumerate(ensemble.times):
            script = math.sqrt(float(means[j]))
            bb = math.sqrt(float(sup_means[j]))
            se = float(se_means[j]) / (2.0 * script) if script > 0 else 0.0
            alive = int((ensemble.exit_index > j).sum())
            w.writerow([repr(float(t)), repr(script), repr(bb), repr(se), str(alive)])


def _write_checks_csv(path: Path, reports: list[CheckReport]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CHECKS_CSV_COLUMNS)
        for r in reports:
            w.writerow(report_row(r))


def _write_manifest(path: Path, sc: Scenario, seed: int, artifacts: list[str], extra: dict) -> None:
    manifest = {
        "package": "levyhjm",
        "seed": seed,
        "config_hash": sc.content_hash,
        "config": {
            "grid": sc.grid,
            "driver": sc.driver,
            "volatility": sc.volatility,
            "solver": sc.solver,
            "verify": sc.verify,
        },
        "artifacts": sorted(artifacts),
    }
    manifest.update(extra)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _simulate(sc: Scenario, bundle: ModelBundle, seed: int, out: Path, extra: dict) -> list[str]:
    """Run the configured solver and write curves.csv and summary.csv; returns their names.

    The ensemble is released on return, before the checks are joined.
    """
    cfg = solver_config(sc, seed)
    method = sc.solver.get("method", "euler")
    if method == "picard":
        result = picard_solve(bundle.model, bundle.u0, cfg)
        ensemble = result.ensemble
        extra["picard"] = {
            "sweeps": result.sweeps,
            "residuals": list(result.residuals),
            "converged": result.converged,
        }
    else:
        ensemble = euler_solve(bundle.model, bundle.u0, cfg)
    _write_curves_csv(out / "curves.csv", ensemble)
    _write_summary_csv(out / "summary.csv", ensemble)
    exited = ensemble.exit_index <= cfg.n_steps
    extra["n_localized"] = int(exited.sum())
    print(
        f"simulated {cfg.n_paths} paths x {cfg.n_steps} steps "
        f"({method}); {int(exited.sum())} localized"
    )
    return ["curves.csv", "summary.csv"]


def run_scenario(
    config_path: str | Path,
    out_dir: str | Path | None = None,
    seed_override: int | None = None,
    simulate: bool = True,
) -> int:
    """Execute a scenario end to end; returns the process exit code."""
    try:
        sc = load_scenario(config_path)
        seed = sc.seed if seed_override is None else _require_int(seed_override, "seed", 0)
    except ScenarioError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    out = Path(out_dir) if out_dir is not None else Path(sc.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        bundle = build_bundle(sc)
        artifacts = []
        extra: dict = {}

        checks = sc.verify["checks"] if sc.verify else []
        # the checks run in their own processes while this one simulates
        with run_verify_suite(sc, bundle, seed, checks) as join_checks:
            if simulate:
                artifacts += _simulate(sc, bundle, seed, out, extra)
            reports = join_checks()
        _write_checks_csv(out / "checks.csv", reports)
        artifacts.append("checks.csv")
        n_failed = sum(not r.passed for r in reports)
        extra["checks_failed"] = n_failed
        _write_manifest(out / "manifest.json", sc, seed, artifacts + ["manifest.json"], extra)
        for r in reports:
            flag = "PASS" if r.passed else "FAIL"
            print(f"[{flag}] {r.name}: lhs={r.lhs:.6g} rhs={r.rhs:.6g} ratio={r.ratio:.6g}")
        if n_failed:
            print(f"{n_failed} check(s) failed", file=sys.stderr)
            return EXIT_CHECK_FAILURE
        return EXIT_OK
    except Exception as exc:  # noqa: BLE001 - boundary of the CLI
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


def _parse_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _override_config(raw, dotted: str, value) -> str:
    """The YAML of config ``raw`` with the key at ``dotted`` set to ``value``."""
    raw = copy.deepcopy(raw)
    node = raw
    *head, last = dotted.split(".")
    for key in head:
        if not isinstance(node, dict) or key not in node:
            raise ScenarioError(f"sweep parameter {dotted!r}: no section {key!r}")
        node = node[key]
    if not isinstance(node, dict) or last not in node:
        raise ScenarioError(f"sweep parameter {dotted!r}: unknown key {last!r}")
    node[last] = value
    return yaml.safe_dump(raw, sort_keys=True)


def run_sweep(config_path: Path, param: str, values: list, out_dir: Path) -> int:
    # every override is made before any directory, so a config error leaves none
    try:
        _, raw = _read_config(config_path)
        texts = [_override_config(raw, param, v) for v in values]
    except ScenarioError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    rows = []
    worst = EXIT_OK
    for v, text in zip(values, texts):
        sub = out_dir / f"{param.replace('.', '_')}_{v}"
        sub.mkdir(parents=True, exist_ok=True)
        cfg_file = sub / "scenario.yaml"
        cfg_file.write_text(text)
        code = run_scenario(cfg_file, out_dir=sub)
        worst = max(worst, code)
        rows.append((param, v, code))
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["param", "value", "exit_code"])
        for row in rows:
            w.writerow([str(c) for c in row])
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="levyhjm",
        description="Levy-driven forward-curve simulation and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the solver and write CSV artifacts")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify", help="run the verification suite only")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--out", default=None)

    p_sweep = sub.add_parser("sweep", help="re-run a scenario over one parameter")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True, help="dotted key, e.g. solver.n_steps")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", default="sweep_out")

    args = parser.parse_args(argv)
    if args.command == "simulate":
        return run_scenario(args.config, out_dir=args.out, seed_override=args.seed)
    if args.command == "verify":
        return run_scenario(args.config, out_dir=args.out, seed_override=args.seed, simulate=False)
    values = [_parse_value(v) for v in args.values.split(",")]
    return run_sweep(Path(args.config), args.param, values, Path(args.out))


if __name__ == "__main__":
    sys.exit(main())
