"""Batch CLI: scenario configs in, CSV artifacts and a run summary out.

Subcommands
-----------
``simulate --config FILE [--seed N] [--out DIR]``
    Run the configured solver, write curves.csv / summary.csv / checks.csv /
    manifest.json.  When the scenario has a ``verify`` section its checks run
    too and the exit code reflects them.
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
import csv
import hashlib
import json
import math
import operator
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .checks import (
    CHECKS_CSV_COLUMNS,
    CheckReport,
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
from .curvespace import WeightGrid, make_grid, norm_H
from .levy import (
    CompoundPoissonComponent,
    CumulantModel,
    DriverConfigError,
    GammaComponent,
    LevyDriver,
    WienerComponent,
    build_driver,
    gamma_geometric_family,
)
from .model import HjmModel, volatility_from_config
from .solver import SolverConfig, _initial_curve, euler_solve, picard_solve

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


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        raw_bytes = path.read_bytes()
    except OSError as exc:
        raise ScenarioError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(raw_bytes)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"config {path} is not valid YAML: {exc}") from exc
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
        _take(
            _require_mapping(driver["family"], "driver.family"),
            "driver.family",
            {"rule": True, "c0": True, "ratio": True, "rate": True, "d_trunc": True},
        )
        if driver["family"]["rule"] != "gamma_geometric":
            raise ScenarioError("driver.family.rule must be 'gamma_geometric'")

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
        for key in ("n_steps", "n_paths"):
            if key in verify:
                _require_int(verify[key], f"verify.{key}", 1)
        unknown = set(verify["checks"]) - set(CHECK_REGISTRY)
        if unknown:
            raise ScenarioError(
                f"unknown check(s) {sorted(unknown)}; available: {sorted(CHECK_REGISTRY)}"
            )

    scenario = Scenario(
        seed=seed,
        output_dir=str(raw.get("output_dir", "out")),
        grid=grid,
        driver=driver,
        volatility=volatility,
        solver=solver,
        verify=verify,
        source_bytes=raw_bytes,
    )
    _cross_validate(scenario)
    return scenario


def _cross_validate(sc: Scenario) -> None:
    bundle = build_bundle(sc)  # raises ScenarioError on any invariant breach
    if sc.verify:
        maturities = sc.verify.get("maturities", [])
        for T in maturities:
            if T > bundle.grid.x_max:
                raise ScenarioError(
                    f"verify.maturities entry {T} exceeds grid x_max {bundle.grid.x_max}"
                )
        for p in sc.verify.get("orders", []):
            if p > bundle.driver.p_max:
                raise ScenarioError(
                    f"verify.orders entry {p} exceeds driver p_max {bundle.driver.p_max}"
                )
        if "martingale_bonds" in sc.verify.get("checks", []):
            if not maturities:
                raise ScenarioError(
                    "verify.maturities required for the martingale_bonds check"
                )
            bond_horizon = float(sc.verify.get("horizons", [1.0])[0])
            if bond_horizon > min(maturities):
                raise ScenarioError(
                    f"bond-check horizon {bond_horizon} exceeds the shortest "
                    f"maturity {min(maturities)}"
                )
    try:
        _initial_curve(bundle.u0, solver_config(sc, sc.seed), bundle.grid)
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"invalid solver settings: {exc}") from exc
    if sc.solver.get("p", 2.0) > bundle.driver.p_max:
        raise ScenarioError(
            f"solver.p {sc.solver.get('p')} exceeds driver p_max {bundle.driver.p_max}"
        )


@dataclass(frozen=True)
class ModelBundle:
    grid: WeightGrid
    driver: LevyDriver
    model: HjmModel
    u0: np.ndarray


def build_bundle(sc: Scenario) -> ModelBundle:
    """Materialize grid, driver, model and initial curve from a scenario."""
    try:
        grid = make_grid(sc.grid["x_max"], sc.grid["n_points"], sc.grid["beta"])
        tail = 0.0
        if "components" in sc.driver:
            comps = []
            for c in sc.driver["components"]:
                kind = c["kind"]
                if kind == "wiener":
                    comps.append(WienerComponent(variance=float(c["variance"])))
                elif kind == "gamma":
                    comps.append(GammaComponent(c=float(c["c"]), rate=float(c["rate"])))
                else:
                    comps.append(
                        CompoundPoissonComponent(
                            intensity=float(c["intensity"]), jump_std=float(c["jump_std"])
                        )
                    )
        else:
            fam = sc.driver["family"]
            comps, tail = gamma_geometric_family(
                float(fam["c0"]), float(fam["ratio"]), float(fam["rate"]), int(fam["d_trunc"])
            )
        driver = build_driver(
            comps,
            r_ball=float(sc.driver["r_ball"]),
            delta=float(sc.driver["delta"]),
            p_max=float(sc.driver.get("p_max", 4.0)),
            tail_second_moment=tail,
        )
        vol = volatility_from_config(sc.volatility["name"], sc.volatility["params"])
        model = HjmModel(
            grid=grid,
            driver=driver,
            cumulant=CumulantModel(driver),
            vol=vol,
            drift_sign=float(sc.volatility.get("drift_sign", -1.0)),
        )
    except (DriverConfigError, ValueError, TypeError) as exc:
        raise ScenarioError(f"invalid scenario: {exc}") from exc
    ic = sc.solver["initial_curve"]
    u0 = ic["long"] + (ic["short"] - ic["long"]) * np.exp(-ic["decay"] * grid.nodes)
    return ModelBundle(grid=grid, driver=driver, model=model, u0=u0)


def solver_config(sc: Scenario, seed: int) -> SolverConfig:
    s = sc.solver
    return SolverConfig(
        horizon=float(s["horizon"]),
        n_steps=s["n_steps"],
        n_paths=s["n_paths"],
        picard_tol=float(s.get("picard_tol", 1e-8)),
        r_local=float(s.get("r_local", 1e6)),
        p=float(s.get("p", 2.0)),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Verification suite assembly
# ---------------------------------------------------------------------------


def _check_seed(root_seed: int, name: str) -> int:
    return (root_seed * 1000003 + zlib.crc32(name.encode())) % (2**31)


def _run_isometry(bundle: ModelBundle, vc: dict, seed: int) -> list[CheckReport]:
    n_steps = vc.get("n_steps", 8)
    n_paths = vc.get("n_paths", 20000)
    F = step_integrands(bundle.grid, bundle.driver.dim, n_steps, seed=_check_seed(seed, "isoF"))
    return [
        verify_isometry(
            bundle.grid, bundle.driver, F, horizon=1.0, n_paths=n_paths,
            seed=_check_seed(seed, "isometry"),
        )
    ]


def _run_cumulant_derivatives(bundle: ModelBundle, vc: dict, seed: int) -> list[CheckReport]:
    return verify_cumulant_derivatives(
        bundle.model.cumulant, n_points=100, seed=_check_seed(seed, "cumulant")
    )


def _run_exponential_moment(bundle: ModelBundle, vc: dict, seed: int) -> list[CheckReport]:
    return [
        verify_exponential_moment(bundle.driver, seed=_check_seed(seed, "expmoment"))
    ]


def _run_martingale_bonds(bundle: ModelBundle, vc: dict, seed: int) -> list[CheckReport]:
    maturities = vc.get("maturities")
    if not maturities:
        raise ScenarioError("verify.maturities required for the martingale_bonds check")
    cfg = SolverConfig(
        horizon=float(vc.get("horizons", [1.0])[0]),
        n_steps=vc.get("n_steps", 20),
        n_paths=vc.get("n_paths", 20000),
        seed=_check_seed(seed, "bond"),
    )
    return verify_martingale_bonds(bundle.model, bundle.u0, maturities, cfg)


def _run_maximal_inequalities(
    bundle: ModelBundle, vc: dict, seed: int, convolution: bool
) -> list[CheckReport]:
    orders = [float(p) for p in vc.get("orders", [2.0, 4.0])]
    horizons = [float(T) for T in vc.get("horizons", [0.5, 1.0, 2.0])]
    n_paths = vc.get("n_paths", 8000)
    factor_cap = float(vc.get("factor_cap", 3.0))
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


def _run_bichteler_jacod(bundle, vc, seed):
    return _run_maximal_inequalities(bundle, vc, seed, convolution=False)


def _run_convolution(bundle, vc, seed):
    return _run_maximal_inequalities(bundle, vc, seed, convolution=True)


CHECK_REGISTRY = {
    "isometry": _run_isometry,
    "cumulant_derivatives": _run_cumulant_derivatives,
    "exponential_moment": _run_exponential_moment,
    "martingale_bonds": _run_martingale_bonds,
    "bichteler_jacod": _run_bichteler_jacod,
    "convolution": _run_convolution,
}


def run_verify_suite(sc: Scenario, bundle: ModelBundle, seed: int) -> list[CheckReport]:
    """Run the configured checks; reports are merged sorted by name."""
    vc = sc.verify or {}
    reports = []
    for name in vc.get("checks", []):
        reports.extend(CHECK_REGISTRY[name](bundle, vc, seed))
    return sorted(reports, key=lambda r: r.name)


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
    norms = norm_H(ensemble.curves, ensemble.grid)  # (P, m+1)
    sq = np.square(norms)
    running_sup = np.maximum.accumulate(norms, axis=1)
    n = ensemble.n_paths
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "H2_script", "H2_bb", "se", "n_alive"])
        for j, t in enumerate(ensemble.times):
            mean_sq = float(sq[:, j].mean())
            script = math.sqrt(mean_sq)
            bb = math.sqrt(float(np.square(running_sup[:, j]).mean()))
            se_mean = float(sq[:, j].std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
            se = se_mean / (2.0 * script) if script > 0 else 0.0
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


def run_scenario(
    config_path: str | Path,
    out_dir: str | Path | None = None,
    seed_override: int | None = None,
    simulate: bool = True,
    verify: bool = True,
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

        reports: list[CheckReport] = []
        if simulate:
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
            artifacts += ["curves.csv", "summary.csv"]
            exited = ensemble.exit_index <= cfg.n_steps
            extra["n_localized"] = int(exited.sum())
            print(
                f"simulated {cfg.n_paths} paths x {cfg.n_steps} steps "
                f"({method}); {int(exited.sum())} localized"
            )

        if verify and sc.verify:
            reports = run_verify_suite(sc, bundle, seed)
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
    except ScenarioError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
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


def _override_config(config_path: Path, dotted: str, value, target: Path) -> None:
    raw = yaml.safe_load(config_path.read_bytes())
    node = raw
    *head, last = dotted.split(".")
    for key in head:
        if key not in node:
            raise ScenarioError(f"sweep parameter {dotted!r}: no section {key!r}")
        node = node[key]
    if last not in node:
        raise ScenarioError(f"sweep parameter {dotted!r}: unknown key {last!r}")
    node[last] = value
    target.write_text(yaml.safe_dump(raw, sort_keys=True))


def run_sweep(config_path: Path, param: str, values: list, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    worst = EXIT_OK
    for v in values:
        sub = out_dir / f"{param.replace('.', '_')}_{v}"
        sub.mkdir(parents=True, exist_ok=True)
        cfg_file = sub / "scenario.yaml"
        try:
            _override_config(config_path, param, v, cfg_file)
        except ScenarioError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
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
        return run_scenario(
            args.config, out_dir=args.out, seed_override=args.seed,
            simulate=False, verify=True,
        )
    values = [_parse_value(v) for v in args.values.split(",")]
    return run_sweep(Path(args.config), args.param, values, Path(args.out))


if __name__ == "__main__":
    sys.exit(main())
