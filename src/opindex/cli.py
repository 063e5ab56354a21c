"""Command-line front end: argument parsing, dispatch, result records.

Every command emits one ResultRecord as a table, CSV, or JSON.  Records
carry the command and parameter echo, named scalar results, any curve
payloads, the active sign-convention tags and the wall time.  The JSON
payload is deterministic for a fixed configuration except for the separate
``meta.wall_time_s`` field.

Exit codes: 0 accepted, 1 failed verification (a residual above its
threshold), 2 usage error, 3 numerically inconclusive.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import scattering, toeplitz, witten
from .constants import HALF_BOUND_TOL, LEVINSON_MAX_RESIDUAL, conventions
from .errors import (
    DomainError,
    InconclusiveError,
    NonConvergenceError,
    OpIndexError,
)

COMMANDS = (
    "toeplitz-example",
    "toeplitz-winding",
    "witten-estimate",
    "ptf-check",
    "compose-check",
    "levinson",
    "sigma-index",
    "corrected-index",
    "scan",
)


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: dict
    output_format: str = "table"
    out_path: str | None = None


@dataclass
class ResultRecord:
    command: str
    params: dict
    results: dict = field(default_factory=dict)
    curves: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    conventions: dict = field(default_factory=conventions)
    wall_time_s: float = 0.0

    # -- serialization -------------------------------------------------------
    def payload(self) -> dict:
        """The deterministic part of the record (no wall time)."""
        return {
            "command": self.command,
            "params": self.params,
            "results": self.results,
            "curves": self.curves,
            "residuals": self.residuals,
            "conventions": self.conventions,
        }

    def payload_json(self) -> str:
        """Deterministic serialisation of the payload, for comparisons."""
        return json.dumps(self.payload(), sort_keys=True, default=_json_default)

    def to_json(self) -> str:
        doc = {"record": self.payload(), "meta": {"wall_time_s": self.wall_time_s}}
        return json.dumps(doc, sort_keys=True, indent=2, default=_json_default)

    @classmethod
    def from_json(cls, text: str) -> "ResultRecord":
        doc = json.loads(text, object_hook=_json_object_hook)
        rec = doc["record"]
        return cls(
            command=rec["command"],
            params=rec["params"],
            results=rec["results"],
            curves=rec["curves"],
            residuals=rec["residuals"],
            conventions=rec["conventions"],
            wall_time_s=doc["meta"]["wall_time_s"],
        )

    def to_csv(self) -> str:
        """One flat table: scalar columns repeated next to any curve rows."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        scalars = {**self.results, **{f"residual_{k}": v for k, v in self.residuals.items()}}
        scalar_cols, scalar_vals = [], []
        for key in scalars:
            value = scalars[key]
            if isinstance(value, complex):
                scalar_cols += [f"{key}_re", f"{key}_im"]
                scalar_vals += [_fmt(value.real), _fmt(value.imag)]
            else:
                scalar_cols.append(key)
                scalar_vals.append(_fmt(value))
        if not self.curves:
            writer.writerow(scalar_cols)
            writer.writerow(scalar_vals)
            return buf.getvalue()
        name, curve = next(iter(self.curves.items()))
        writer.writerow(scalar_cols + [f"{name}.{c}" for c in curve["columns"]])
        for row in curve["rows"]:
            writer.writerow(scalar_vals + [_fmt(x) for x in row])
        return buf.getvalue()

    def to_table(self) -> str:
        lines = [f"command: {self.command}"]
        for key, value in self.params.items():
            lines.append(f"  param {key} = {value}")
        for key, value in self.results.items():
            lines.append(f"  {key} = {value}")
        for key, value in self.residuals.items():
            lines.append(f"  residual {key} = {value:.3e}")
        for name, curve in self.curves.items():
            lines.append(f"  curve {name}: {len(curve['rows'])} rows "
                         f"({', '.join(curve['columns'])})")
        for key, value in self.conventions.items():
            lines.append(f"  convention {key}: {value}")
        lines.append(f"  wall_time_s = {self.wall_time_s:.3f}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json() + "\n"
        if fmt == "csv":
            return self.to_csv()
        return self.to_table()


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _json_default(obj):
    if isinstance(obj, complex):
        return {"__complex__": [obj.real, obj.imag]}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def _json_object_hook(obj: dict):
    if set(obj.keys()) == {"__complex__"}:
        re_part, im_part = obj["__complex__"]
        return complex(re_part, im_part)
    return obj


def _curve(columns, rows) -> dict:
    return {"columns": list(columns), "rows": [list(map(_to_native, r)) for r in rows]}


def _to_native(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    return x


# ---------------------------------------------------------------------------
# parsing


_THETA_PROFILES = {
    "logistic": witten.ThetaProfile.logistic,
    "erf": witten.ThetaProfile.erf_profile,
}


def _finite_float(text: str) -> float:
    """A float flag's value; nan and +-inf are usage errors."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _float_list(text: str) -> list[float]:
    try:
        values = [_finite_float(tok) for tok in text.split(",") if tok.strip()]
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"bad numeric list {text!r}: {exc}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"empty numeric list {text!r}")
    return values


def _tag_list(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _theta_tags(text: str) -> str:
    """A comma list of distinct known connection profiles, returned as given."""
    tags = _tag_list(text)
    if not tags:
        raise argparse.ArgumentTypeError(f"empty profile list {text!r}")
    for tag in tags:
        if tag not in _THETA_PROFILES:
            raise argparse.ArgumentTypeError(
                f"unknown connection profile {tag!r}; "
                f"known: {', '.join(_THETA_PROFILES)}"
            )
    if len(set(tags)) < len(tags):
        raise argparse.ArgumentTypeError(f"repeated profile in {text!r}")
    return text


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its {command: subparser} map."""
    parser = argparse.ArgumentParser(
        prog="opindex",
        description="Operator-index laboratory: compressed-shift indices, "
        "heat-trace index estimates, scattering phase checks.",
    )
    parser.add_argument("--config", help="key = value file (or .json) with defaults")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", dest="output_format", default="table",
                        choices=("table", "csv", "json"), help="output format")
    common.add_argument("--out", dest="out_path", default=None,
                        help="write the record to this path instead of stdout")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("toeplitz-example", parents=[common],
                       help="index of the compressed half-shift (defects + trace)",
                       epilog="CSV schema (frozen): scalar columns index, "
                              "fedosov_value_re, fedosov_value_im, "
                              "defect_identity_1_exact, defect_identity_2_exact, "
                              "certain, residual_index; one row.")
    p.add_argument("--n", type=int, default=64, help="interior window size")

    p = sub.add_parser("toeplitz-winding", parents=[common],
                       help="winding number of a named symbol family",
                       epilog="CSV schema (frozen): winding, family, exponent; "
                              "one row.")
    p.add_argument("--family", choices=("exp", "moebius"), default="exp",
                   help="exp: exp(i k theta) on the circle; "
                        "moebius: ((x+i)/(x-i))^k on the line")
    p.add_argument("--k", type=int, default=1, help="exponent of the family")

    p = sub.add_parser("witten-estimate", parents=[common],
                       help="heat-trace plateau vs closed form for mu/(1+x^2)",
                       epilog="CSV schema (frozen): scalar columns plateau, "
                              "closed_form, uncertainty, plateau_window_lo, "
                              "plateau_window_hi, residual_plateau_vs_closed_form, "
                              "then curve columns heat_trace.t, heat_trace.rhs; "
                              "one row per schedule point.")
    p.add_argument("--mu", type=_finite_float, default=1.0, help="bump scale")
    p.add_argument("--half-width", type=_finite_float, default=40.0,
                   help="grid half width")
    p.add_argument("--points", type=int, default=1024, help="grid points")
    p.add_argument("--t0", type=_finite_float, default=1.0, help="first heat time")
    p.add_argument("--t-top", type=_finite_float, default=32.0, help="last heat time")
    p.add_argument("--t-count", type=int, default=11, help="schedule length")
    p.add_argument("--max-residual", type=_finite_float, default=0.02,
                   help="acceptance bound on |plateau - closed form|")

    p = sub.add_parser("ptf-check", parents=[common],
                       help="suspension heat-trace vs s-integral at fixed times",
                       epilog="CSV schema (frozen): scalar columns theta_profiles, "
                              "theta_spread, residual_ptf_relative, "
                              "residual_theta_spread, then curve columns ptf.t, "
                              "ptf.lhs, ptf.rhs, ptf.rel_residual; one row per "
                              "heat time.")
    p.add_argument("--t", type=_float_list, default=[0.5, 1.0, 2.0],
                   help="comma list of heat times")
    p.add_argument("--mu", type=_finite_float, default=1.0, help="bump scale")
    p.add_argument("--nt", type=int, default=48, help="time-grid points")
    p.add_argument("--nx", type=int, default=48, help="space-grid points")
    p.add_argument("--t-half-width", type=_finite_float, default=16.0)
    p.add_argument("--x-half-width", type=_finite_float, default=12.0)
    p.add_argument("--theta-tags", type=_theta_tags, default="logistic,erf",
                   help="comma list of connection profiles to compare")
    p.add_argument("--max-residual", type=_finite_float, default=0.1,
                   help="relative bound for |lhs - rhs|")
    p.add_argument("--max-theta-spread", type=_finite_float, default=0.02,
                   help="relative bound between connection profiles")

    p = sub.add_parser("compose-check", parents=[common],
                       help="additivity of the pair index along a two-leg path",
                       epilog="CSV schema (frozen): closed_form_first, "
                              "closed_form_second, closed_form_total, "
                              "plateau_first, plateau_second, plateau_total, "
                              "path_split_direct, path_split_sum, "
                              "residual_closed_form, residual_heat_estimate, "
                              "residual_path_splitting; one row.")
    p.add_argument("--mu1", type=_finite_float, default=0.7)
    p.add_argument("--mu2", type=_finite_float, default=0.9)
    p.add_argument("--half-width", type=_finite_float, default=40.0)
    p.add_argument("--points", type=int, default=1024)
    p.add_argument("--path-t", type=_finite_float, default=2.0,
                   help="heat time for the path-splitting residual")
    p.add_argument("--max-residual", type=_finite_float, default=0.02)

    p = sub.add_parser("levinson", parents=[common],
                       help="bound states vs phase winding for a square well",
                       epilog="CSV schema (frozen): scalar columns n_bound, "
                              "phase_winding, resonance_flag, resonance_evidence, "
                              "convention, residual_levinson, then curve columns "
                              "scattering.k, scattering.det_re, scattering.det_im, "
                              "scattering.unitarity_residual; one row per k sample. "
                              "resonance_evidence is psi'/psi of the zero-energy "
                              "solution at the right edge of the well; "
                              "resonance_flag is 1 exactly when its modulus is at "
                              f"most {HALF_BOUND_TOL:g} (HALF_BOUND_TOL), a "
                              "half-bound state.")
    p.add_argument("--well-depth", type=_finite_float, default=2.0)
    p.add_argument("--well-width", type=_finite_float, default=1.0)
    p.add_argument("--max-residual", type=_finite_float, default=LEVINSON_MAX_RESIDUAL)

    p = sub.add_parser("sigma-index", parents=[common],
                       help="closed-form pair index of a correction factor",
                       epilog="CSV schema (frozen): branch, sigma_index, "
                              "residual_sigma_index; one row.")
    p.add_argument("--branch", choices=("trivial", "antidiagonal", "general"),
                   default="antidiagonal")
    p.add_argument("--theta-angle", type=_finite_float, default=np.pi / 3,
                   help="eigenphase for the general branch")

    p = sub.add_parser("corrected-index", parents=[common],
                       help="index of the corrected scattering symbol and its split",
                       epilog="CSV schema (frozen): fredholm_index, n_bound, "
                              "w_scattering, w_sigma, sigma_branch, "
                              "residual_decomposition; one row.")
    p.add_argument("--well-depth", type=_finite_float, default=2.0)
    p.add_argument("--well-width", type=_finite_float, default=1.0)
    p.add_argument("--max-residual", type=_finite_float, default=0.05)

    p = sub.add_parser("scan", parents=[common],
                       help="index identities across a square-well depth scan",
                       epilog="CSV schema (frozen): scalar columns resonant_depth, "
                              "residual_worst_levinson, residual_worst_decomposition, "
                              "then curve columns scan.depth, scan.n_bound, "
                              "scan.winding, scan.resonance_flag, "
                              "scan.levinson_residual, scan.fredholm_index, "
                              "scan.w_scattering, scan.w_sigma, "
                              "scan.decomposition_residual; one row per well.")
    p.add_argument("--depths", type=_float_list,
                   default=[0.5, 1.0, 2.0, 5.0, 10.0, 25.0])
    p.add_argument("--well-width", type=_finite_float, default=1.0)
    p.add_argument("--max-residual", type=_finite_float, default=LEVINSON_MAX_RESIDUAL)
    # add_parser fills the subparsers action's choices: {command: subparser}
    return parser, sub.choices


def _read_config_file(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    values: dict = {}
    stripped = text.lstrip()
    if stripped.startswith("{"):
        values = json.loads(text)
        if not isinstance(values, dict):
            raise ValueError("json config must be an object")
        return values
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


@functools.cache
def _shared_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser tree of every parse without a config file, built once."""
    return _build_parser()


def parse_config(argv: list[str]) -> RunConfig:
    """Parse flags (and an optional config file) into a RunConfig.

    File values act as defaults; flags always win.  Unknown keys in the
    file are rejected the same way unknown flags are.  A parse with a config
    file builds a tree of its own, because ``set_defaults`` changes the
    parser it is called on; every other parse shares one tree.
    """
    parser, commands = _shared_parser()
    args, _ = parser.parse_known_args(argv)
    if args.command is None:
        parser.error("a command is required")
    if args.config:
        parser, commands = _build_parser()
        sub = commands[args.command]
        try:
            file_values = _read_config_file(args.config)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            parser.error(f"bad config file {args.config}: {exc}")
        actions = {a.dest: a for a in sub._actions}
        defaults = {}
        for key, value in file_values.items():
            dest = key.replace("-", "_")
            if dest not in actions:
                parser.error(f"unknown config key {key!r} for {args.command}")
            action = actions[dest]
            if action.type is not None:
                # JSON numbers and lists go through the flag's own type
                # function, a list as the comma list the flag would take
                if isinstance(value, list):
                    value = ",".join(str(item) for item in value)
                try:
                    value = action.type(str(value))
                except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
                    parser.error(f"bad value for config key {key!r}: {exc}")
            if action.choices is not None and value not in action.choices:
                parser.error(
                    f"config key {key!r}: {value!r} not in {sorted(action.choices)}"
                )
            defaults[dest] = value
        sub.set_defaults(**defaults)
    args = parser.parse_args(argv)
    # a list default is the parser's own object: copy it, so that no caller
    # shares it with the next parse
    params = {
        k: list(v) if isinstance(v, list) else v for k, v in vars(args).items()
        if k not in ("command", "config", "output_format", "out_path")
    }
    return RunConfig(
        command=args.command,
        params=params,
        output_format=args.output_format,
        out_path=args.out_path,
    )


# ---------------------------------------------------------------------------
# command implementations


def _run_toeplitz_example(p: dict, rec: ResultRecord) -> int:
    n = int(p["n"])
    report = toeplitz.fedosov_index(*toeplitz.build_paper_example(n), n)
    d1 = report.defect_1.interior_bands(n)
    d2 = report.defect_2.interior_bands(n)
    # T T' - Q is minus the projection onto the lowest integer-lattice mode
    # (site 0, the middle of the main diagonal); T' T - Q vanishes
    lowest = np.zeros(2 * n + 1)
    lowest[n] = -1.0
    defect1_exact = np.array_equal(d1.pop(0, None), lowest) and not any(
        np.any(diag) for diag in d1.values()
    )
    defect2_exact = not any(np.any(diag) for diag in d2.values())
    rec.results.update(
        index=report.verdict,
        fedosov_value=complex(report.fedosov_value),
        defect_identity_1_exact=defect1_exact,
        defect_identity_2_exact=defect2_exact,
        certain=report.certain,
    )
    rec.residuals["index"] = abs(report.fedosov_value - report.verdict)
    ok = report.verdict == -1 and defect1_exact and defect2_exact
    return 0 if ok else 1


def _run_toeplitz_winding(p: dict, rec: ResultRecord) -> int:
    k = int(p["k"])
    if p["family"] == "exp":
        symbol = toeplitz.CircleSymbol(lambda th: np.exp(1j * k * th))
    else:
        symbol = toeplitz.LineSymbol(
            lambda x: ((x + 1j) / (x - 1j)) ** k, sample_count=10000
        )
    w = toeplitz.winding_number(symbol)
    rec.results.update(winding=w, family=p["family"], exponent=k)
    return 0


def _witten_setup(p: dict):
    return witten.discretize_dirac(
        witten.GridSpec(float(p["half_width"]), int(p["points"]))
    )


def _run_witten_estimate(p: dict, rec: ResultRecord) -> int:
    a1 = _witten_setup(p)
    bump = witten.PerturbationProfile.lorentzian(float(p["mu"]))
    schedule = np.geomspace(float(p["t0"]), float(p["t_top"]), int(p["t_count"]))
    estimate = witten.witten_index_estimate(a1, bump, schedule)
    closed = witten.witten_index_closed_form(bump)
    resid = abs(estimate.plateau_value - closed)
    rec.results.update(
        plateau=estimate.plateau_value,
        closed_form=closed,
        uncertainty=estimate.uncertainty,
        plateau_window_lo=estimate.plateau_window[0],
        plateau_window_hi=estimate.plateau_window[1],
    )
    rec.residuals["plateau_vs_closed_form"] = resid
    rec.curves["heat_trace"] = _curve(
        ("t", "rhs"), zip(estimate.t_samples, estimate.rhs_values)
    )
    return 0 if resid <= float(p["max_residual"]) else 1


def _run_ptf_check(p: dict, rec: ResultRecord) -> int:
    x_grid = witten.GridSpec(float(p["x_half_width"]), int(p["nx"]))
    t_grid = witten.GridSpec(float(p["t_half_width"]), int(p["nt"]))
    a1 = witten.discretize_dirac(x_grid)
    bump = witten.PerturbationProfile.lorentzian(float(p["mu"]))
    times = [float(t) for t in p["t"]]
    tags = _tag_list(str(p["theta_tags"]))
    lhs_by_tag = {}
    for tag in tags:
        sus = witten.build_suspension(a1, bump, _THETA_PROFILES[tag](), t_grid, x_grid)
        spectrum = witten.suspension_spectrum(sus)
        lhs_by_tag[tag] = [witten.ptf_lhs(sus, t, spectrum) for t in times]
    rows = []
    worst = 0.0
    for i, t in enumerate(times):
        rhs = witten.heat_trace_rhs(a1, bump, t)
        lhs = lhs_by_tag[tags[0]][i]
        rel = abs(lhs - rhs) / max(abs(rhs), 0.1)
        worst = max(worst, rel)
        rows.append((t, lhs, rhs, rel))
    rec.curves["ptf"] = _curve(("t", "lhs", "rhs", "rel_residual"), rows)
    spread = 0.0
    if len(tags) > 1:
        for i in range(len(times)):
            vals = [lhs_by_tag[tag][i] for tag in tags]
            spread = max(
                spread, (max(vals) - min(vals)) / max(abs(v) for v in vals)
            )
    rec.results.update(theta_profiles=",".join(tags), theta_spread=spread)
    rec.residuals["ptf_relative"] = worst
    rec.residuals["theta_spread"] = spread
    ok = worst <= float(p["max_residual"]) and spread <= float(p["max_theta_spread"])
    return 0 if ok else 1


def _run_compose_check(p: dict, rec: ResultRecord) -> int:
    a1 = _witten_setup(p)
    b1 = witten.PerturbationProfile.lorentzian(float(p["mu1"]))
    b2 = witten.PerturbationProfile.lorentzian(float(p["mu2"]))
    report = witten.check_composition(a1, b1, b2)
    split = witten.path_splitting_check(a1, b1, b2, float(p["path_t"]))
    rec.results.update(
        closed_form_first=report.closed_forms[0],
        closed_form_second=report.closed_forms[1],
        closed_form_total=report.closed_forms[2],
        plateau_first=report.estimates[0].plateau_value,
        plateau_second=report.estimates[1].plateau_value,
        plateau_total=report.estimates[2].plateau_value,
        path_split_direct=split.direct,
        path_split_sum=split.first_leg + split.second_leg,
    )
    rec.residuals["closed_form"] = report.closed_form_residual
    rec.residuals["heat_estimate"] = report.heat_residual
    rec.residuals["path_splitting"] = split.residual
    scale = max(abs(split.direct), abs(split.first_leg), abs(split.second_leg), 1e-30)
    ok = (
        report.closed_form_residual <= 1e-12
        and report.heat_residual <= float(p["max_residual"])
        and split.residual <= 1e-3 * scale
    )
    return 0 if ok else 1


def _run_levinson(p: dict, rec: ResultRecord) -> int:
    well = scattering.Potential.square_well(
        float(p["well_depth"]), float(p["well_width"])
    )
    report = scattering.levinson_check(well)
    rec.results.update(
        n_bound=report.n_bound,
        phase_winding=report.phase_winding,
        resonance_flag=report.resonance_flag,
        resonance_evidence=report.resonance_evidence,
        convention=report.convention,
    )
    rec.residuals["levinson"] = report.residual
    curve = report.curve
    dets = curve.dets
    rec.curves["scattering"] = _curve(
        ("k", "det_re", "det_im", "unitarity_residual"),
        zip(curve.k_samples, dets.real, dets.imag, curve.unitarity_residuals),
    )
    return 0 if report.residual <= float(p["max_residual"]) else 1


def _sigma_from_branch(p: dict) -> scattering.SigmaFactor:
    branch = p["branch"]
    if branch == "trivial":
        return scattering.build_sigma(np.eye(2, dtype=complex))
    if branch == "antidiagonal":
        return scattering.build_sigma(np.diag([1.0, -1.0]).astype(complex))
    angle = float(p["theta_angle"])
    limit = np.diag([np.exp(-1j * angle), np.exp(1j * angle)])
    return scattering.build_sigma(limit)


def _run_sigma_index(p: dict, rec: ResultRecord) -> int:
    sigma = _sigma_from_branch(p)
    value = scattering.witten_index_sigma(sigma)
    target = 0.5 if sigma.branch == "antidiagonal-limit" else 0.0
    rec.results.update(branch=sigma.branch, sigma_index=value)
    rec.residuals["sigma_index"] = abs(value - target)
    return 0 if abs(value - target) <= 1e-6 else 1


def _corrected(curve: scattering.ScatteringCurve):
    lcurve = scattering.exp_resample(curve)
    sigma = scattering.build_sigma(lcurve.s_minus_inf)
    return sigma, scattering.corrected_index(lcurve, sigma)


def _run_corrected_index(p: dict, rec: ResultRecord) -> int:
    well = scattering.Potential.square_well(
        float(p["well_depth"]), float(p["well_width"])
    )
    sigma, report = _corrected(scattering.scattering_matrix(well))
    n = scattering.bound_states(well)
    rec.results.update(
        fredholm_index=report.fredholm_index,
        n_bound=n,
        w_scattering=report.w_scattering,
        w_sigma=report.w_sigma,
        sigma_branch=sigma.branch,
    )
    rec.residuals["decomposition"] = report.residual
    ok = report.fredholm_index == n and report.residual <= float(p["max_residual"])
    return 0 if ok else 1


def _run_scan(p: dict, rec: ResultRecord) -> int:
    depths = [float(d) for d in p["depths"]]
    width = float(p["well_width"])
    rows = []
    ok = True
    resonant_depth = scattering.find_resonant_depth(width)
    depths = depths + [resonant_depth]
    worst_levinson = 0.0
    worst_split = 0.0
    for depth in depths:
        lev = scattering.levinson_check(scattering.Potential.square_well(depth, width))
        _, cor = _corrected(lev.curve)
        ok = ok and lev.accepted and cor.fredholm_index == lev.n_bound
        ok = ok and cor.residual <= float(p["max_residual"])
        worst_levinson = max(worst_levinson, lev.residual)
        worst_split = max(worst_split, cor.residual)
        rows.append((
            depth, lev.n_bound, lev.phase_winding, lev.resonance_flag,
            lev.residual, cor.fredholm_index, cor.w_scattering, cor.w_sigma,
            cor.residual,
        ))
    rec.curves["scan"] = _curve(
        ("depth", "n_bound", "winding", "resonance_flag", "levinson_residual",
         "fredholm_index", "w_scattering", "w_sigma", "decomposition_residual"),
        rows,
    )
    rec.results["resonant_depth"] = resonant_depth
    rec.residuals["worst_levinson"] = worst_levinson
    rec.residuals["worst_decomposition"] = worst_split
    return 0 if ok else 1


_RUNNERS = {
    "toeplitz-example": _run_toeplitz_example,
    "toeplitz-winding": _run_toeplitz_winding,
    "witten-estimate": _run_witten_estimate,
    "ptf-check": _run_ptf_check,
    "compose-check": _run_compose_check,
    "levinson": _run_levinson,
    "sigma-index": _run_sigma_index,
    "corrected-index": _run_corrected_index,
    "scan": _run_scan,
}


def run(config: RunConfig) -> tuple[ResultRecord, int]:
    """Dispatch a parsed configuration and return (record, exit code)."""
    record = ResultRecord(command=config.command, params=dict(config.params))
    start = time.perf_counter()
    try:
        code = _RUNNERS[config.command](config.params, record)
    except (InconclusiveError, NonConvergenceError) as exc:
        record.results["error"] = str(exc)
        record.results["error_kind"] = "inconclusive"
        code = 3
    except DomainError as exc:
        # out-of-range parameter values are usage errors
        record.results["error"] = str(exc)
        record.results["error_kind"] = "usage"
        code = 2
    except OpIndexError as exc:
        record.results["error"] = str(exc)
        record.results["error_kind"] = type(exc).__name__
        code = 1
    record.wall_time_s = time.perf_counter() - start
    return record, code


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_config(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; normalise other exits too
        return 2 if exc.code not in (0,) else 0
    record, code = run(config)
    text = record.render(config.output_format)
    if config.out_path:
        with open(config.out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
