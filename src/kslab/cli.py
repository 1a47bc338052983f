"""Command-line pipeline: tables, zeros, spectra, series, claim tables.

Every command is deterministic for a fixed configuration and seed; the
only run-to-run variation is the timestamp, which is isolated in the
"meta" block of JSON output so payloads can be compared byte for byte.
Exit codes: 0 success, 2 configuration error, 3 a required table is
missing from the cache, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .cluster import (check_orders, claim_row, density_coefficients_extrapolated,
                      density_series, log_series, radius_estimate, series_rows,
                      sign_pattern, virial_reversion)
from .errors import ConfigError, KslabError, MissingPrerequisite, NumericalError
from .integrals import Box, build_table, cached_table
from .ksop import build_ks_matrix, ks_residual
from .oracles import IdealModel, TonksModel
from .partition import (assemble, smallest_pick, smallest_zero, zeros, zeros_to_json,
                        zeros_to_rows)
from .potentials import PairPotential, regularity_C
from .spectral import leading_asymptotics, leading_projection, power_convergence, spectrum

# -- configuration plumbing ------------------------------------------------------


def _potential(args) -> PairPotential:
    dim = len(_extents(args))
    if getattr(args, "potential_file", None):
        try:
            with open(args.potential_file) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read {args.potential_file}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{args.potential_file} is not valid JSON: {exc}") from None
        if not isinstance(cfg, dict):
            raise ConfigError(f"{args.potential_file} holds no JSON object")
        p = PairPotential.from_config({"dimension": dim, **cfg})
        if p.dimension != dim:
            raise ConfigError(f"{args.potential_file} sets dimension {p.dimension}, "
                              f"but --L gives a box of dimension {dim}")
        return p
    cfg = {
        "family": args.potential,
        "a": args.a,
        "epsilon": args.epsilon,
        "beta": args.beta,
        "dimension": dim,
    }
    return PairPotential.from_config(cfg)


def _extents(args):
    if args.L is None:
        raise ConfigError("--L is required (box extent, comma-separated per axis)")
    try:
        ext = tuple(float(x) for x in str(args.L).split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse --L {args.L!r}: {exc}") from None
    return Box(ext).extents


def _table(args, M=None):
    """Z-table for the run: from the cache when one is expected, else built.

    With --cache-dir the table must already exist there, built with this
    run's --order and --seed (the pipeline contract: run the table
    subcommand first); without it the table is built in memory.
    """
    M = args.M if M is None else M
    p = _potential(args)
    box = Box(_extents(args))
    if args.cache_dir:
        cached, stored = cached_table(args.cache_dir, p, box, M, order=args.order,
                                      seed=args.seed)
        if cached is None:
            have = stored is not None and stored.M >= M
            why = (f"was built with {stored.built_with}, this run asks for order "
                   f"{args.order} and seed {args.seed}" if have else f"holds none at M={M}")
            raise MissingPrerequisite(f"the table cache under {args.cache_dir} {why} for "
                                      "this potential and box; run the table subcommand first")
        return p, box, cached
    return p, box, build_table(p, box, M, order=args.order, seed=args.seed)


def _meta(args, command):
    return {
        "command": command,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": args.seed,
        "version": __version__,
    }


def _say(text):
    """Print to stdout; once its reader has left (`kslab ... | head -1`), to devnull."""
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the command ends quietly, with its own exit status
        os.dup2(devnull := os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        os.close(devnull)


def _open_out(path, **kwargs):
    """path opened for writing; one that cannot be is a configuration error."""
    try:
        return open(path, "w", **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


def _emit(args, command, payload, rows, row_fields):
    """Write JSON (payload + meta) or CSV (rows); print a file note."""
    if args.format == "csv":
        out = args.out or f"{command}.csv"
        with _open_out(out, newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=row_fields)
            writer.writeheader()
            writer.writerows(rows)
        _say(f"wrote {out}")
        return
    doc = {"meta": _meta(args, command), **payload}
    # one top-level key per line, each on the C encoder (indent= is pure Python)
    text = "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                               for k, v in sorted(doc.items())) + "\n}"
    if args.out:
        with _open_out(args.out) as fh:
            fh.write(text + "\n")
        _say(f"wrote {args.out}")
    else:
        _say(text)


def _density(args):
    """Density activity series and its source, finite box or extrapolated."""
    p = _potential(args)
    N = args.terms
    if args.extrapolate:
        ext = _extents(args)
        if len(ext) != 1:
            raise ConfigError("--extrapolate needs a one-dimensional box")
        lengths = (ext[0], 2 * ext[0], 4 * ext[0])
        dens, errs, _ = density_coefficients_extrapolated(
            p, lengths, N, cache_dir=args.cache_dir, order=args.order, seed=args.seed)
        # keep only orders the ladder resolves: past a tenth of the value, the
        # last Richardson correction says finite-volume terms remain
        cut = N
        for k in range(1, N + 1):
            if dens[k] != 0.0 and errs[k] >= 0.1 * abs(dens[k]):
                cut = k - 1
                break
        return dens[: cut + 1], {"lengths": list(lengths), "kept_orders": cut,
                                 "errors": errs[: cut + 1].tolist()}
    # coefficient k of log Xi needs c_1..c_k, so the table must reach N
    _, box, table = _table(args, M=max(args.M, N))
    return density_series(log_series(assemble(table), N), box.volume), {"box": list(box.extents)}


# -- commands ----------------------------------------------------------------------


def cmd_table(args):
    p = _potential(args)
    box = Box(_extents(args))
    table = build_table(p, box, args.M, order=args.order, seed=args.seed,
                        cache_dir=args.cache_dir, force=args.force)
    rows = [
        {"m": e.m, "value": e.value, "sign": e.sign,
         "log_magnitude": e.log_value, "error": e.error, "method": e.method}
        for e in table.entries
    ]
    _emit(args, "table", {"table": table.to_json()}, rows,
          ["m", "value", "sign", "log_magnitude", "error", "method"])
    return 0


def cmd_zeros(args):
    _, _, table = _table(args)
    poly = assemble(table)
    zs = zeros(poly)
    sm = smallest_zero(zs)
    rows = zeros_to_rows(zs, sm)
    _say(f"smallest zero {sm.z_c:.12g}  certificate {sm.derivative_certificate:.3e}  "
         f"min gap {sm.min_gap:.3e}  tie {sm.tie}")
    _emit(args, "zeros", {"zeros": zeros_to_json(zs, sm, rows)}, rows,
          ["re", "im", "residual", "is_smallest", "gap"])
    return 0


def cmd_spectral(args):
    _, _, table = _table(args)
    poly = assemble(table)
    ks = build_ks_matrix(poly)
    spec = spectrum(ks)
    rp = leading_projection(ks, spec)
    power = power_convergence(ks, spec, rp.generators["P"])
    payload = {
        "operator": ks.to_json(),
        "eigenvalues": [[v.real, v.imag] for v in spec.eigenvalues],
        "leading": {
            "lambda_c": [spec.lam_c.real, spec.lam_c.imag],
            "subleading_modulus": spec.lam2_mod,
            "distance_gap": spec.dist_gap,
            "tie": spec.is_tie,
        },
        "projection": {
            "center": [rp.center.real, rp.center.imag],
            "radius": rp.radius,
            "n_nodes": rp.n_nodes,
            "precision": rp.precision,
            "rank": rp.rank,
            "second_singular_ratio": rp.second_singular_ratio,
            "idempotency_defect": rp.idempotency_defect,
            "annihilation_defect": rp.annihilation_defect,
            "reduced_identity_defect": rp.reduced_identity_defect,
            "nilpotent_ratio": rp.nilpotent_ratio,
            "pole_order": rp.pole_order,
        },
        "laurent": {m: {k: [[v.real, v.imag] for v in g] for k, g in gens.items()}
                    for m, gens in rp.generators.items()},
        "power_convergence": {
            "fitted_ratio": power.fitted_ratio,
            "median_ratio": power.median_ratio,
            "expected_ratio": power.expected_ratio,
            "n_used": power.n_used,
        },
    }
    rows = [{"re": v.real, "im": v.imag, "modulus": abs(v), "is_leading": int(v == spec.lam_c)}
            for v in spec.eigenvalues]
    _say(f"lambda_c {spec.lam_c:.10g}  rank(P) {rp.rank}  "
         f"pole order {rp.pole_order}  precision {rp.precision}")
    _emit(args, "spectral", payload, rows, ["re", "im", "modulus", "is_leading"])
    return 0


def cmd_asymptotics(args):
    _, box, table = _table(args)
    poly = assemble(table)
    if args.anchors:
        try:
            anchors = np.array([[float(c) for c in part.split(",")]
                                for part in args.anchors.split(";")])
        except ValueError as exc:
            raise ConfigError(f"cannot parse --anchors {args.anchors!r}: {exc}") from None
        if not np.all(np.isfinite(anchors)):
            raise ConfigError(f"--anchors {args.anchors!r} has a non-finite coordinate")
        if anchors.shape[1] != box.dimension:
            raise ConfigError(f"--anchors {args.anchors!r}: each anchor needs one "
                              f"coordinate per axis of --L ({box.dimension})")
    else:
        anchors = [[0.5 * e for e in box.extents]]
    res = leading_asymptotics(poly, anchors)
    rows = [{"angle": r.angle, "re": r.value.real, "im": r.value.imag,
             "change": r.change} for r in res.rays]
    _say(f"ray {res.ray_value:.10g}  residue {res.residue_value:.10g}  "
         f"agreement {res.agreement:.3e}")
    _emit(args, "asymptotics", {"asymptotics": res.to_json()}, rows,
          ["angle", "re", "im", "change"])
    return 0


def cmd_cluster(args):
    dens, info = _density(args)
    payload = {"density_series": series_rows(dens), "source": info}
    try:
        est = radius_estimate(dens)
        payload["radius"] = {
            "method": est.method, "R": est.R,
            "singularity": [est.singularity.real, est.singularity.imag],
            "sign_pattern": est.sign_pattern, "diagnostics": est.diagnostics,
        }
        _say(f"density series radius {est.R:.6g} ({est.sign_pattern})")
    except NumericalError as exc:
        payload["radius"] = None
        _say(f"radius not estimated: {exc}")
    _emit(args, "cluster", payload, payload["density_series"], ["n", "coefficient", "sign"])
    return 0


def cmd_virial(args):
    check_orders(args.terms)
    p = _potential(args)
    dens, info = _density(args)
    vir, est = virial_reversion(dens)
    C, _ = regularity_C(p)
    payload = {"virial_series": series_rows(vir), "source": info}
    if est is not None:
        payload["radius"] = {"method": est.method, "R": est.R,
                             "sign_pattern": est.sign_pattern}
        if C > 0:
            payload["bound"] = claim_row("virial radius vs half inverse kernel norm",
                                         1.0 / (2.0 * C), est.R,
                                         relation="at_least")
        _say(f"virial radius {est.R:.8g}")
    else:
        payload["radius"] = None
    _emit(args, "virial", payload, payload["virial_series"], ["n", "coefficient", "sign"])
    return 0


def cmd_claimcheck(args):
    check_orders(args.terms)  # every potential, before any table or operator work
    p = _potential(args)
    _, box, table = _table(args, M=max(args.M, args.terms))
    poly = assemble(table)  # the series run on the whole table, the operator at --M
    ks = build_ks_matrix(assemble(table.truncated(args.M)))
    C, _ = regularity_C(p)
    oracle = None
    if p.family == "hardcore" and box.dimension == 1:
        oracle = TonksModel(p.a)
    elif p.family == "ideal":
        oracle = IdealModel(box.volume)

    rows = []
    spec = spectrum(ks)
    zc_mod = abs(smallest_pick(spec.zeros))
    # compared at the claimed convergence radius xi = 1/C
    if C > 0:
        rows.append(claim_row("spectral radius vs 1/xi", C, spec.spectral_radius,
                              relation="at_most"))
    # the paper's main consequence for positive potentials (the free gas claims
    # no singularity): spectral radius 1/|z_c|, activity series radius |z_c|
    singular = p.is_positive and p.family != "ideal"
    if singular:
        rows.append(claim_row("spectral radius vs 1/|z_c|", 1.0 / zc_mod,
                              spec.spectral_radius))

    # the finite-box series come from the table built above
    dens = (_density(args)[0] if args.extrapolate else
            density_series(log_series(poly, args.terms), box.volume))
    try:
        measured_R = radius_estimate(dens).R
    except NumericalError:
        measured_R = None
    oracle_R = oracle.cluster_radius if oracle is not None else None
    if measured_R is not None:
        claimed_R = 1.0 / C if C > 0 else float("inf")
        rows.append(claim_row("activity series radius vs inverse kernel norm",
                              claimed_R, measured_R, oracle_R))
        if singular:
            rows.append(claim_row("activity series radius vs |z_c|", zc_mod, measured_R))

    if p.family == "ideal":
        # no claim of a singularity here: the zeros must recede as the
        # truncation grows, consistent with a zero-free pressure
        lo = assemble(build_table(p, box, max(1, args.M - 1),
                                  order=args.order, seed=args.seed))
        rows.append(claim_row("smallest zero modulus recedes with truncation",
                              abs(smallest_pick(zeros(lo))), zc_mod,
                              relation="at_least"))
    else:
        pattern = sign_pattern(dens)
        rows.append({
            "quantity": "density series sign pattern",
            "relation": "equals",
            "claimed": "alternating",
            "measured": pattern,
            "oracle": "alternating" if isinstance(oracle, TonksModel) else None,
            "uncertainty": None,
            "verdict": "consistent" if pattern == "alternating" else "inconsistent",
        })
        _, vest = virial_reversion(dens)
        if vest is not None and C > 0:
            rows.append(claim_row(
                "virial radius vs half inverse kernel norm",
                1.0 / (2.0 * C), vest.R,
                1.0 / p.a if isinstance(oracle, TonksModel) else None,
                relation="at_least"))
    payload = {
        "policy": {
            "uncertainty": "max(2 |measured - oracle|, 2% of measured)",
            "consistent_within": "1 uncertainty",
            "inconsistent_beyond": "3 uncertainties",
        },
        "rows": rows,
    }
    for r in rows:
        _say(f"{r['quantity']}: measured {r['measured']} vs claimed "
             f"{r['claimed']} -> {r['verdict']}")
    _emit(args, "claimcheck", payload, rows,
          ["quantity", "relation", "claimed", "measured", "oracle",
           "uncertainty", "verdict"])
    return 0


def cmd_residual(args):
    _, _, table = _table(args)
    poly = assemble(table)
    try:
        z = complex(args.z)
    except ValueError:
        raise ConfigError(f"cannot parse --z {args.z!r} as a complex number") from None
    report = ks_residual(poly, z, args.n_max, order=args.order, count=args.probes,
                         seed=args.seed)
    gap = max(lv.truncation_gap for lv in report.levels)
    worst = max(report.levels, key=lambda lv: lv.coefficient_residual)
    _say(f"sup residual {report.sup_residual:.3e}  error bound "
         f"{report.error_bound:.3e}  truncation gap {gap:.3e}  coefficient residual "
         f"{worst.coefficient_residual:.3e} within {worst.coefficient_bound:.3e}")
    rows = [
        {"n": lv.n, "sup_residual": lv.sup_residual, "error_bound": lv.error_bound,
         "truncation_gap": lv.truncation_gap, "n_probes": lv.n_probes}
        for lv in report.levels
    ]
    _emit(args, "residual", {"residual": report.to_json()}, rows,
          ["n", "sup_residual", "error_bound", "truncation_gap", "n_probes"])
    return 0


# -- parser ------------------------------------------------------------------------


@functools.cache  # once per process: argparse asks the terminal and gettext per flag
def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--potential", default="hardcore",
                        choices=("ideal", "hardcore", "step", "custom"))
    common.add_argument("--potential-file", default=None,
                        help="JSON potential config; overrides the flag form")
    common.add_argument("--a", type=float, default=1.0, help="core diameter")
    common.add_argument("--epsilon", type=float, default=0.0, help="step height")
    common.add_argument("--beta", type=float, default=1.0)
    common.add_argument("--L", default=None,
                        help="box extents, comma-separated per axis")
    common.add_argument("--M", type=int, default=8, help="truncation order")
    common.add_argument("--order", type=int, default=16, help="quadrature order (residual: "
                        "the cap on Gauss nodes per panel)")
    common.add_argument("--seed", type=int, default=42)
    common.add_argument("--out", default=None, help="output file path")
    common.add_argument("--format", default="json", choices=("json", "csv"))
    common.add_argument("--cache-dir", default=None)

    parser = argparse.ArgumentParser(
        prog="kslab",
        description="Partition zeros, operator spectra, and series analysis "
                    "for finite-volume gases")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table", parents=[common]).add_argument(
        "--force", action="store_true", help="rebuild even if cached")
    sub.add_parser("zeros", parents=[common])
    sub.add_parser("spectral", parents=[common])
    sp_asym = sub.add_parser("asymptotics", parents=[common])
    sp_asym.add_argument("--anchors", default=None,
                         help="semicolon-separated anchors, comma per axis")
    for name in ("cluster", "virial", "claimcheck"):
        sp_c = sub.add_parser(name, parents=[common])
        sp_c.add_argument("--terms", type=int, default=14,
                          help="series length for cluster analysis")
        sp_c.add_argument("--extrapolate", action="store_true",
                          help="Richardson over box lengths L, 2L, 4L")
    sp_res = sub.add_parser("residual", parents=[common])
    sp_res.add_argument("--z", default="0.1", help="activity, python complex syntax")
    sp_res.add_argument("--n-max", type=int, default=3)
    sp_res.add_argument("--probes", type=int, default=64)
    return parser


_DISPATCH = {
    "table": cmd_table,
    "zeros": cmd_zeros,
    "spectral": cmd_spectral,
    "asymptotics": cmd_asymptotics,
    "cluster": cmd_cluster,
    "virial": cmd_virial,
    "claimcheck": cmd_claimcheck,
    "residual": cmd_residual,
}


# least admissible values of integer options (two Gauss nodes per panel)
_INT_FLOORS = (("seed", 0), ("M", 0), ("order", 2), ("terms", 0))


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, floor in _INT_FLOORS:
            value = getattr(args, name, floor)
            if value < floor:
                raise ConfigError(f"--{name.replace('_', '-')} {value} is below {floor}")
        if args.cache_dir and os.path.exists(args.cache_dir) and not os.path.isdir(args.cache_dir):
            raise ConfigError(f"--cache-dir {args.cache_dir} is not a directory")
        return _DISPATCH[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MissingPrerequisite as exc:
        print(f"missing prerequisite: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except KslabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
