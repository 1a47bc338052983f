"""The benchmark's workloads: fixed lists of `kslab` CLI invocations.

Every command carries a correctness check against a reference computed
here, independently of `kslab` (frozen values, closed forms, exact rational
arithmetic, or mpmath roots of the table the workload itself produced).
A check also records what the accuracy metrics need in a `Ledger`.

Why these three workloads: the seed's cost sits on three separate routes.
`rods-ladder` drives the mpmath root finder and the escalated contour at
wide boxes, `residual` drives the nested panel quadrature of the residual
check, and `tables` drives the tensor quadrature and Sobol sampling of
non-closed-form tables.  Each route is bypassed by the other two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import mpmath as mp

DIGITS_CAP = 16.0  # float64 resolves no more; an exact match reads as the cap

# criterion 02's frozen smallest zeros for hard rods (a = 1, M = L + 1)
RODS_ZC = {5: -0.416716009044, 10: -0.382349437679,
           20: -0.371894875117, 40: -0.368943927812}
# virial radius printed in the README for `virial --L 8 --M 9 --terms 10`
RODS_VIRIAL_RADIUS = 1.1275454


@dataclass
class Ledger:
    """What one pass's checks observed, for the accuracy metrics."""

    zc: dict = field(default_factory=dict)        # box label -> z_c
    lam: dict = field(default_factory=dict)       # box label -> lambda_c
    zc_err: list = field(default_factory=list)    # relative z_c errors
    tables: dict = field(default_factory=dict)    # box label -> table entries
    table_rel_err: list = field(default_factory=list)  # error/|value|, non-exact

    def zc_digits(self):
        return min((digits(e) for e in self.zc_err), default=0.0)

    def consistency_digits(self):
        both = [b for b in self.zc if b in self.lam]
        return min((digits(min(abs(self.lam[b] * z - 1.0)
                               for z in (self.zc[b], self.zc[b].conjugate())))
                    for b in both), default=0.0)

    def table_err_digits(self):
        if not self.table_rel_err:
            return DIGITS_CAP  # every entry exact
        return min(digits(e) for e in self.table_rel_err)


@dataclass
class Command:
    argv: list
    check: Callable  # (doc, ledger) -> list of failure messages
    route: Callable = lambda doc: ""


def digits(rel_err):
    """-log10 of a relative error, capped where float64 stops resolving."""
    if rel_err <= 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(rel_err))


def rel_err_conj(z, ref):
    """Relative error of z against ref or its conjugate (real polynomials)."""
    return min(abs(z - ref), abs(z - ref.conjugate())) / abs(ref)


def smallest_root(coeffs):
    """Smallest-modulus root of sum coeffs[m] z^m, in 50-digit mpmath."""
    with mp.workdps(50):
        roots = mp.polyroots([mp.mpf(c) for c in coeffs[::-1]],
                             maxsteps=200, extraprec=200)
        return complex(min(roots, key=abs))


def table_coeffs(entries):
    """c_m = Z_m / m! from a table's JSON entries, in mpmath."""
    with mp.workdps(50):
        out = []
        for e in entries:
            z = 0 if e["log_value"] is None else e["sign"] * mp.exp(e["log_value"])
            out.append(z / mp.factorial(e["m"]))
        return out


def table_value(e):
    return 0.0 if e["log_value"] is None else e["sign"] * math.exp(e["log_value"])


def log_series(c, N):
    """log of sum c[m] z^m (c[0] = 1) to order N, by the Xi' = Xi (log Xi)' recurrence."""
    c = list(c) + [0] * (N + 1 - len(c))
    ell = [0] * (N + 1)
    for k in range(1, N + 1):
        ell[k] = (k * c[k] - sum(j * ell[j] * c[k - j] for j in range(1, k))) / k
    return ell


def _mul(a, b, N):
    out = [Fraction(0)] * (N + 1)
    for i, ai in enumerate(a):
        for j in range(N + 1 - i):
            out[i + j] += ai * b[j]
    return out


def rods_virial_exact(L, a, N):
    """Finite-box hard-rod virial coefficients B_1..B_N in exact rationals."""
    Z = [Fraction(max(0, L - (m - 1) * a) ** m) if m else Fraction(1)
         for m in range(N + 1)]
    ell = log_series([Z[m] / math.factorial(m) for m in range(N + 1)], N)
    p = [x / L for x in ell]
    rho = [k * x / L for k, x in enumerate(ell)]
    # revert rho(z): find w with rho(w(r)) = r, order by order
    w = [Fraction(0)] * (N + 1)
    for n in range(1, N + 1):
        acc, power = Fraction(0), w[:]
        for j in range(2, n + 1):
            power = _mul(power, w, N)
            acc += rho[j] * power[n]
        w[n] = ((1 if n == 1 else 0) - acc) / rho[1]
    out, power = [Fraction(0)] * (N + 1), [Fraction(1)] + [Fraction(0)] * N
    for j in range(1, N + 1):
        power = _mul(power, w, N)
        for n in range(N + 1):
            out[n] += p[j] * power[n]
    return out


def tonks_density(n, a=1.0):
    """Thermodynamic-limit hard-rod density coefficient: (-n a)^(n-1) / (n-1)!."""
    return (-n * a) ** (n - 1) / math.factorial(n - 1)


# -- checks ---------------------------------------------------------------------


def _bound(ok, msg):
    return [] if ok else [msg]


def zeros_check(label, reference, certified=False):
    """z_c within 1e-9 of reference(ledger); with certified, the rods criteria."""

    def check(doc, ledger):
        sm = doc["zeros"]["smallest"]
        z = complex(sm["re"], sm["im"])
        err = rel_err_conj(z, complex(reference(ledger)))
        ledger.zc[label] = z
        ledger.zc_err.append(err)
        fails = _bound(err <= 1e-9, f"{label}: z_c {z} off its reference by {err:.1e}")
        if certified:
            fails += _bound(sm["derivative_certificate"] > 1e-6,
                            f"{label}: derivative certificate {sm['derivative_certificate']}")
            fails += _bound(sm["min_gap"] > 1e-6, f"{label}: min gap {sm['min_gap']}")
            fails += _bound(not sm["tie"], f"{label}: tie")
        return fails

    return check


def spectral_check(label):
    """Rank 1, pole order 1, small singular and nilpotent ratios, defects <= 1e-10."""

    def check(doc, ledger):
        lam = doc["leading"]["lambda_c"]
        ledger.lam[label] = complex(lam[0], lam[1])
        pr = doc["projection"]
        fails = _bound(pr["rank"] == 1 and pr["pole_order"] == 1,
                       f"{label}: rank {pr['rank']} pole order {pr['pole_order']}")
        for key in ("second_singular_ratio", "nilpotent_ratio"):
            fails += _bound(pr[key] <= 1e-8, f"{label}: {key} {pr[key]:.1e}")
        for key in ("idempotency_defect", "annihilation_defect",
                    "reduced_identity_defect"):
            fails += _bound(pr[key] <= 1e-10, f"{label}: {key} {pr[key]:.1e}")
        return fails

    return check


def table_check(label, z2_reference):
    """Every entry finite; Z_2 within its reported error of the closed form."""

    def check(doc, ledger):
        entries = doc["table"]["entries"]
        ledger.tables[label] = entries
        fails = []
        for e in entries:
            v, err = table_value(e), e["error"]
            if not (math.isfinite(v) and math.isfinite(err)):
                fails.append(f"{label}: Z_{e['m']} = {v} +- {err} is not finite")
            elif e["method"] != "exact":
                ledger.table_rel_err.append(err / abs(v) if v else math.inf)
        z2 = next(e for e in entries if e["m"] == 2)
        dev = abs(table_value(z2) - z2_reference)
        fails += _bound(dev <= z2["error"], f"{label}: Z_2 off the closed form "
                        f"{z2_reference:.6g} by {dev:.3g} > error {z2['error']:.3g}")
        return fails

    return check


def density_from_table_check(label, volume):
    """cluster density coefficients equal n ell_n / V of the cached table."""

    def check(doc, ledger):
        c = [float(x) for x in table_coeffs(ledger.tables[label])]
        rows = doc["density_series"]
        ell = log_series(c, len(rows) - 1)
        ref = [k * x / volume for k, x in enumerate(ell)]
        scale = max(1.0, max(abs(x) for x in ref))
        worst = max(abs(r["coefficient"] - ref[r["n"]]) for r in rows) / scale
        return _bound(worst <= 1e-9, f"{label}: density coefficients off by {worst:.1e}")

    return check


def virial_check(doc, ledger):
    rows = doc["virial_series"]
    exact = rods_virial_exact(8, 1, len(rows) - 1)
    worst = max(abs(r["coefficient"] / float(exact[r["n"]]) - 1) for r in rows if r["n"] >= 1)
    R = doc["radius"]["R"]
    return (_bound(worst <= 1e-9, f"virial coefficients off the exact ones by {worst:.1e}")
            + _bound(abs(R / RODS_VIRIAL_RADIUS - 1) <= 1e-4, f"virial radius {R}"))


def cluster_extrapolated_check(doc, ledger):
    rows = [r for r in doc["density_series"] if r["n"] >= 1]
    worst = max(abs(r["coefficient"] / tonks_density(r["n"]) - 1) for r in rows)
    rad = doc["radius"]
    fails = _bound(len(rows) >= 8, f"only {len(rows)} extrapolated orders kept")
    fails += _bound(worst <= 1e-3, f"extrapolated density off the Tonks series by {worst:.1e}")
    fails += _bound(rad is not None and abs(rad["R"] * math.e - 1) <= 1e-2,
                    f"radius {rad and rad['R']} is not 1/e")
    fails += _bound(rad is not None and rad["sign_pattern"] == "alternating",
                    "density series does not alternate")
    return fails


def claimcheck_check(doc, ledger):
    rows = {r["quantity"]: r for r in doc["rows"]}
    spec = rows.get("spectral radius vs 1/xi")
    sign = rows.get("density series sign pattern")
    fails = _bound(all(r["verdict"] in ("consistent", "inconsistent", "inconclusive")
                       for r in doc["rows"]), "unknown verdict")
    fails += _bound(spec is not None and abs(spec["measured"] * abs(RODS_ZC[5]) - 1) <= 1e-9,
                    "spectral radius is not 1/|z_c| at L = 5")
    fails += _bound(sign is not None and sign["verdict"] == "consistent",
                    "density sign pattern not consistent with alternating")
    return fails


def residual_check(exact):
    """Free gas: sup <= 1e-12.  Otherwise sup <= error bound <= 1e-6."""

    def check(doc, ledger):
        r = doc["residual"]
        sup, bound = r["sup_residual"], r["error_bound"]
        if exact:
            return _bound(sup <= 1e-12, f"free-gas residual {sup:.1e} > 1e-12")
        return _bound(sup <= bound <= 1e-6, f"residual {sup:.1e}, bound {bound:.1e}")

    return check


def _zeros_route(doc):
    return doc["zeros"]["method"]


def _spectral_route(doc):
    return doc["projection"]["precision"]


def _table_route(doc):
    return ",".join(e["method"] for e in doc["table"]["entries"])


def _residual_route(doc):
    return doc["residual"]["strategy"]


# -- the workloads ---------------------------------------------------------------


def rods_ladder(workdir):
    """Hard rods a = 1 at L = 5..40 (mpmath routes from L = 20), then the series."""
    cmds = []
    for L, zc in RODS_ZC.items():
        box, label = ["--L", str(L), "--M", str(L + 1)], f"rods L={L}"
        cmds.append(Command(["zeros", *box], zeros_check(label, lambda _, z=zc: z, True),
                            _zeros_route))
        cmds.append(Command(["spectral", *box], spectral_check(label), _spectral_route))
    cmds.append(Command(["virial", "--L", "8", "--M", "9", "--terms", "10"], virial_check))
    cmds.append(Command(["cluster", "--L", "20", "--terms", "12", "--extrapolate"],
                        cluster_extrapolated_check))
    cmds.append(Command(["claimcheck", "--L", "5", "--M", "6", "--terms", "14"],
                        claimcheck_check))
    return cmds


def residual(workdir):
    """Criterion-07 residuals.  zeros/spectral at the same boxes (milliseconds,
    float64 routes) give this workload its z_c and consistency digits."""
    rods = ["--L", "5", "--M", "6"]
    cmds = [Command(["zeros", *rods], zeros_check("rods L=5", lambda _: RODS_ZC[5]),
                    _zeros_route),
            Command(["spectral", *rods], spectral_check("rods L=5"), _spectral_route)]
    for M in (6, 8):
        box, label = ["--potential", "ideal", "--L", "1", "--M", str(M)], f"ideal M={M}"
        ref = smallest_root([1 / mp.factorial(m) for m in range(M + 1)])
        cmds.append(Command(["zeros", *box], zeros_check(label, lambda _, r=ref: r),
                            _zeros_route))
        cmds.append(Command(["spectral", *box], spectral_check(label), _spectral_route))
    cmds.append(Command(["residual", *rods, "--z", "0.2", "--n-max", "2",
                         "--order", "64", "--probes", "32"],
                        residual_check(exact=False), _residual_route))
    for M in (6, 8):
        for z in ("0.1", "0.5", "0.2+0.3j"):
            cmds.append(Command(["residual", "--potential", "ideal", "--L", "1",
                                 "--M", str(M), "--z", z, "--n-max", "4",
                                 "--order", "16", "--probes", "8"],
                                residual_check(exact=True), _residual_route))
    return cmds


def tables(workdir):
    """Step (1-D) and hard-disk (2-D) tables into a fresh cache, then reads from it."""
    cache = ["--cache-dir", str(workdir)]
    step = ["--potential", "step", "--a", "1", "--epsilon", "1", "--L", "5", "--M", "6"]
    disk = ["--potential", "hardcore", "--a", "0.7", "--L", "3,3", "--M", "4"]
    L, a, beta_eps = 5.0, 1.0, 1.0
    step_z2 = L * L - (1 - math.exp(-beta_eps)) * (2 * a * L - a * a)
    s, t = 3.0, 0.7 / 3.0
    disk_z2 = s**4 * (1 - (math.pi * t * t - 8 * t**3 / 3 + t**4 / 2))

    def table_root(label):
        return lambda ledger: smallest_root(table_coeffs(ledger.tables[label]))

    return [
        Command(["table", *step, *cache], table_check("step", step_z2), _table_route),
        Command(["zeros", *step, *cache], zeros_check("step", table_root("step")),
                _zeros_route),
        Command(["spectral", *step, *cache], spectral_check("step"), _spectral_route),
        Command(["cluster", *step, *cache, "--terms", "6"],
                density_from_table_check("step", L)),
        Command(["table", *disk, *cache], table_check("disk", disk_z2), _table_route),
        Command(["zeros", *disk, *cache], zeros_check("disk", table_root("disk")),
                _zeros_route),
        Command(["spectral", *disk, *cache], spectral_check("disk"), _spectral_route),
    ]


WORKLOADS = {"rods-ladder": rods_ladder, "residual": residual, "tables": tables}
