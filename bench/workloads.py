"""Benchmark workloads: configs drawn from a seed, and checks of the outputs.

All three workloads use the reference problem of ``configs/``: b = 1,
v0 = -2 sech^2, V = exp(-rho^2) exp(-x3^2), m = 0, q = 1, n = 1201,
Im theta = 0.3.  The program sees only the generated config.
"""

import csv
import math
import os
import random

REFERENCE = """\
problem.b = 1.0
problem.m = 0
problem.q = 1
problem.v0.family = sech2
problem.V.family = gaussian_product
numerics.n = {n}
numerics.J = {J}
"""


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _strata(rng, edges):
    """One log-uniform draw from each interval [edges[i], edges[i+1]]."""
    return [_log_uniform(rng, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def _join(values):
    return ", ".join(f"{v:.4g}" for v in values)


def pipeline_config(rng, tiny):
    """`landau all` with the bound, fgr, resonance and toeplitz task keys."""
    ks = _strata(rng, [0.3, 0.6, 1.2, 2.4, 4.0][: 3 if tiny else 5])
    eta_min = _log_uniform(rng, 3e-7, 3e-6) if tiny else _log_uniform(rng, 3e-9, 3e-8)
    eta_max = _log_uniform(rng, 3e-4, 3e-3)
    return REFERENCE.format(n=601 if tiny else 1201, J=5 if tiny else 7) + f"""\
task.k_values = {_join(ks)}
task.q_max = {1 if tiny else 2}
task.m_values = {"0" if tiny else "-1, 0, 1, 2"}
task.refine = 1
task.kappa_max = {0.06 if tiny else 0.08}
task.kappa_steps = {7 if tiny else 9}
task.im_theta = 0.3
task.q = 0
task.eta_min = {eta_min:.4g}
task.eta_max = {eta_max:.4g}
task.eta_points = {7 if tiny else 21}
"""


def decay_config(rng, tiny):
    """`landau dynamics`, resolvent method, three couplings in [0.02, 0.08]."""
    # one coupling near each of the shipped 0.02, 0.04 and 0.08, so that
    # every seed does the shipped work (4404-4406 factorizations)
    strata = [(0.04, 0.06)] if tiny else [(0.02, 0.025), (0.035, 0.045), (0.075, 0.08)]
    kappas = [rng.uniform(lo, hi) for lo, hi in strata]
    return REFERENCE.format(n=601 if tiny else 1201, J=5 if tiny else 7) + f"""\
task.kappa_values = {_join(kappas)}
task.delta_window = 0.25
task.im_theta = 0.3
task.method = resolvent
"""


def accumulation_config(rng, tiny):
    """`landau gap`, sign -, three eta fractions in [0.01, 0.1]."""
    # The smallest fraction decides how many m blocks are counted: the
    # Toeplitz eigenvalues fall by a factor 3 per m, and every fraction in
    # [0.010, 0.016] stops the count after m = 6, as the shipped 0.01 does.
    # So each seed counts the same 7 blocks x 3 fractions.
    fracs = _strata(rng, [0.010, 0.016]) + _strata(rng, [0.02, 0.05, 0.1])
    return REFERENCE.format(n=601 if tiny else 1201, J=4 if tiny else 6) + f"""\
task.sign = -
task.eta_fractions = {_join(sorted(fracs, reverse=True))}
task.eps = 0.1
"""


# -- output checks: the acceptance tolerances of tests/test_acceptance.py


def _table(out_dir, name):
    with open(os.path.join(out_dir, f"{name}.csv"), newline="",
              encoding="utf-8") as fh:
        return [{k: _value(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _value(text):
    if text in ("true", "false"):
        return text == "true"
    return float(text)


def check_pipeline(out_dir):
    problems = []
    lam = _table(out_dir, "all_bound_bound_states")[0]["lambda_richardson"]
    if not abs(lam + 1.0) < 1e-6:
        problems.append(f"Richardson lambda {lam!r} not within 1e-6 of -1")
    flux = max(r["flux_defect"] for r in _table(out_dir, "all_bound_scattering"))
    if not flux < 1e-6:
        problems.append(f"flux defect {flux!r} >= 1e-6")
    fgr = _table(out_dir, "all_fgr_fgr")[0]
    if not fgr["route_agreement"] < 1e-3 or fgr["flagged"]:
        problems.append(f"route agreement {fgr['route_agreement']!r} >= 1e-3 "
                        f"or flagged ({fgr['flagged']})")
    fit = _table(out_dir, "all_resonance_fit")[0]
    c0 = abs(complex(fit["c0_re"], fit["c0_im"]) - 1.0)
    if not c0 < 1e-6:
        problems.append(f"|c0 - 1| = {c0!r} >= 1e-6")
    c1 = fit["c1_rel_disagreement"]
    if not c1 < 1e-4:
        problems.append(f"c1_rel {c1!r} >= 1e-4")
    c2 = fit["im_c2_rel_disagreement"]
    if not c2 < 5e-2:
        problems.append(f"im_c2_rel {c2!r} >= 5e-2")
    margins = {"check.route_agreement": fgr["route_agreement"],
               "check.c1_rel": c1, "check.im_c2_rel": c2}
    return problems, margins


def check_decay(out_dir):
    problems = []
    rows = _table(out_dir, "dynamics_decay_fits")
    rate_err = [abs(r["rate_ratio"] - 1.0) for r in rows]
    if not max(rate_err) < 0.10:
        problems.append(f"decay rate off the golden rule by {max(rate_err)!r} >= 0.10")
    anorm = [r["abs_a_minus_1_over_k2"] for r in rows]
    if not (max(anorm) < 3.0 * min(anorm) and max(anorm) < 1.0):
        problems.append(f"|a - 1| / kappa^2 = {anorm!r} not O(kappa^2)")
    return problems, {"check.rate_err_max": max(rate_err)}


def check_accumulation(out_dir):
    problems = []
    rows = _table(out_dir, "gap_gap")
    slack = max(r["slack"] for r in rows)
    if not slack <= 3:
        problems.append(f"slack {slack!r} > 3")
    if not any(r["count"] > 0 for r in rows):
        problems.append("no eigenvalue counted")
    return problems, {"check.gap_slack_max": slack}


class Workload:
    def __init__(self, subcommand, make_config, check):
        self.subcommand = subcommand
        self.make_config = make_config
        self.check = check

    def config(self, seed, tiny=False):
        return self.make_config(random.Random(seed), tiny)


# why each was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    "pipeline": Workload("all", pipeline_config, check_pipeline),
    "decay": Workload("dynamics", decay_config, check_decay),
    "accumulation": Workload("gap", accumulation_config, check_accumulation),
}

CHECK_METRICS = ("check.route_agreement", "check.c1_rel", "check.im_c2_rel",
                 "check.rate_err_max", "check.gap_slack_max")
