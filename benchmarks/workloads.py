"""The benchmark's workloads and the checks on their outputs.

Each workload builds its inputs from the benchmark seed, runs one round of
cfmimo work per :meth:`run_round` call through the package's public entry
points, and checks what came out against computations made apart from the
program (``reference``) or against properties the method must have.  A
round is one operation: one CLI command, or one pass over the closed-form
grid.  Checks never compare against a stored copy of earlier output.

Check functions return a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
from pathlib import Path

import numpy as np

import reference as ref
from cfmimo import (cli, downlink, experiment, propagation, scenario,
                    uplink)

SCHEMES = ("mrc-ul", "cbf-dl", "zfp-dl")
FULL_NT = (1, 2, 4, 10, 12, 15, 20, 25, 30, 50)
FULL_RATIOS = (0.05, 0.1, 0.25, 0.5)
QUICK_NT = (1, 2, 4, 10, 12, 15, 20, 30)
VALIDATE_ROWS = tuple(f"{side}_{term}" for side in ("ul", "cbf")
                      for term in ("desired", "uncertainty", "est_error",
                                   "inter_user", "noise", "sinr")) \
    + ("zfp_sinr", "zfp_est_iui")


class OperationFailed(RuntimeError):
    """A round whose command exited with a non-zero code."""


def close_to_print(printed: float, exact: float) -> bool:
    """True when ``printed`` is ``exact`` rounded to six significant digits."""
    if exact == 0.0:
        return printed == 0.0
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(exact))) - 5)
    return abs(printed - exact) <= half_unit * (1.0 + 1e-6)


def _noise(cfg) -> float:
    return ref.noise_power_w(cfg.noise_density_dbm_hz, cfg.noise_figure_db,
                             cfg.bandwidth_hz)


def drop_profile(cfg, drop_index: int):
    """Large-scale state of one drop, drawn as the drop runner draws it."""
    rng = np.random.default_rng(scenario.drop_seed(cfg.master_seed,
                                                   drop_index))
    topo = propagation.place_topology(cfg, rng)
    return propagation.fading_profile(cfg, topo, rng)


def reference_rates(cfg, profile) -> dict:
    """Independent MRC and CBF per-user rates of one drop."""
    n_t = cfg.antennas_per_ap
    s2 = _noise(cfg)
    return {"mrc-ul": ref.rate(ref.mrc_sinr(profile.alpha, profile.beta, n_t,
                                            cfg.ue_tx_power, s2)),
            "cbf-dl": ref.rate(ref.cbf_sinr(profile.alpha, profile.beta, n_t,
                                            cfg.ap_per_antenna_tx_power, s2))}


def run_cli(argv) -> tuple[int, str]:
    """``cli.main(argv)`` with its output captured: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# sweep workloads


class SweepWorkload:
    """``cfmimo sweep`` through ``cli.main`` on a fixed grid and seed."""

    def __init__(self, name, seed, out_dir: Path, total_antennas, users,
                 drops, jobs, nt_list):
        self.name, self.jobs = name, jobs
        self.nt_list = tuple(nt_list)
        self.ratios = FULL_RATIOS
        self.base = scenario.ScenarioConfig(
            total_antennas=total_antennas, num_users=users, drops=drops,
            chi_samples=500, master_seed=seed)
        self.config_path = out_dir / f"{name}.config.json"
        self.csv_path = out_dir / f"{name}.csv"
        with open(self.config_path, "w") as fh:
            json.dump({"total_antennas": total_antennas, "num_users": users,
                       "chi_samples": 500}, fh)
        self.argv = ["sweep", "--config", str(self.config_path),
                     "--seed", str(seed), "--drops", str(drops),
                     "--jobs", str(jobs), "--output", str(self.csv_path)]
        if self.nt_list != FULL_NT:
            self.argv += ["--nt", ",".join(map(str, self.nt_list))]
        self.drops_per_round = drops * len(self.nt_list)

    def run_round(self):
        code, _ = run_cli(self.argv)
        if code != 0:
            raise OperationFailed(f"cfmimo sweep exited {code}")

    def output(self) -> str:
        return self.csv_path.read_text()

    def check(self, text: str) -> list[str]:
        problems = check_sweep_csv(text, self.base, self.nt_list, self.ratios)
        if self.jobs > 1:
            problems += self.check_one_worker(text)
        return problems

    def check_one_worker(self, text: str) -> list[str]:
        """The CSV must not depend on the worker count."""
        serial = self.csv_path.with_name(f"{self.name}.jobs1.csv")
        argv = list(self.argv)
        argv[argv.index("--jobs") + 1] = "1"
        argv[argv.index("--output") + 1] = str(serial)
        code, _ = run_cli(argv)
        if code != 0:
            return [f"one-worker reference sweep exited {code}"]
        if serial.read_text() != text:
            return [f"CSV with --jobs {self.jobs} differs from the "
                    f"one-worker run of the same inputs"]
        return []


def check_sweep_csv(text: str, base, nt_list, ratios) -> list[str]:
    """Check a sweep CSV against the reference and the method's properties."""
    problems: list[str] = []
    rows = list(csv.DictReader(io.StringIO(text)))
    expected = {(s, n, r) for s in SCHEMES for n in nt_list for r in ratios}
    got = {(r["scheme"], int(r["n_t"]), float(r["cv_cf_ratio"])) for r in rows}
    if got != expected or len(rows) != len(expected):
        return [f"CSV rows {sorted(got)} do not cover the grid "
                f"{sorted(expected)} exactly once"]

    floats = ("sum_rate_mean", "se_p05", "se_p50", "cost_total", "gamma_ce")
    for r in rows:
        where = f"{r['scheme']} n_t={r['n_t']} ratio={r['cv_cf_ratio']}"
        n_t = int(r["n_t"])
        n_ap = base.total_antennas // n_t
        ints = (int(r["n_ap"]), int(r["k"]), int(r["drops"]),
                int(r["master_seed"]))
        if ints != (n_ap, base.num_users, base.drops, base.master_seed):
            problems.append(f"{where}: n_ap/k/drops/seed {ints}")
        vals = {k: float(r[k]) for k in floats}
        if not all(math.isfinite(v) and v > 0 for v in vals.values()):
            problems.append(f"{where}: non-finite or non-positive value {vals}")
            continue
        ratio = float(r["cv_cf_ratio"])
        if not close_to_print(vals["cost_total"], n_ap * (1.0 + n_t * ratio)):
            problems.append(f"{where}: cost_total {vals['cost_total']} != "
                            f"n_ap (1 + n_t ratio)")
        if not math.isclose(vals["gamma_ce"],
                            vals["sum_rate_mean"] / vals["cost_total"],
                            rel_tol=2e-5):
            problems.append(f"{where}: gamma_ce is not sum rate per cost")

    by_key = {(r["scheme"], int(r["n_t"]), float(r["cv_cf_ratio"])): r
              for r in rows}
    for s in SCHEMES:
        for n_t in nt_list:
            gam = [float(by_key[(s, n_t, r)]["gamma_ce"]) for r in sorted(ratios)]
            if not all(a > b for a, b in zip(gam, gam[1:])):
                problems.append(f"{s} n_t={n_t}: gamma_ce {gam} not strictly "
                                f"decreasing in the cost ratio")
    if 1 in nt_list:
        r0 = min(ratios)
        m = {s: float(by_key[(s, 1, r0)]["sum_rate_mean"]) for s in SCHEMES}
        if not m["zfp-dl"] > m["cbf-dl"] > m["mrc-ul"]:
            problems.append(f"n_t=1 sum rates do not rank zfp > cbf > mrc: {m}")

    for n_t in nt_list:
        cfg = scenario.ScenarioConfig(
            total_antennas=base.total_antennas, antennas_per_ap=n_t,
            num_users=base.num_users, drops=base.drops,
            master_seed=base.master_seed)
        per_drop = [reference_rates(cfg, drop_profile(cfg, d))
                    for d in range(cfg.drops)]
        for s in ("mrc-ul", "cbf-dl"):
            want = ref.summarize([d[s] for d in per_drop])
            row = by_key[(s, n_t, min(ratios))]
            for col, exact in want.items():
                if not close_to_print(float(row[col]), exact):
                    problems.append(f"{s} n_t={n_t}: {col} {row[col]} but "
                                    f"the reference gives {exact:.9g}")
    return problems


# ---------------------------------------------------------------------------
# closed-form grid


class ClosedFormGrid:
    """Many drops over the n_t grid through the library's closed forms."""

    jobs = 1

    def __init__(self, seed, out_dir: Path, drops: int = 100):
        self.configs = [scenario.ScenarioConfig(
            total_antennas=300, antennas_per_ap=n_t, num_users=16,
            drops=drops, master_seed=seed) for n_t in FULL_NT]
        self.eta = uplink.UplinkPowerControl.full_power(16)
        self.drops_per_round = drops * len(FULL_NT)
        self._result = None

    def run_round(self, audit=None) -> None:
        """Per n_t: mean sum rate and pooled p05/p50 of MRC and CBF.

        ``audit(cfg, profile, power_control, rates)`` sees every drop; the
        timed rounds pass none.
        """
        out = {}
        for cfg in self.configs:
            sums = {"mrc-ul": [], "cbf-dl": []}
            pooled = {"mrc-ul": [], "cbf-dl": []}
            for d in range(cfg.drops):
                profile = drop_profile(cfg, d)
                pc = downlink.cbf_power(profile)
                rates = {
                    "mrc-ul": uplink.per_user_rate(
                        uplink.uplink_sinr_all(profile, self.eta, cfg)),
                    "cbf-dl": uplink.per_user_rate(
                        downlink.cbf_sinr_all(profile, pc, cfg)),
                }
                if audit is not None:
                    audit(cfg, profile, pc, rates)
                for s, r in rates.items():
                    sums[s].append(float(r.sum()))
                    pooled[s].append(r)
            out[cfg.antennas_per_ap] = {
                s: {"sum_rate_mean": float(np.mean(sums[s])),
                    "se_p05": experiment.percentile(np.concatenate(pooled[s]),
                                                    0.05),
                    "se_p50": experiment.percentile(np.concatenate(pooled[s]),
                                                    0.50)}
                for s in sums}
        self._result = out

    def output(self) -> dict:
        return self._result

    def check(self, result: dict) -> list[str]:
        """Re-run the grid untimed, checking every drop as it is made."""
        problems: list[str] = []
        per_drop: dict = {}

        def audit(cfg, profile, pc, rates):
            problems.extend(check_grid_drop(cfg, profile, pc, rates))
            per_drop.setdefault(cfg.antennas_per_ap, []).append(
                reference_rates(cfg, profile))

        self.run_round(audit)
        if self._result != result:
            problems.append("timed and audited grid rounds disagree")
        want = {n_t: {s: ref.summarize([d[s] for d in drops])
                      for s in ("mrc-ul", "cbf-dl")}
                for n_t, drops in per_drop.items()}
        return problems + check_grid_summary(result, want)


def check_grid_drop(cfg, profile, pc, rates) -> list[str]:
    """One closed-form drop: alpha <= beta, exact CBF power, reference SINRs."""
    problems = []
    where = f"n_t={cfg.antennas_per_ap}"
    if not (profile.alpha <= profile.beta).all():
        problems.append(f"{where}: estimate variance alpha exceeds beta")
    # expected radiated power per antenna over its budget: eta_q sum_k a_qk
    load = np.asarray(pc.eta_site) * profile.alpha.sum(axis=1)
    err = float(np.max(np.abs(load - 1.0)))
    if not err <= 1e-12:
        problems.append(f"{where}: CBF per-antenna power off its budget by "
                        f"{err:.3e} relative")
    want = reference_rates(cfg, profile)
    for s in ("mrc-ul", "cbf-dl"):
        if not np.allclose(rates[s], want[s], rtol=1e-9, atol=0.0):
            problems.append(f"{where}: {s} per-user rates differ from the "
                            f"reference by up to "
                            f"{np.max(np.abs(rates[s] - want[s])):.3e}")
    return problems


def check_grid_summary(result: dict, want: dict) -> list[str]:
    problems = []
    if set(result) != set(want):
        return [f"grid covers n_t {sorted(result)}, expected {sorted(want)}"]
    for n_t, schemes in want.items():
        for s, stats in schemes.items():
            for col, exact in stats.items():
                got = result[n_t][s][col]
                if not math.isclose(got, exact, rel_tol=1e-9):
                    problems.append(f"n_t={n_t} {s}: {col} {got} but the "
                                    f"reference gives {exact}")
    return problems


# ---------------------------------------------------------------------------
# validate


class Validate:
    """``cfmimo validate`` on the stock reference instance at 100k samples.

    The instance is the one ``validate`` inspects without a config or seed:
    drop 0 of a 40-antenna, 2-per-site, 4-user deployment under master seed
    0.  It does not follow the benchmark seed: with the fixed relative
    tolerances of the report, some reference instances drawn from other
    master seeds fail a row by chance.
    """

    jobs = 1
    samples = 100_000
    drops_per_round = 1

    def __init__(self, seed, out_dir: Path):
        self.argv = ["validate"]
        self.cfg = scenario.ScenarioConfig(total_antennas=40,
                                           antennas_per_ap=2, num_users=4,
                                           master_seed=0)
        self._text = None

    def run_round(self):
        code, text = run_cli(self.argv)
        if code != 0:
            raise OperationFailed(f"cfmimo validate exited {code}")
        self._text = text

    def output(self) -> str:
        return self._text

    def check(self, text: str) -> list[str]:
        return check_validate_report(text, self.cfg, self.samples)


def check_validate_report(text: str, cfg, samples: int) -> list[str]:
    """Every oracle row passes; the MRC/CBF closed forms match the reference."""
    lines = text.strip().splitlines()
    if not lines or lines[-1].strip() != "all checks pass":
        return ["validate report does not end with 'all checks pass'"]
    rows = {}
    for line in lines[1:-1]:
        parts = line.split()
        if len(parts) != 7:
            return [f"unexpected report line {line!r}"]
        rows[parts[0]] = parts
    problems = []
    if tuple(rows) != VALIDATE_ROWS:
        problems.append(f"report rows {tuple(rows)} != {VALIDATE_ROWS}")
    for name, parts in rows.items():
        if parts[6] != "pass":
            problems.append(f"oracle row {name} did not pass")
        if int(parts[5]) != samples:
            problems.append(f"oracle row {name} used {parts[5]} samples")
    profile = drop_profile(cfg, 0)
    s2 = _noise(cfg)
    n_t = cfg.antennas_per_ap
    want = {"ul_sinr": ref.mrc_sinr(profile.alpha, profile.beta, n_t,
                                    cfg.ue_tx_power, s2)[0],
            "cbf_sinr": ref.cbf_sinr(profile.alpha, profile.beta, n_t,
                                     cfg.ap_per_antenna_tx_power, s2)[0]}
    for name, exact in want.items():
        if name in rows and not close_to_print(float(rows[name][1]), exact):
            problems.append(f"{name} closed form {rows[name][1]} but the "
                            f"reference gives {exact:.9g}")
    return problems


# name -> constructor taking (seed, out_dir)
WORKLOADS = {
    "sweep-zf": functools.partial(
        SweepWorkload, "sweep-zf", total_antennas=300, users=16, drops=1,
        jobs=1, nt_list=FULL_NT),
    "closed-form-grid": ClosedFormGrid,
    "validate": Validate,
    "sweep-jobs2": functools.partial(
        SweepWorkload, "sweep-jobs2", total_antennas=120, users=8, drops=5,
        jobs=2, nt_list=QUICK_NT),
}
