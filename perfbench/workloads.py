"""The three benchmark workloads, their correctness gate and their metrics.

Every workload is a closed loop in one process: the next step starts when
the previous one has returned.  A step is one `repair.fit` on the fit
workloads and one `run_simulation_study` call of `STUDY_REPLICATES`
replicates on `study-ml`.  A unit, the base of every per-unit figure, is a
fit on the fit workloads and a replicate on `study-ml`.  Inputs come only
from the workload seed.
"""

from __future__ import annotations

import csv
import importlib
import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from unlinked import bench, bruteforce, covkernel, permops, repair
from unlinked.covkernel import CovarianceParams
from unlinked.simulate import SimConfig

from tracer import Tracer

# the module, not the package attribute of the same name, which is the function
simulate_module = importlib.import_module("unlinked.simulate")

# the criterion-8 cell: beta=8, (sigma2, phi, tau2) = (5, 0.5, 0.5)
COV = CovarianceParams(sigma2=5.0, phi=0.5, tau2=0.5)
BETA = 8.0
STUDY_METHODS = ("fullgp", "arealgp", "oracle")
STUDY_REPLICATES = 4

# the benchmark's own references, taken before tracing rebinds any name
is_permutation = permops.is_permutation
compose, invert_perm = permops.compose, permops.invert_perm

# per-layer functions reported by name; every other public function of the
# measured modules is traced too and lands in trace.unlisted_self_s
LAYERS = (
    "permops.sinkhorn_knopp_with_grad", "permops.sinkhorn_vjp", "permops.hungarian_round",
    "permops.sinkhorn_knopp", "permops.sample_relaxed_batch", "permops.perm_moments",
    "repair.fit", "repair.init_state", "repair.PhiNodes", "repair.update_permutations",
    "repair.perm_elbo_and_grad", "repair.compute_elbo", "repair.update_beta", "repair.update_W",
    "repair.update_sigma2", "repair.update_tau2", "repair.update_phi", "repair.phi_log_scores",
    "repair.expected_residual_quad",
    "covkernel.exp_correlation", "covkernel.chol_factor", "covkernel.chol_solve",
    "baselines.full_gp_fit", "baselines.areal_gp_fit",
    "bruteforce.brute_force_mle",
    "simulate.simulate",
    "bench.run_replicate", "bench.aggregate_metrics",
    "serialize.append_csv", "serialize.write_csv",
)


@dataclass(frozen=True)
class Spec:
    kind: str  # "fit" or "study"
    K: int
    B: int
    pool: int = 0  # datasets simulated at set-up; fits cycle through them
    fit: repair.FitConfig = repair.FitConfig()
    replicates: int = STUDY_REPLICATES


WORKLOADS = {
    "fit-n100": Spec("fit", K=4, B=25, pool=32),
    "fit-n1000": Spec("fit", K=4, B=250, pool=4),
    "study-ml": Spec("study", K=5, B=80),
}


def tiny(spec: Spec) -> Spec:
    """A version of a workload that runs in seconds, for the smoke test."""
    return replace(spec, K=3, B=4, pool=min(spec.pool, 2), replicates=1,
                   fit=replace(spec.fit, max_outer_iters=2))


# -- inputs ------------------------------------------------------------------


def make_dataset(spec: Spec, seed: int, rep: int):
    """Replicate `rep` of `unlinked study` at study.seed = `seed`, cell 0:
    the same seeds, Hamming distances and permutations as bench.run_replicate."""
    ss = np.random.SeedSequence([seed, 0, rep])
    data_seed, ham_seed, fit_seed, perm_seed = (int(s.generate_state(1)[0]) for s in ss.spawn(4))
    ham_rng = np.random.default_rng(ham_seed)
    hX = int(ham_rng.choice(np.arange(2, spec.K + 1)))
    hS = int(ham_rng.choice(np.arange(2, spec.K + 1)))
    perm_rng = np.random.default_rng(perm_seed)
    piX = permops.random_perm_with_hamming(spec.K, hX, perm_rng)
    piS = permops.random_perm_with_hamming(spec.K, hS, perm_rng)
    sim = SimConfig(K=spec.K, B=spec.B, beta=BETA, cov=COV, hX=hX, hS=hS, seed=data_seed)
    return simulate_module.simulate(sim, piX=piX, piS=piS), replace(spec.fit, seed=fit_seed)


def study_config(spec: Spec, seed: int, call: int) -> bench.ExperimentConfig:
    study_seed = int(np.random.SeedSequence([seed, call]).generate_state(1)[0])
    return bench.ExperimentConfig(
        methods=STUDY_METHODS, Ks=(spec.K,), Bs=(spec.B,), betas=(BETA,), cov=COV,
        replicates=spec.replicates, seed=study_seed,
    )


def oracle_hit(data) -> float:
    """1.0 if brute-force ML at the true covariance finds the true pair (ties count)."""
    sigma = covkernel.build_sigma(covkernel.exp_correlation(data.points, COV.phi), COV)
    sol = bruteforce.brute_force_mle(data, sigma)
    pi2 = invert_perm(data.truth.piS)
    pi1 = compose(pi2, data.truth.piX)
    return float(any(np.array_equal(p1, pi1) and np.array_equal(p2, pi2) for p1, p2 in sol.ties))


# -- one pass of steps -------------------------------------------------------


@dataclass
class Pass:
    wall_s: float = 0.0
    steps: int = 0
    units: int = 0
    step_s: list = field(default_factory=list)  # seconds per step
    fit_s: list = field(default_factory=list)  # seconds per fit (per replicate on study-ml)
    failures: list = field(default_factory=list)  # "unit: reason", one per failed unit
    # per distinct dataset: (scaled beta error, piX recovered, piS recovered, oracle hit or None)
    quality: dict = field(default_factory=dict)


def fit_step(pool, i: int, out: Pass) -> None:
    data, config = pool[i % len(pool)]
    out.units += 1
    start = time.perf_counter()
    try:
        report = repair.fit(data, repair.Priors(), config)
    except Exception as exc:  # a failed fit is counted, not fatal
        out.fit_s.append(time.perf_counter() - start)
        out.failures.append(f"fit {i}: {type(exc).__name__}: {exc}")
        return
    out.fit_s.append(time.perf_counter() - start)
    problems = []
    if not math.isfinite(report.beta_mean):
        problems.append("non-finite beta_mean")
    if not report.elbo_trace or not np.all(np.isfinite(report.elbo_trace)):
        problems.append("empty or non-finite elbo_trace")
    if not (is_permutation(report.piX_hat) and is_permutation(report.piS_hat)):
        problems.append("piX_hat or piS_hat is not a permutation")
    if problems:
        out.failures.append(f"fit {i}: " + "; ".join(problems))
        return
    truth = data.truth
    out.quality[i % len(pool)] = (
        (report.beta_mean - truth.beta) / truth.beta,
        float(np.array_equal(report.piX_hat, truth.piX)),
        float(np.array_equal(report.piS_hat, truth.piS)),
        None,
    )


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def study_step(spec: Spec, seed: int, call: int, scratch: Path, out: Pass) -> None:
    """One `run_simulation_study` call into a fresh output directory."""
    config = study_config(spec, seed, call)
    reps = config.replicates
    out.units += reps
    out_dir = scratch / f"study-{call}"
    try:
        raw_path, metrics_path = bench.run_simulation_study(config, out_dir, jobs=1)
    except Exception as exc:
        out.failures.extend(f"study {call} replicate {r}: {type(exc).__name__}: {exc}" for r in range(reps))
        return
    header, raw = _read_csv(raw_path)
    mheader, metrics = _read_csv(metrics_path)
    shutil.rmtree(out_dir)
    col = {name: j for j, name in enumerate(header)}
    rows = {}
    for r in raw:
        rows.setdefault((r[col["method"]], int(r[col["replicate"]])), []).append(r)
    ok_by_method = {m[mheader.index("method")]: int(m[mheader.index("replicates_ok")]) for m in metrics}
    spoiled = any(len(v) > 1 for v in rows.values()) or any(ok_by_method.get(m) != reps for m in STUDY_METHODS)
    for rep in range(reps):
        mine = [rows.get((m, rep), []) for m in STUDY_METHODS]
        if spoiled or any(len(v) != 1 or v[0][col["status"]] != "ok" for v in mine):
            out.failures.append(f"study {call} replicate {rep}: failed, missing or duplicated rows")
            continue
        out.fit_s.append(sum(float(v[0][col["seconds"]]) for v in mine))
        oracle = mine[STUDY_METHODS.index("oracle")][0]
        hit = float(oracle[col["recovered_X"]])
        out.quality[(call, rep)] = (
            (float(oracle[col["beta_hat"]]) - BETA) / BETA, hit, float(oracle[col["recovered_S"]]), hit,
        )


class Workload:
    def __init__(self, name: str, seed: int, scratch: Path, small: bool = False):
        self.seed = seed
        self.scratch = scratch
        self.spec = tiny(WORKLOADS[name]) if small else WORKLOADS[name]
        self.pool = []

    def setup(self) -> None:
        """Simulate the fit workloads' dataset pool."""
        self.pool = [make_dataset(self.spec, self.seed, rep) for rep in range(self.spec.pool)]

    def step(self, i: int, out: Pass) -> None:
        start = time.perf_counter()
        if self.spec.kind == "fit":
            fit_step(self.pool, i, out)
        else:
            study_step(self.spec, self.seed, i, self.scratch, out)
        out.step_s.append(time.perf_counter() - start)
        out.steps += 1

    def run(self, seconds: float) -> Pass:
        """Closed loop for `seconds`, at least one step."""
        out = Pass()
        start = time.perf_counter()
        while out.steps == 0 or time.perf_counter() - start < seconds:
            self.step(out.steps, out)
        out.wall_s = time.perf_counter() - start
        return out

    def run_paired(self, seconds: float, tracer: Tracer):
        """Closed loop of pairs: each step runs once untraced and once traced.

        The order inside a pair alternates, so load from outside the process
        that drifts during the run falls on both sides of `trace_overhead`.
        The fit workloads' set-up is traced once first, so `simulate` shows.
        Returns the untraced pass, the traced pass and the traced wall time.
        """
        plain, traced = Pass(), Pass()
        with tracer.installed():
            start = time.perf_counter()
            self.setup()
            traced_wall = time.perf_counter() - start
        start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - start < seconds:
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if with_trace:
                    with tracer.installed():
                        self.step(i, traced)
                else:
                    self.step(i, plain)
            i += 1
        plain.wall_s, traced.wall_s = sum(plain.step_s), sum(traced.step_s)
        return plain, traced, traced_wall + traced.wall_s

    def add_oracle(self, out: Pass) -> None:
        """Brute-force ML on the exact datasets repair fitted."""
        if self.spec.kind == "fit":
            for key, q in out.quality.items():
                out.quality[key] = q[:3] + (oracle_hit(self.pool[key][0]),)


# -- metrics -----------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB


def _mean(values) -> float:  # 0 for no values: every metric must be a number
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def end_to_end(setup_s: float, p: Pass) -> dict:
    return {
        "setup_s": setup_s,
        "fit_s": statistics.median(p.fit_s) if p.fit_s else p.wall_s,
        # from the median step, so that a burst of outside load moves it less
        "replicates_per_s": p.units / p.steps / statistics.median(p.step_s),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(tracer: Tracer, traced: Pass, traced_wall: float, untraced: Pass, failed: int, attempted: int) -> dict:
    """Per-unit layer figures of the traced pass, its counters and quality."""
    table, root_s = tracer.layers()
    units = traced.units
    m = {}
    for name in LAYERS:
        calls, total, own = table.get(name, (0, 0.0, 0.0))
        m[f"{name}.calls"] = calls / units
        m[f"{name}.s"] = total / units
        m[f"{name}.self_s"] = own / units
    c = tracer.counters

    def ratio(a, b):
        return a / b if b else 0.0

    m["repair.iterations"] = ratio(c["fit_iterations"], c["fits"])
    m["repair.converged_frac"] = ratio(c["fits_converged"], c["fits"])
    m["repair.PhiNodes.mb"] = ratio(c["phinodes_bytes"], c["phinodes"]) / 1e6
    m["baselines.n_evals"] = ratio(c["gls_evals"], c["gls_fits"])
    m["baselines.converged_frac"] = ratio(c["gls_converged"], c["gls_fits"])
    m["serialize.bytes_written"] = c["bytes_written"] / units
    m["permops.sinkhorn_unconverged"] = c["sinkhorn_unconverged"] / units
    m["permops.sinkhorn_residual_max"] = c["sinkhorn_residual_max"]
    m["trace_overhead"] = traced.wall_s / untraced.wall_s - 1.0
    m["trace.units"] = float(units)
    m["trace.wall_s"] = traced_wall / units
    m["trace.outside_s"] = (traced_wall - root_s) / units
    listed = set(LAYERS)
    m["trace.unlisted_self_s"] = sum(own for n, (_, _, own) in table.items() if n not in listed) / units
    q = list(untraced.quality.values())
    m["fit_s_max"] = max(untraced.fit_s) if untraced.fit_s else untraced.wall_s
    m["rmse_beta_scaled"] = math.sqrt(_mean(x[0] ** 2 for x in q))
    m["recovery_x"] = _mean(x[1] for x in q)
    m["recovery_s"] = _mean(x[2] for x in q)
    m["oracle_recovery"] = _mean(x[3] for x in q)
    m["failed_frac"] = failed / attempted
    return m


def self_time_balance(m: dict) -> float:
    """Named self times + unlisted self time + time outside spans - wall time."""
    own = sum(m[f"{n}.self_s"] for n in LAYERS) + m["trace.unlisted_self_s"]
    return own + m["trace.outside_s"] - m["trace.wall_s"]


def scratch_dir(root: Path) -> Path:
    path = root / f"tmp-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path
