#!/usr/bin/env python3
"""Run one cfmimo benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload sweep-zf --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``.  Inputs come from ``--seed``; the
workload's rounds repeat until ``--seconds`` of timed work is done, and
every round's output is checked.  With ``--trace 0`` the end-to-end metrics
are reported; with ``--trace 1`` untraced and traced rounds alternate, the
per-layer metrics come from the traced rounds' spans, and the ratio of the
two rounds' median times is printed as the tracing overhead.  The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  A run report and, when traced, the spans are written under
``benchmarks/out/``.

The package is imported from ``src/`` beside this directory; BLAS is pinned
to one thread before numpy loads.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time\nt = time.perf_counter()\n"
                "import cfmimo, cfmimo.cli\n"
                "print(time.perf_counter() - t)\n")


def import_package():
    """Import cfmimo from this checkout's sources, never from elsewhere."""
    if not (SRC / "cfmimo" / "__init__.py").is_file():
        sys.exit(f"run.py: no cfmimo sources at {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import cfmimo
    if Path(cfmimo.__file__).resolve().parent != SRC / "cfmimo":
        sys.exit(f"run.py: imported cfmimo from {cfmimo.__file__}, "
                 f"not from {SRC}")


def machine_facts() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_name": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
            "blas_threads": _openblas_threads()}


def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def import_seconds() -> float:
    """Median import time of the package in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=60)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def trace_targets():
    """Public functions the traced rounds wrap, with their span names."""
    from cfmimo import channel, cli, downlink, experiment, oracle, \
        propagation, uplink

    def n(key):
        return lambda a: {"n": int(a[key])}

    def zfp_requested(a):
        n_samples = a["n_samples"]
        return {"n": int(a["cfg"].chi_samples if n_samples is None
                         else n_samples)}

    return [
        (cli.main, "cli.main", None),
        (experiment.sweep, "experiment.sweep", lambda a: {"jobs": a["jobs"]}),
        (experiment.run_drop, "experiment.run_drop", None),
        (propagation.place_topology, "propagation.place_topology", None),
        (propagation.fading_profile, "propagation.fading_profile", None),
        (uplink.uplink_sinr_all, "uplink.mrc_sinr", None),
        (uplink.uplink_term_variances, "uplink.mrc_terms", None),
        (downlink.cbf_power, "downlink.cbf_power", None),
        (downlink.cbf_sinr_all, "downlink.cbf_sinr", None),
        (downlink.zfp_moments, "downlink.zfp_moments", zfp_requested),
        (channel.sample_estimates, "channel.sample_estimates", n("n")),
        (channel.sample_channel_batch, "channel.joint_draw", n("n")),
        (oracle.validate_instance, "oracle.validate_instance", None),
        (oracle.simulate_uplink_terms, "oracle.uplink", n("n_samples")),
        (oracle.simulate_downlink_cbf, "oracle.cbf", n("n_samples")),
        (oracle.simulate_downlink_zfp, "oracle.zfp", n("n_samples")),
    ]


# name -> unit; the order is the order of BENCHMARK.json
LAYER_UNITS = {
    "propagation.place_topology_ms": "ms",
    "propagation.fading_profile_ms": "ms",
    "uplink.mrc_sinr_ms": "ms",
    "downlink.cbf_ms": "ms",
    "downlink.zfp_moments_ms": "ms",
    "downlink.zfp_us_per_draw": "us",
    "downlink.zfp_draws": "count",
    "downlink.zfp_useful_draw_ratio": "ratio",
    "channel.sample_estimates_ms": "ms",
    "channel.joint_draw_us_per_sample": "us",
    "oracle.uplink_samples_per_s": "1/s",
    "oracle.cbf_samples_per_s": "1/s",
    "oracle.zfp_samples_per_s": "1/s",
    "experiment.run_drop_ms": "ms",
    "experiment.orchestration_s": "s",
    "experiment.parallel_efficiency": "ratio",
}


def layer_metrics(spans) -> dict:
    """Per-layer figures from the traced rounds' spans.

    "Per drop" divides by the number of topologies placed.  A layer the
    workload never calls reads 0.
    """
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def busy(name):
        return math.fsum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def drawn(name):
        return sum(s["n"] for s in by_name.get(name, ()))

    def ratio(num, den):
        return num / den if den else 0.0

    drops = calls("propagation.place_topology")
    zfp_calls = calls("downlink.zfp_moments")
    draws = drawn("channel.sample_estimates")
    sweeps = by_name.get("experiment.sweep", ())
    jobs = max((s["jobs"] for s in sweeps), default=1)
    sweep_wall = busy("experiment.sweep")
    drop_busy = busy("experiment.run_drop")
    values = {
        "propagation.place_topology_ms":
            1e3 * ratio(busy("propagation.place_topology"), drops),
        "propagation.fading_profile_ms":
            1e3 * ratio(busy("propagation.fading_profile"), drops),
        "uplink.mrc_sinr_ms":
            1e3 * ratio(busy("uplink.mrc_sinr") + busy("uplink.mrc_terms"),
                        drops),
        "downlink.cbf_ms":
            1e3 * ratio(busy("downlink.cbf_power") + busy("downlink.cbf_sinr"),
                        drops),
        "downlink.zfp_moments_ms":
            1e3 * ratio(busy("downlink.zfp_moments"), zfp_calls),
        "downlink.zfp_us_per_draw":
            1e6 * ratio(busy("downlink.zfp_moments"), draws),
        "downlink.zfp_draws": ratio(draws, zfp_calls),
        "downlink.zfp_useful_draw_ratio":
            ratio(drawn("downlink.zfp_moments"), draws),
        "channel.sample_estimates_ms":
            1e3 * ratio(busy("channel.sample_estimates"), zfp_calls),
        "channel.joint_draw_us_per_sample":
            1e6 * ratio(busy("channel.joint_draw"), drawn("channel.joint_draw")),
        "oracle.uplink_samples_per_s":
            ratio(drawn("oracle.uplink"), busy("oracle.uplink")),
        "oracle.cbf_samples_per_s":
            ratio(drawn("oracle.cbf"), busy("oracle.cbf")),
        "oracle.zfp_samples_per_s":
            ratio(drawn("oracle.zfp"), busy("oracle.zfp")),
        "experiment.run_drop_ms":
            1e3 * ratio(drop_busy, calls("experiment.run_drop")),
        "experiment.orchestration_s":
            ratio(sweep_wall - drop_busy / jobs, len(sweeps)),
        "experiment.parallel_efficiency":
            ratio(drop_busy, jobs * sweep_wall),
    }
    return {k: {"value": values[k], "unit": u} for k, u in LAYER_UNITS.items()}


def run_rounds(wl, seconds: float, tracer=None) -> dict:
    """Repeat whole rounds until ``seconds`` of round time is spent.

    Every round's output is checked: the first against the workload's
    checks, later ones for equality with the first.  With a tracer, rounds
    alternate between untraced and traced, and at least one of each runs.
    """
    from workloads import OperationFailed
    times = {False: [], True: []}
    spent: list[float] = []
    failed = 0
    problems: list[str] = []
    first = None
    targets = trace_targets() if tracer is not None else None
    while True:
        traced = tracer is not None and len(spent) % 2 == 1
        if traced:
            tracer.install(targets)
        ok = True
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.span("bench.round"):
                    wl.run_round()
            else:
                wl.run_round()
        except OperationFailed as exc:
            ok = False
            print(f"operation failed: {exc}", file=sys.stderr)
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
                tracer.collect_spool()
        spent.append(elapsed)
        if not ok:
            failed += 1
        else:
            times[traced].append(elapsed)
            out = wl.output()
            if first is None:
                first = out
                problems += wl.check(out)
            elif out != first:
                problems.append(f"round {len(spent)} output differs from the "
                                f"first round's")
        if len(spent) >= (2 if tracer is not None else 1) \
                and sum(spent) + statistics.median(spent) > seconds:
            break
    return {"times": times, "attempted": len(spent), "failed": failed,
            "problems": problems}


def peak_rss_mb(jobs: int) -> float:
    """Peak resident set of this process, plus its workers when it has any.

    The kernel reports only the largest child's peak, so workers count as
    ``jobs`` times that figure.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if jobs <= 1:
        return own
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own + jobs * child


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    seed = args.seed & ((1 << 64) - 1)
    facts = machine_facts()

    build = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = workloads.WORKLOADS[args.workload](seed, OUT)
        build.append(time.perf_counter() - t0)
    setup_s = import_seconds() + statistics.median(build)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(OUT)
    res = run_rounds(wl, args.seconds, tracer)
    plain, traced = res["times"][False], res["times"][True]
    if not plain or (args.trace and not traced):
        sys.exit(f"run.py: {res['failed']} of {res['attempted']} rounds "
                 f"failed, nothing left to measure")

    if args.trace:
        metrics = layer_metrics(tracer.spans)
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.trace.json")
    else:
        metrics = {
            "drops_per_s": {"value": wl.drops_per_round
                            / statistics.median(plain), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb(wl.jobs),
                            "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    correct = not res["problems"]

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"rounds  untraced {len(plain)}  traced {len(traced)}  "
          f"median round {statistics.median(plain):.4f} s  "
          f"setup {setup_s:.4f} s")
    if args.trace:
        print(f"tracing overhead {100 * overhead:+.2f}% "
              f"(median traced round over median untraced round)")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"attempted {res['attempted']}  failed {res['failed']}  "
          f"correct {str(correct).lower()}")
    for p in res["problems"]:
        print(f"check failed: {p}", file=sys.stderr)

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": facts, "round_times_s": plain,
              "traced_round_times_s": traced, "setup_s": setup_s,
              "tracing_overhead": overhead if args.trace else None,
              "problems": res["problems"], "metrics": metrics}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
                    f".run.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
