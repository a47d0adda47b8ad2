"""qtorus benchmark: seeded CLI jobs in a closed loop, one workload per run.

Run from the repository root:

    python3 bench/run.py --workload components --seed 1 --seconds 12 --trace 0

Each job is a generated spec file passed to ``qtorus.cli.main([task,
"--input", path])`` in this process with stdout captured: one client, the
next job starting only when the previous one returns. A run is a fixed number of
whole rounds of the workload's deck: ``--seconds`` over the workload's
nominal round time (``workloads.ROUND_S``). Times are normalized to the
reference speed (``speed.py``). Every output is checked between jobs,
outside the timed region.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs half as many
rounds, each twice, plain and then traced, checks that both give the same
stdout bytes, and prints the per-layer metrics. The last stdout line is always one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The exit code is
1 when any job failed. Spans, specs and a result record go to
``.bench_out/`` under the repository root. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

from checks import Checker, load_expected
from speed import PROBE_NOMINAL_S, SpeedGauge
from tracing import JOB_SPAN, MATMUL, PARSE, PRESENTATIONS, SNF, Summary, Tracer
from workloads import WORKLOADS, Job, describe, n_rounds, rounds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
# What each workload was chosen to exercise: the spans that should cover more
# than half of its job time.
PURPOSE = {
    "components": ("pi2_character + cohomology_presentations", ("gerbe.pi2_character", PRESENTATIONS)),
    "genus_shear": ("commutator_pairing", ("gerbe.commutator_pairing",)),
    "surface_twisted": ("lattice", "lattice."),
    "selfcheck": ("cochain", "cochain."),
}


@dataclass
class JobResult:
    job: Job
    code: int | None
    wall_s: float
    cpu_s: float
    out_bytes: int
    failure: str | None = None
    speed: float = 1.0  # probe's nominal over measured time around and during the job

    @property
    def norm_wall_s(self) -> float:
        return self.wall_s * self.speed

    @property
    def norm_cpu_s(self) -> float:
        return self.cpu_s * self.speed


def load_program():
    """Import the CLI from the checkout's ``src``; exits nonzero when it is not there."""
    src = ROOT / "src"
    if not (src / "qtorus" / "cli.py").is_file():
        print(f"error: no qtorus sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import qtorus.cli
    import qtorus.schemas

    return qtorus.cli, qtorus.schemas.REPORT_SCHEMAS


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when the checkout is not itself a git tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def setup_sample() -> float:
    """Wall time of one fresh interpreter that imports ``qtorus.cli`` and exits."""
    env = {k: v for k, v in os.environ.items() if k != "QTORUS_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import qtorus.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def write_spec(spec_dir: Path, job: Job) -> str:
    path = spec_dir / (job.key.replace("/", "-") + ".json")
    path.write_text(job.spec_text(), encoding="utf-8")
    return str(path)


def run_job(cli, job: Job, spec_path: str, gauge: SpeedGauge | None = None):
    """One CLI call; returns its result and stdout.

    Only the ``main`` call is timed. With a gauge, the machine-speed probe
    runs around and during the call, and its time inside is subtracted.
    """
    gc.collect()
    buf = io.StringIO()
    code = None
    failure = None
    with gauge.measure() if gauge else nullcontext():
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with redirect_stdout(buf):
                code = cli.main([job.task, "--input", spec_path, *job.extra_args])
        except (Exception, SystemExit) as err:  # a traceback fails the job, not the run
            failure = f"raised {err!r}"
        cpu = time.process_time() - cpu0
        wall = time.perf_counter() - wall0
    stdout = buf.getvalue()
    r = JobResult(job, code, wall, cpu, len(stdout.encode()), failure)
    if gauge:
        r.wall_s, r.cpu_s, r.speed = wall - gauge.spent, cpu - gauge.spent, gauge.factor()
    return r, stdout


def measure(cli, checker: Checker, workload: str, seed: int, seconds: float, tracer=None):
    """Run ``n_rounds(workload, seconds)`` whole rounds of the workload's deck.

    The number of rounds depends on the workload and ``seconds`` alone, so a
    seed times the same jobs on every commit and at every machine speed.

    Returns (plain results, traced results, set-up samples, speed gauge).
    With a tracer, each round runs again traced right after its plain pass,
    and the run has half as many rounds. Without one, a fresh interpreter's
    set-up time, as (normalized, raw) seconds, is sampled before each round
    and after the last, outside the timed region.
    """
    spec_dir = OUT / "specs" / workload
    spec_dir.mkdir(parents=True, exist_ok=True)
    gauge = SpeedGauge()
    plain: list[JobResult] = []
    traced: list[JobResult] = []
    setup: list[tuple[float, float]] = []

    def sample_setup() -> None:
        with gauge.measure(during=False):
            raw = setup_sample()
        setup.append((raw * gauge.factor(), raw))

    if tracer is None:
        setup_sample()  # fills the bytecode cache
    count = n_rounds(workload, seconds / 2 if tracer else seconds)
    for round_jobs in islice(rounds(workload, seed), count):
        if tracer is None:
            sample_setup()
        paths = [write_spec(spec_dir, job) for job in round_jobs]
        outputs = []
        for job, path in zip(round_jobs, paths):
            r, stdout = run_job(cli, job, path, gauge)
            r.failure = r.failure or checker.check(job, r.code, stdout)
            plain.append(r)
            outputs.append((r, stdout if tracer is not None else None))
        if tracer is None:
            continue
        for job, path, (first, first_stdout) in zip(round_jobs, paths, outputs):
            tracer.begin_job()
            tracer.install()
            try:
                r, stdout = run_job(cli, job, path)
            finally:
                tracer.uninstall()
            cases = json.loads(stdout)["cases"] if job.task == "selfcheck" and r.code == 0 else 0
            tracer.end_job(output_bytes=r.out_bytes, cases=cases)
            if r.failure is None and (r.code, stdout) != (first.code, first_stdout):
                r.failure = "stdout differs with tracing on"
            r.failure = r.failure or first.failure
            traced.append(r)
    if tracer is None:
        sample_setup()
    return plain, traced, setup, gauge


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). Runs of ten jobs or fewer
    have no such percentile; they report their maximum with none beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def jobs_per_s(results: list[JobResult], normalized: bool = True) -> float:
    """Jobs per second of one round, each slot at its median wall time over the rounds.

    Every round holds the same shapes, so this is the run's throughput with
    each slot's outlying rounds replaced by that slot's median.
    """
    by_slot: dict[int, list[float]] = {}
    for r in results:
        by_slot.setdefault(r.job.slot, []).append(r.norm_wall_s if normalized else r.wall_s)
    return len(by_slot) / sum(statistics.median(t) for t in by_slot.values())


def end_to_end(plain: list[JobResult], setup: list[tuple[float, float]]) -> dict:
    """name -> (value, unit, note); times normalized to the reference speed."""
    walls = [r.norm_wall_s for r in plain]
    raw_walls = [r.wall_s for r in plain]
    tail_s, pct, beyond = tail(walls)
    return {
        "jobs_per_s": (
            jobs_per_s(plain), "1/s",
            f"per round from slot medians; raw {jobs_per_s(plain, normalized=False):.4g}",
        ),
        "job_s.p50": (
            statistics.median(walls), "s",
            f"{len(walls)} jobs; raw {statistics.median(raw_walls):.4g}",
        ),
        "job_s.tail": (
            tail_s, "s",
            f"p{pct:.1f} of {len(walls)} jobs, {beyond} beyond; raw {tail(raw_walls)[0]:.4g}",
        ),
        "job_cpu_s.p50": (
            statistics.median(r.norm_cpu_s for r in plain), "s",
            f"process CPU time; raw {statistics.median(r.cpu_s for r in plain):.4g}",
        ),
        "setup_s": (
            statistics.median(n for n, _ in setup), "s",
            f"median of {len(setup)} fresh interpreters, before each round and after the last; "
            f"raw {statistics.median(raw for _, raw in setup):.4g}",
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
            "whole benchmark process",
        ),
        "output_bytes_per_job": (statistics.fmean(r.out_bytes for r in plain), "bytes", "stdout"),
    }


def per_layer(summary: Summary, tracer: Tracer, plain, traced) -> dict:
    """Per-job means of the traced jobs (``max_bits``: the maximum), raw seconds."""
    n = len(traced)
    jobs = tracer.jobs
    cov, calls = summary.covered_s, summary.calls
    layer_self = summary.layer_self_s()
    pres_calls = calls(PRESENTATIONS)
    metrics = {
        "surface.cohomology_presentations.calls": pres_calls / n,
        "surface.cohomology_presentations.s": cov(PRESENTATIONS) / n,
        "surface.cohomology_presentations.distinct_ratio": (
            sum(j["distinct_systems"] for j in jobs) / pres_calls if pres_calls else 0.0
        ),
        "gerbe.pi2_character.calls": calls("gerbe.pi2_character") / n,
        "gerbe.pi2_character.s": cov("gerbe.pi2_character") / n,
        "lattice.inverse_unimodular.calls": calls("lattice.inverse_unimodular") / n,
        "lattice.inverse_unimodular.s": cov("lattice.inverse_unimodular") / n,
        "gerbe.commutator_pairing.s": cov("gerbe.commutator_pairing") / n,
        "gerbe.pairing_on_cocycles.calls": calls("gerbe.pairing_on_cocycles") / n,
        "gerbe.pairing_on_cocycles.s": cov("gerbe.pairing_on_cocycles") / n,
        "forms.symmetric_evaluate.calls": calls("forms.SymmetricForm.evaluate") / n,
        "forms.frac1.created": sum(j["frac1_created"] for j in jobs) / n,
        "lattice.snf.calls": calls(SNF) / n,
        "lattice.snf.s": cov(SNF) / n,
        "lattice.snf.cells": sum(j["snf_cells"] for j in jobs) / n,
        "lattice.snf.max_bits": max(j["snf_max_bits"] for j in jobs),
        "lattice.matmul.calls": calls(MATMUL) / n,
        "lattice.matmul.s": cov(MATMUL) / n,
        "lattice.matmul.mults": sum(j["matmul_mults"] for j in jobs) / n,
        "surface.build_complex.s": cov("surface.build_complex") / n,
        "surface.local_system.s": cov("surface.LatticeLocalSystem.__init__") / n,
        "cochain.cup_evaluate.calls": calls("cochain.cup_evaluate") / n,
        "cochain.cup_evaluate.s": cov("cochain.cup_evaluate") / n,
        "cochain.class_of.s": cov("cochain.class_of") / n,
        "selfcheck.cases": sum(j["cases"] for j in jobs) / n,
        "cli.parse.s": cov(*PARSE) / n,
        "cli.output_bytes": sum(j["output_bytes"] for j in jobs) / n,
        "trace.jobs_per_s_ratio": jobs_per_s(traced, False) / jobs_per_s(plain, False),
    }
    for layer in ("cli", "gerbe", "surface", "lattice", "forms", "cochain", "selfcheck"):
        metrics[f"{layer}.self_s"] = layer_self.get(layer, 0.0) / n
    return metrics


LAYER_UNITS = {".calls": "count", ".s": "s", ".self_s": "s", ".cells": "count", ".mults": "count",
               ".max_bits": "bits", ".created": "count", ".cases": "count", ".output_bytes": "bytes",
               ".distinct_ratio": "ratio", ".jobs_per_s_ratio": "ratio"}


def layer_unit(name: str) -> str:
    return next(u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix))


def print_layer_report(workload: str, summary: Summary, traced) -> dict:
    """Prints layer shares and the purpose checks; returns each check's outcome.

    The purpose checks say whether the workload still exercises what it was
    chosen for. They are informational: an optimization may rightly make one
    fail, so they do not make a run incorrect.
    """
    job_s = summary.covered_s(JOB_SPAN)
    layer_self = summary.layer_self_s()
    print(f"traced job time: {job_s:.3f} s over {len(traced)} jobs; self-time share by layer:")
    for layer, s in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<10} {100 * s / job_s:6.2f} %")
    label, spans = PURPOSE[workload]
    if isinstance(spans, str):
        spans = tuple(n for n in summary.names if n.startswith(spans))
    share = summary.covered_s(*spans) / job_s
    purpose = {f"{label} covers more than half of job time": share > 0.5}
    print(f"purpose: {label} covers {100 * share:.1f} % of job time "
          f"(more than half: {'yes' if share > 0.5 else 'NO'})")
    if workload == "surface_twisted":
        gerbe = layer_self.get("gerbe", 0.0)
        purpose["gerbe time is zero"] = gerbe == 0
        print(f"purpose: gerbe time {gerbe:.6f} s (zero: {'yes' if gerbe == 0 else 'NO'})")
    return purpose


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qtorus CLI benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # QTORUS_THREADS selects a thread pool inside the program; jobs run without it.
    os.environ.pop("QTORUS_THREADS", None)
    cli, schemas = load_program()
    OUT.mkdir(exist_ok=True)
    checker = Checker(schemas, load_expected())
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
    }
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()) + ", QTORUS_THREADS unset")
    print(f"input mix: {describe(args.workload)}")

    tracer = Tracer() if args.trace else None
    plain, traced, setup, gauge = measure(
        cli, checker, args.workload, args.seed, args.seconds, tracer
    )
    results = plain + traced
    failed = [r for r in results if r.failure]
    for r in failed:
        print(f"FAILED {r.job.key}: {r.failure}")
    print(f"machine speed: probe median {1000 * statistics.median(gauge.samples):.3f} ms "
          f"over {len(gauge.samples)} samples, nominal {1000 * PROBE_NOMINAL_S:.3f} ms")

    if args.trace:
        summary = Summary(tracer)
        spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        written = tracer.write_jsonl(spans_path)
        print(f"spans: {written} written to {spans_path.relative_to(ROOT)}")
        purpose = print_layer_report(args.workload, summary, traced)
        metrics = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in per_layer(summary, tracer, plain, traced).items()
        }
        for name, m in metrics.items():
            print(f"{name:<48} {m['value']:.6g} {m['unit']}")
    else:
        e2e = end_to_end(plain, setup)
        for name, (value, unit, note) in e2e.items():
            print(f"{name:<22} {value:.6g} {unit}  ({note})")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in e2e.items()}
        purpose = {}
    error_rate = len(failed) / len(results)
    print(f"{'error_rate':<22} {error_rate:.6g}  ({len(failed)} failed / {len(results)} attempted)")

    record = {
        "env": env,
        "metrics": metrics,
        "error_rate": error_rate,
        "purpose": purpose,
        "probe_s": gauge.samples,
        "setup_s": setup,
        "jobs": [
            {"key": r.job.key, "traced": is_traced, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
             "speed": r.speed, "bytes": r.out_bytes, "failure": r.failure}
            for is_traced, group in ((False, plain), (True, traced))
            for r in group
        ],
    }
    record_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
