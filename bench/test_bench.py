"""Tests of the benchmark itself (generator, checks, tracing, loop).

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

The tracing test runs one round of every workload twice, so this file takes
about a minute.
"""

from __future__ import annotations

import json
import time

import pytest

import run
from checks import Checker, load_expected
from tracing import Tracer
from workloads import WORKLOADS, all_jobs, n_rounds, rounds


@pytest.fixture(scope="module")
def program():
    cli, schemas = run.load_program()
    return cli, Checker(schemas, load_expected())


def _first_rounds(workload: str, seed: int, count: int = 2):
    it = rounds(workload, seed)
    return [[(j.key, j.spec_text(), j.extra_args) for j in next(it)] for _ in range(count)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert _first_rounds(workload, 7) == _first_rounds(workload, 7)
    assert _first_rounds(workload, 7) != _first_rounds(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_variant_has_a_recorded_expectation(workload):
    expected = load_expected()
    jobs = all_jobs(workload)
    assert len({j.digest() for j in jobs}) == len(jobs)
    for job in jobs:
        assert expected[job.key]["digest"] == job.digest(), job.key


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_round_passes_checks_with_identical_bytes_traced(program, workload):
    cli, checker = program
    tracer = Tracer()
    plain, traced, _, _ = run.measure(cli, checker, workload, seed=3, seconds=1e-9, tracer=tracer)
    assert len(plain) == len(traced) == len(next(rounds(workload, 3)))
    for p, t in zip(plain, traced):
        assert p.code == 0 and p.failure is None, (p.job.key, p.failure)
        assert t.failure is None, (t.job.key, t.failure)  # includes byte equality
    assert tracer.next_id > 0 and not tracer._patches


def _corruptions(stdout: str):
    report = json.loads(stdout)
    yield "truncated", 0, stdout[: len(stdout) // 2]
    yield "nonzero exit", 3, stdout
    bad_schema = dict(report, section_space={"pi0": "Z"})
    yield "schema", 0, json.dumps(bad_schema)
    cohomology = dict(report["cohomology"], h1={"free_rank": 1, "torsion": []})
    yield "invariant field", 0, json.dumps(dict(report, cohomology=cohomology))


def test_checker_rejects_corrupted_outputs(program):
    cli, checker = program
    job = next(rounds("surface_twisted", 0))[0]
    r, out = run.run_job(cli, job, run.write_spec(run.OUT, job))
    assert checker.check(job, r.code, out) is None
    for label, code, stdout in _corruptions(out):
        assert checker.check(job, code, stdout) is not None, label


def test_corrupted_output_counts_in_error_rate(program, monkeypatch, capsys):
    real_run_job = run.run_job
    calls = []

    def corrupting_run_job(cli, job, spec_path, gauge=None):
        result, stdout = real_run_job(cli, job, spec_path, gauge)
        calls.append(job.key)
        if len(calls) == 2:
            stdout = stdout.replace('"independent_check": true', '"independent_check": false')
        return result, stdout

    monkeypatch.setattr(run, "run_job", corrupting_run_job)
    code = run.main(["--workload", "surface_twisted", "--seed", "0", "--seconds", "1e-9"])
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == len(calls)
    assert any(line.startswith("error_rate") and f"1 failed / {len(calls)}" in line for line in out)


def test_round_count_does_not_depend_on_speed(program, monkeypatch):
    """A slow program runs as many rounds, and so the same jobs, as a fast one."""
    cli, checker = program
    keys = {}
    for delay in (0.0, 0.05):
        def slow_main(argv, _main=cli.main, _delay=delay):
            time.sleep(_delay)
            return _main(argv)

        monkeypatch.setattr(cli, "main", slow_main)
        plain, _, setup, _ = run.measure(cli, checker, "genus_shear", seed=5, seconds=2.5)
        keys[delay] = [r.job.key for r in plain]
        assert len(setup) == n_rounds("genus_shear", 2.5) + 1
    assert keys[0.0] == keys[0.05]
    assert len(keys[0.0]) == n_rounds("genus_shear", 2.5) * len(next(rounds("genus_shear", 5)))


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(33)]
    assert run.tail(values) == (22.0, 100.0 * 23 / 33, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
