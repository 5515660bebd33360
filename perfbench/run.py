"""mbsa benchmark: per-pipeline CLI times on three workloads, plus a layer trace.

Usage::

    python3 perfbench/run.py [--workload fixture|voter|trees|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from anywhere; the program is taken from ``src/`` next to this
directory.  Each job is one fresh ``python -m mbsa.cli`` process (the
``trees`` jobs run ``perfbench/trees_job.py``) with ``PYTHONPATH=src``, one
job at a time: a single-client closed loop, so no in-process cache survives
from one job to the next.  Every job's artifacts are checked against a
reference that does not come from the program (see ``oracles.py``), and
their sha256 digests must repeat exactly across repetitions.

``--trace 0`` repeats rounds of the workload's jobs for ``--seconds`` and
reports medians.  ``--trace 1`` runs one untraced round, then one traced
round in which ``tracer.py`` wraps the program's layers from outside, and
reports per-layer metrics summed over the round's jobs.  The last line of
standard output is one JSON object; the lines before it are a readable
table, and ``perfbench/out/<workload>-seed<N>/results.json`` keeps every
sample, digest and per-job layer breakdown (spans in ``spans/``).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"

sys.path.insert(0, str(BENCH))
import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

JOB_CPU_LIMIT_S = 90  # a job that needs more CPU time than this is killed and fails
# The machine's speed drifts by up to a factor of two over seconds to minutes
# (other tenants share its cores), in pure-Python work and in the program
# alike.  So every job is followed by a fixed pure-Python speed probe, and
# each time is reported scaled to a nominal machine on which the probe takes
# NOMINAL_PROBE_S: time * NOMINAL_PROBE_S / (mean of the probes around the
# job).  Raw wall times are kept in results.json.
SPEED_PROBE = "d = {}\nfor i in range(120000):\n    k = (i % 997, i % 13)\n    d[k] = d.get(k, 0) + i * i % 7\n"
NOMINAL_PROBE_S = 0.15
# Short jobs whose times are end-to-end metrics are re-run throughout each
# round, whenever this long has passed since they last ran.
REPEAT_EVERY_S = 3.0


@dataclass
class Job:
    name: str  # the metric the job's time is reported as
    kind: str  # "cli": python -m mbsa.cli ARGV; "trees": perfbench/trees_job.py ARGV
    argv: list[str]
    out: Path  # artifact directory, emptied before every run
    check: Callable[[Path], list[str]]
    expect_rc: int = 0


@dataclass
class Result:
    samples: dict[str, list[float]] = field(default_factory=dict)  # job -> scaled wall seconds
    raw: dict[str, list[float]] = field(default_factory=dict)  # job -> unscaled wall seconds
    rss_kb: dict[str, int] = field(default_factory=dict)  # job -> highest peak RSS
    rounds: list[float] = field(default_factory=list)
    digests: dict[str, dict[str, str]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    speeds: list[float] = field(default_factory=list)  # every speed probe, in order


# ---------------------------------------------------------------------------
# workloads


def _cli(name, out, check, *argv, expect_rc=0):
    return Job(name, "cli", [str(a) for a in argv], out, check, expect_rc)


def fixture_jobs(seed: int, work: Path) -> list[Job]:
    """The shipped battery_sensor example; the seed is unused because the
    inputs are the fixture files themselves."""
    model, fei = FIXTURES / "battery_sensor.smx", FIXTURES / "battery_sensor.fei"
    tfpg, bind = FIXTURES / "battery_sensor.tfpg", FIXTURES / "battery_sensor.bind"
    inp, jobs_dir = work / "in", work / "jobs"
    inp.mkdir(parents=True, exist_ok=True)
    props = inp / "fixture.props"
    props.write_text("dead : sys_dead;\nb1low : b1 <= 5;\ns1_lost : !s1_out;\n", encoding="utf-8")
    # acceptance criterion 08's mutation: without this edge the graph is incomplete
    refute = inp / "refute.tfpg"
    refute.write_text("".join(line for line in tfpg.read_text(encoding="utf-8").splitlines(True)
                              if not line.startswith("edge B1_DEAD -> S2_NO ")), encoding="utf-8")

    golden = set(oracles.read_cut_sets(FIXTURES / "battery_sensor.mcs.golden"))
    probs = oracles.read_fei_probs(fei)
    root = oracles.union_probability(probs, {}, lambda true: any(c <= true for c in golden))
    # hand-derived: b1 drains only while gen1 is down; s1_out fails with s1 or with line 1
    fmea_mcs = {"dead": golden, "b1low": {frozenset({"G1_Off"})},
                "s1_lost": {frozenset({"G1_Off"}), frozenset({"S1_Off"})}}
    edges = oracles.read_edges(tfpg)

    m = ("--model", model, "--fei", fei)
    t = ("--tle", "sys_dead")
    tf = ("--bind", bind, "--step-bound", "60")
    o = {n: jobs_dir / n for n in ("setup_s", "mcs_s", "ft_dynamic_s", "ftprob_s", "fmea_s",
                                   "tfpg_check_s", "tfpg_refute_s", "tfpg_synth_s")}
    return [
        _cli("setup_s", o["setup_s"], lambda out: oracles.check_extend(out, "battery_sensor", probs),
             "extend", *m, "--out-dir", o["setup_s"]),
        _cli("mcs_s", o["mcs_s"], lambda out: oracles.check_mcs(out, golden),
             "mcs", *m, *t, "--formats", "tsv,xml", "--out-dir", o["mcs_s"]),
        _cli("ft_dynamic_s", o["ft_dynamic_s"], lambda out: oracles.check_dynamic_tree(out, golden),
             "ft", *m, *t, "--dynamic", "--formats", "xml,dot", "--out-dir", o["ft_dynamic_s"]),
        _cli("ftprob_s", o["ftprob_s"], lambda out: oracles.check_root_probability(out, root, probs, golden),
             "ftprob", *m, *t, "--out-dir", o["ftprob_s"]),
        _cli("fmea_s", o["fmea_s"], lambda out: oracles.check_fmea(out, fmea_mcs, dynamic=False),
             "fmea", *m, "--props", props, "--out-dir", o["fmea_s"]),
        _cli("tfpg_check_s", o["tfpg_check_s"], oracles.check_tfpg_complete,
             "tfpg", "check", *m, "--tfpg", tfpg, *tf, "--out-dir", o["tfpg_check_s"]),
        _cli("tfpg_refute_s", o["tfpg_refute_s"],
             lambda out: oracles.check_tfpg_refuted(out, _fixture_model(model, fei)),
             "tfpg", "check", *m, "--tfpg", refute, *tf, "--out-dir", o["tfpg_refute_s"], expect_rc=1),
        _cli("tfpg_synth_s", o["tfpg_synth_s"], lambda out: oracles.check_tfpg_synth(out, edges),
             "tfpg", "synth", *m, *tf, "--outfile", o["tfpg_synth_s"] / "synth.tfpg"),
    ]


@functools.cache
def _fixture_model(model: Path, fei: Path):
    """The extended fixture model, for replaying counterexamples."""
    sys.path.insert(0, str(SRC))
    from mbsa.faults import extend_model, load_fault_library, parse_fei
    from mbsa.sts import parse_model, type_check

    typed = type_check(parse_model(model.read_text(encoding="utf-8")))
    return extend_model(typed, load_fault_library(), parse_fei(fei.read_text(encoding="utf-8"))).typed


def voter_jobs(seed: int, work: Path) -> list[Job]:
    inp, jobs_dir = work / "in", work / "jobs"
    spec = workloads.generate_voter(seed, inp)
    model, fei, cca, props = (inp / f"voter.{ext}" for ext in ("smx", "fei", "cca", "props"))
    probs = {e: Fraction(p) for e, p in spec.probs.items()}
    fault_probs = {e: probs[e] for e in spec.faults}
    covers = {e: frozenset({s}) for e, s in spec.faults.items()}
    cause_covers = {c: frozenset(spec.faults[m] for m in ms) for c, ms in spec.causes.items()}
    need = spec.n - spec.k + 1

    def lost(cov):
        return lambda true: len(frozenset().union(*(cov[e] for e in true))) >= need

    mcs = oracles.threshold_cut_sets(covers, need, spec.max_card)
    root = oracles.union_probability(fault_probs, {}, lost(covers))
    all_covers = {**covers, **cause_covers}
    cca_mcs = oracles.threshold_cut_sets(all_covers, need, spec.max_card)
    cca_root = oracles.union_probability(
        fault_probs, {c: (probs[c], ms) for c, ms in spec.causes.items()}, lost(all_covers))
    fmea_mcs = {"lost": mcs, "degraded": oracles.threshold_cut_sets(covers, 2, spec.max_card),
                "watch": {frozenset({f"f_{spec.watched}"})}}

    m = ("--model", model, "--fei", fei)
    t = ("--tle", f"ok_count < {spec.k}", "--max-card", str(spec.max_card))
    o = {n: jobs_dir / n for n in ("setup_s", "mcs_s", "ft_dynamic_s", "ftprob_s", "ftprob_cca_s",
                                   "fmea_s", "fmea_dynamic_s")}
    return [
        _cli("setup_s", o["setup_s"], lambda out: oracles.check_extend(out, "voter", probs),
             "extend", *m, "--cca", cca, "--out-dir", o["setup_s"]),
        _cli("mcs_s", o["mcs_s"], lambda out: oracles.check_mcs(out, mcs),
             "mcs", *m, *t, "--formats", "tsv,xml", "--out-dir", o["mcs_s"]),
        _cli("ft_dynamic_s", o["ft_dynamic_s"], lambda out: oracles.check_dynamic_tree(out, mcs),
             "ft", *m, *t, "--dynamic", "--formats", "xml,dot", "--out-dir", o["ft_dynamic_s"]),
        _cli("ftprob_s", o["ftprob_s"], lambda out: oracles.check_root_probability(out, root, fault_probs, mcs),
             "ftprob", *m, *t, "--out-dir", o["ftprob_s"]),
        _cli("ftprob_cca_s", o["ftprob_cca_s"],
             lambda out: oracles.check_root_probability(out, cca_root, probs, cca_mcs),
             "ftprob", *m, "--cca", cca, *t, "--out-dir", o["ftprob_cca_s"]),
        _cli("fmea_s", o["fmea_s"], lambda out: oracles.check_fmea(out, fmea_mcs, dynamic=False),
             "fmea", *m, "--props", props, "--max-card", str(spec.max_card), "--out-dir", o["fmea_s"]),
        _cli("fmea_dynamic_s", o["fmea_dynamic_s"], lambda out: oracles.check_fmea(out, fmea_mcs, dynamic=True),
             "fmea", *m, "--props", props, "--max-card", str(spec.max_card), "--dynamic",
             "--out-dir", o["fmea_dynamic_s"]),
    ]


def trees_jobs(seed: int, work: Path) -> list[Job]:
    inp, jobs_dir = work / "in", work / "jobs"
    plain = workloads.generate_tree(seed, inp / "pairs", workloads.TREE_PAIRS)
    grouped = workloads.generate_tree(seed, inp / "groups", workloads.TREE_CCA_PAIRS, groups=2)

    def exact(spec):
        return {e: Fraction(p) for e, p in spec.probs.items()}

    def tree_job(name, stage, spec_dir, check):
        out = jobs_dir / name
        return Job(name, "trees", [stage, str(spec_dir), str(out)], out, check)

    pairs = {frozenset(p) for p in plain.pairs}
    return [
        tree_job("setup_s", "setup", inp / "pairs",
                 lambda out: oracles.expect_sets("ft.ftx", oracles.FaultTreeFile(out / "ft.ftx").cut_sets(), pairs)),
        tree_job("ftprob_s", "ftprob", inp / "pairs",
                 lambda out: oracles.check_pair_tree(out, plain.pairs, exact(plain), {})),
        tree_job("ftprob_cca_s", "ftprob", inp / "groups",
                 lambda out: oracles.check_pair_tree(out, grouped.pairs, exact(grouped), grouped.groups)),
    ]


# workload -> (function making its jobs, short jobs repeated throughout each round)
WORKLOADS = {
    "fixture": (fixture_jobs, ("setup_s", "ftprob_s")),
    "voter": (voter_jobs, ("setup_s", "ftprob_s")),
    "trees": (trees_jobs, ("setup_s",)),
}

# every end-to-end metric, on every workload, with its unit (see README.md)
END_TO_END = {"setup_s": "s", "ftprob_s": "s", "round_s": "s", "peak_rss_mb": "MiB"}


# ---------------------------------------------------------------------------
# running jobs


def _limit_cpu():
    resource.setrlimit(resource.RLIMIT_CPU, (JOB_CPU_LIMIT_S, JOB_CPU_LIMIT_S + 1))


def _spawn(cmd: list[str], log: Path, env: dict) -> tuple[float, int, int]:
    """Run one fresh process to its end: (wall seconds, exit code, peak RSS KiB)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT,
                                preexec_fn=_limit_cpu)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def speed_probe(logs: Path) -> float:
    """Wall time of the fixed pure-Python speed probe, in a fresh interpreter."""
    return _spawn([sys.executable, "-c", SPEED_PROBE], logs / "speed_probe.log", dict(os.environ))[0]


def run_job(job: Job, logs: Path, spans: Path | None = None) -> tuple[float, int, int]:
    """Run one job in a fresh process: (wall seconds, exit code, peak RSS KiB)."""
    shutil.rmtree(job.out, ignore_errors=True)
    job.out.mkdir(parents=True)
    if spans is not None:
        cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans), job.name, job.kind, *job.argv]
    elif job.kind == "cli":
        cmd = [sys.executable, "-m", "mbsa.cli", *job.argv]
    else:
        cmd = [sys.executable, str(BENCH / "trees_job.py"), *job.argv]
    return _spawn(cmd, logs / f"{job.name}.log", {**os.environ, "PYTHONPATH": str(SRC)})


def execute(job: Job, res: Result, logs: Path, spans: Path | None = None) -> float:
    """Run, check and digest one job, then the speed probe; returns the
    job's wall time scaled to the nominal machine speed."""
    wall, rc, rss = run_job(job, logs, spans)
    res.speeds.append(speed_probe(logs))
    scaled = wall * NOMINAL_PROBE_S / ((res.speeds[-2] + res.speeds[-1]) / 2)
    res.attempted += 1
    problems = []
    if rc != job.expect_rc:
        problems.append(f"exit code {rc}, expected {job.expect_rc} (log: {logs / (job.name + '.log')})")
    else:
        try:
            problems += job.check(job.out)
        except Exception as exc:  # a malformed artifact fails the job, not the benchmark
            problems.append(f"check raised {type(exc).__name__}: {exc}")
    digest = oracles.digests(job.out)
    if job.name in res.digests:
        problems += oracles.compare_digests(res.digests[job.name], digest)
    else:
        res.digests[job.name] = digest
    if problems:
        res.failed += 1
        res.problems += [f"{job.name}: {p}" for p in problems]
    res.samples.setdefault(job.name, []).append(scaled)
    res.raw.setdefault(job.name, []).append(wall)
    res.rss_kb[job.name] = max(res.rss_kb.get(job.name, 0), rss)
    return scaled


def warm_up(jobs: list[Job], res: Result, logs: Path):
    """Byte-compile the program and take the first speed probe; not a sample."""
    res.speeds.append(speed_probe(logs))
    execute(jobs[0], res, logs)
    res.samples[jobs[0].name].clear()
    res.raw[jobs[0].name].clear()


def measure(jobs: list[Job], repeated, seconds: int, res: Result, logs: Path):
    """Whole rounds until ``seconds`` have passed.

    A round runs every job once, and the ``repeated`` jobs again whenever
    REPEAT_EVERY_S has passed; its time is the sum over jobs of the job's
    median within the round.
    """
    start = time.perf_counter()
    warm_up(jobs, res, logs)
    again = [j for j in jobs if j.name in repeated]
    others = [j for j in jobs if j.name not in repeated]
    last = start
    while not res.rounds or time.perf_counter() - start < seconds:
        in_round: dict[str, list[float]] = {}
        for i, job in enumerate(others):
            if i == 0 or time.perf_counter() - last >= REPEAT_EVERY_S:
                for short in again:
                    in_round.setdefault(short.name, []).append(execute(short, res, logs))
                last = time.perf_counter()
            in_round.setdefault(job.name, []).append(execute(job, res, logs))
        res.rounds.append(sum(statistics.median(v) for v in in_round.values()))


def trace_round(jobs: list[Job], res: Result, work: Path, logs: Path) -> tuple[dict, dict]:
    """One untraced and one traced round: per-layer sums and per-job breakdown."""
    warm_up(jobs, res, logs)
    for job in jobs:
        execute(job, res, logs)
    spans_dir = work / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    sums: dict[str, float] = {}
    per_job: dict[str, dict] = {}
    for job in jobs:
        spans = spans_dir / f"{job.name}.json"
        traced = execute(job, res, logs, spans)
        layers = tracer.job_layers(json.loads(spans.read_text(encoding="utf-8")))
        layers["cli.artifact_bytes"] = float(sum(p.stat().st_size for p in job.out.rglob("*") if p.is_file()))
        layers["trace.traced_s"] = traced
        layers["trace.untraced_s"] = res.samples[job.name][0]
        layers["trace.overhead_ratio"] = traced / res.samples[job.name][0]
        # the root span starts before the program's imports, so self times
        # account for all of it; what is left is interpreter start and exit
        if abs(layers["trace.self_sum_s"] - layers["trace.root_s"]) > 1e-6 + 1e-9 * layers["trace.spans"]:
            res.failed += 1
            res.problems.append(f"{job.name}: span self times do not sum to the root span")
        per_job[job.name] = layers
        for k, v in layers.items():
            sums[k] = sums.get(k, 0.0) + v
    sums["trace.overhead_ratio"] = sums["trace.traced_s"] / sums["trace.untraced_s"]
    return tracer.finish_layers(sums), per_job


# ---------------------------------------------------------------------------
# reporting


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple[Result, dict]:
    work = BENCH / "out" / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    logs = work / "logs"
    logs.mkdir(parents=True)
    build, repeated = WORKLOADS[name]
    jobs = build(seed, work)
    res = Result()
    report: dict = {"workload": name, "seed": seed, "python": sys.version.split()[0]}
    if trace:
        sums, per_job = trace_round(jobs, res, work, logs)
        metrics = {m: {"value": sums[m], "unit": unit} for m, (unit, *_) in tracer.LAYER_METRICS.items()}
        report["per_job_layers"] = per_job
        print(f"# {name}: per-layer metrics, summed over one traced round (seed {seed})")
        for m, v in metrics.items():
            print(f"{m:48s} {v['value']:14.6g} {v['unit']}")
    else:
        measure(jobs, repeated, seconds, res, logs)
        metrics = {
            "setup_s": statistics.median(res.samples["setup_s"]),
            "ftprob_s": statistics.median(res.samples["ftprob_s"]),
            "round_s": statistics.median(res.rounds),
            "peak_rss_mb": max(res.rss_kb.values()) / 1024,
        }
        metrics = {m: {"value": v, "unit": END_TO_END[m]} for m, v in metrics.items()}
        print(f"# {name}: {len(res.rounds)} rounds, {res.attempted} jobs (seed {seed})")
        print(f"{'metric':16s} {'median':>10s} {'unit':5s} {'n':>3s} {'min':>9s} {'max':>9s}"
              f" {'raw median':>10s}  peak RSS")
        for job, samples in res.samples.items():
            print(f"{job:16s} {statistics.median(samples):10.4f} {'s':5s} {len(samples):3d} "
                  f"{min(samples):9.4f} {max(samples):9.4f} {statistics.median(res.raw[job]):10.4f}"
                  f"  {res.rss_kb[job] / 1024:.1f} MiB")
        print(f"{'round_s':16s} {metrics['round_s']['value']:10.4f} {'s':5s} {len(res.rounds):3d} "
              f"{min(res.rounds):9.4f} {max(res.rounds):9.4f}")
        print(f"{'peak_rss_mb':16s} {metrics['peak_rss_mb']['value']:10.2f} MiB")
        report["samples"] = res.samples
        report["raw_samples"] = res.raw
        report["rounds"] = res.rounds
        report["speed_probes"] = res.speeds
        report["peak_rss_kb"] = res.rss_kb
    print(f"{'failed_ratio':16s} {res.failed / max(res.attempted, 1):10.4f} ratio "
          f"({res.failed} failed of {res.attempted} jobs)")
    for p in res.problems:
        print(f"FAILED {p}")
    report.update(metrics=metrics, attempted=res.attempted, failed=res.failed,
                  problems=res.problems, digests=res.digests)
    (work / "results.json").write_text(json.dumps(report, indent=1, sort_keys=True), encoding="utf-8")
    return res, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30, help="measuring time per workload")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "mbsa" / "cli.py", FIXTURES / "battery_sensor.smx") if not p.is_file()]
    if missing:
        print(f"perfbench: program sources not found: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict = {}
    for name in names:
        res, m = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += res.attempted
        failed += res.failed
        metrics.update(m if len(names) == 1 else {f"{name}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
