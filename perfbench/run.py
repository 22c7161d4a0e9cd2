#!/usr/bin/env python3
"""Benchmark of the junctionplan planner.

Run from the repository root:

    python3 perfbench/run.py --workload batch50 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in one process, one operation at a time, with BLAS
pinned to one thread:

  batch50    plan_agent on the 50 reference sphere worlds (world seeds 1-50),
             failures included; one operation is one plan_agent call.
  negotiate  the CLI's plan command on a 3-agent ring, a 2-agent crossing
             and a 2-agent head-on swap that has no assignment (exit 3);
             one operation is one CLI run.
  oracle     the symmetric scenario and ten single-obstacle worlds, each
             planned and then solved with the discrete penalty oracle;
             one operation is one world.

A run repeats whole passes over its inputs until the next pass would end
after --seconds (at least one pass); an operation shorter than 0.5 s is
called up to nine times and its median time counts. The result's
attempted and failed count each input once, whatever the number of
passes and calls. With --trace 0 it reports the
end-to-end metrics; with --trace 1 it makes one untraced and one traced
pass and reports the per-layer metrics of the traced pass and the
tracing overhead. Times are scaled to a fixed machine speed (see
REFERENCE_KERNEL_S). Every outcome is checked independently of the planner.
The last line of standard output is the result as JSON. The exit code is
1 when an output fails its check and 2 when the benchmark cannot run.
Results, answer records and spans are written to perfbench/results/.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("batch50", "negotiate", "oracle")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 900

for _path in (str(HERE), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from tracer import LAYERS, PACKAGE, Tracer  # noqa: E402

# Per-layer metrics with --trace 1: public functions whose calls, self time
# and total time (children included) are reported, then derived counters.
TIMED_FUNCTIONS = (
    "solver.assemble_system",
    "solver.solve_coefficients",
    "trajectory.solve_refined",
    "solver.initial_guess",
    "world.first_violation",
    "trajectory.sample_trajectory",
    "game.negotiate_arrival_times",
    "trajectory.sample_positions_held",
    "oracle.discrete_min_energy_constrained",
)


class SetupError(RuntimeError):
    """The package or the benchmark's inputs could not be set up."""


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile: a measured sample, not a blend of two, so
    that it picks the same operation whatever the number of passes."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q, method="inverted_cdf"))


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{config['name']} {config['version']}"
    except (TypeError, KeyError):
        pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
    }


def _import_workloads():
    """Import the benchmark's workloads and the package from this checkout."""
    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        raise SetupError(f"no {PACKAGE} sources under {ROOT / 'src'}")
    import workloads

    return workloads


# The host's speed drifts by up to 1.5x, on time scales from milliseconds
# to tens of seconds, when other tenants load its cores; that swamps any
# bound on raw wall-clock times. So every reported time is scaled to a
# fixed machine speed. A timer signal runs a short reference kernel every
# SAMPLE_PERIOD_S during the passes. The kernel uses no package code, only
# the kinds of work the package does: small NumPy and LAPACK calls, a
# vectorized NumPy pass and Python arithmetic. On a 2-vCPU x86 host, over
# 10-second windows in which the planner's raw speed swung by 22%, the
# planner's time stayed within 3% of a fixed multiple of the kernel's, and
# the oracle's within 10%. Each operation's time, less the kernel runs
# inside it, is multiplied by REFERENCE_KERNEL_S over the mean kernel time
# around it. Raw times are kept in the results file. In a traced pass the
# ticks (about 3% of the time) fall inside whatever span is open.
REFERENCE_KERNEL_S = 0.001
SAMPLE_PERIOD_S = 0.05
# Kernel times within this distance of an operation set its speed; short
# operations need several samples because the speed jitters from one
# kernel run to the next.
SPEED_WINDOW_S = 0.25
_MATRIX = [[8.0 if i == j else 1.0 / (1 + i + j) for j in range(8)] for i in range(8)]


def kernel() -> float:
    import numpy as np

    a = np.array(_MATRIX)
    x = np.linspace(0.0, 1.0, 2001)
    acc = 0.0
    for i in range(15):
        block = np.kron(np.array([1.0, x[i], x[i] ** 2, 1.0]), np.eye(2))
        acc += float(np.cumsum(x * block[0, 0])[-1]) + sum(k * k for k in range(60))
        acc += float(np.linalg.solve(a, block[0])[0]) + float(np.linalg.cond(a))
    return acc


def kernel_seconds(repeats: int = 100) -> float:
    """Mean time of one reference kernel run, in seconds."""
    started = time.perf_counter()
    for _ in range(repeats):
        kernel()
    return (time.perf_counter() - started) / repeats


class SpeedSampler:
    """Times the reference kernel from a timer signal while it is entered."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _tick(self, signum, frame):
        started = time.perf_counter()
        kernel()
        self.samples.append((started, time.perf_counter() - started))

    def __enter__(self):
        kernel()  # import NumPy before the first tick
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def times(self, start: float, end: float) -> tuple[float, float]:
        """Raw and scaled seconds of an operation that ran from start to end."""
        inside = sum(d for s, d in self.samples if start <= s and s + d <= end)
        near = [d for s, d in self.samples
                if start - SPEED_WINDOW_S <= s <= end + SPEED_WINDOW_S]
        if not near:  # ticks wait for long native calls to return
            near = [min(self.samples, key=lambda sample: abs(sample[0] - end))[1]]
        raw = end - start - inside
        return raw, raw * REFERENCE_KERNEL_S / statistics.fmean(near)


class Record(NamedTuple):
    """One input's latency (median over its calls) and the calls' outcomes."""

    raw_s: float
    scaled_s: float
    outcome: object
    repeats: tuple = ()  # outcomes of the calls after the first


def setup_probe(workload: str, seed: int) -> None:
    """Child process: time importing the package and generating the inputs."""
    started = time.perf_counter()
    workloads = _import_workloads()

    workdir = RESULTS / f"work-probe-{os.getpid()}"
    try:
        workloads.WORKLOADS[workload]().inputs(seed, workdir)
        elapsed = time.perf_counter() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(elapsed), repr(kernel_seconds()))


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(raw, scaled) seconds of each set-up, each in a fresh process."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines() or ["no output"]
            raise SetupError(f"set-up probe failed: {lines[-1]}")
        raw, kernel_s = map(float, proc.stdout.strip().splitlines()[-1].split())
        samples.append((raw, raw * REFERENCE_KERNEL_S / kernel_s))
    return samples


# Operations this short run again, up to REPEAT_LIMIT calls in all, and
# report the median of their times: one call of a few milliseconds is
# dominated by the host's jitter. Traced passes call each input once, so
# that their counts do not depend on timing.
REPEAT_LIMIT = 9
REPEAT_BUDGET_S = 0.5


def run_passes(wl, inputs, seconds: float, tracer=None) -> list[list[Record]]:
    """Whole passes over the inputs until the next would end after seconds."""
    passes = []
    started = time.perf_counter()
    limit = 1 if tracer else REPEAT_LIMIT
    with SpeedSampler() as sampler:
        while True:
            pass_started = time.perf_counter()
            timings = []
            for inp in inputs:
                calls = []
                while not calls or (
                    len(calls) < limit and calls[-1][1] - calls[0][0] < REPEAT_BUDGET_S
                ):
                    if tracer is not None:
                        tracer.op_id += 1
                    span = tracer.span("bench.operation") if tracer else nullcontext()
                    # Start each call from a collected heap, so that the
                    # collector's work inside it depends on that call alone.
                    gc.collect()
                    op_started = time.perf_counter()
                    with span:
                        outcome = wl.run(inp, tracer is not None)
                    calls.append((op_started, time.perf_counter(), outcome))
                timings.append(calls)
            passes.append(timings)
            now = time.perf_counter()
            if now - started + (now - pass_started) > seconds:
                break
        # the last operation needs the samples taken just after it
        time.sleep(SPEED_WINDOW_S)
    records = []
    for timings in passes:
        records.append([])
        for calls in timings:
            raw, scaled = zip(*(sampler.times(start, end) for start, end, _ in calls))
            records[-1].append(Record(statistics.median(raw), statistics.median(scaled),
                                      calls[0][2], tuple(c[2] for c in calls[1:])))
    return records


def _wall(records, field: str = "scaled_s") -> float:
    return sum(getattr(r, field) for r in records)


def _artifact_bytes(records) -> int:
    return sum(
        p.stat().st_size
        for r in records if "out" in r.outcome.extra
        for p in r.outcome.extra["out"].iterdir()
    )


def _layer_metrics(tracer, counters: dict, untraced, traced) -> dict:
    calls = tracer.calls_by_name()
    self_s = tracer.self_times()
    total_s = tracer.total_times()
    metrics = {}
    for name in TIMED_FUNCTIONS:
        metrics[f"{name}.calls"] = _metric(calls[name], "count")
        metrics[f"{name}.self_s"] = _metric(self_s[name], "s")
        metrics[f"{name}.total_s"] = _metric(total_s[name], "s")
    lm = counters["lm_iterations"]
    plans = calls["solver.plan_agent"]
    metrics.update({
        "trajectory.eval_trajectory.calls": _metric(calls["trajectory.eval_trajectory"], "count"),
        "solver.lm_iterations": _metric(lm, "count"),
        "solver.solves_per_iteration": _metric(
            calls["solver.solve_coefficients"] / lm if lm else 0.0, "ratio"),
        "solver.junctions": _metric(counters["junctions"], "count"),
        "solver.converged_ratio": _metric(
            counters["converged"] / plans if plans else 0.0, "ratio"),
        "game.pair_checks": _metric(
            tracer.calls[("game", "trajectory.sample_positions_held")] // 2, "count"),
        "cli.plan_agent.calls": _metric(tracer.calls[("cli", "solver.plan_agent")], "count"),
        "cli.main.self_s": _metric(self_s["cli.main"], "s"),
        "cli.artifact_bytes": _metric(_artifact_bytes(traced), "B"),
        "oracle.accepted_iterates": _metric(
            sum(r.outcome.extra.get("accepted", 0) for r in traced), "count"),
        "world.gen_world.self_s": _metric(self_s["world.gen_world"], "s"),
    })
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = _metric(
            sum(v for k, v in self_s.items() if k.startswith(layer + ".")), "s")
    # span times are raw, so compare them with the raw traced operations
    metrics["traced_wall_s"] = _metric(total_s["bench.operation"], "s")
    metrics["trace_overhead"] = _metric(_wall(traced) / _wall(untraced), "ratio")
    return metrics


def _trace_counters(tracer) -> dict:
    counters = {"lm_iterations": 0, "junctions": 0, "converged": 0}

    def solved(result):
        counters["lm_iterations"] += result[1].iterations

    def planned(result):
        counters["junctions"] += len(result[1].junction_sequence)
        counters["converged"] += int(result[1].converged)

    tracer.on_return["solver.solve_junctions"] = solved
    tracer.on_return["solver.plan_agent"] = planned
    return counters


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 results_dir: Path = RESULTS, small: bool = False) -> dict:
    """Run one workload and return its result, checks and answers."""
    try:
        workloads = _import_workloads()
    except ImportError as exc:
        raise SetupError(f"cannot import the package: {exc}") from exc

    setup = None if trace else measure_setup(name, seed)

    results_dir.mkdir(parents=True, exist_ok=True)
    workdir = results_dir / f"work-{name}-{os.getpid()}"
    wl = workloads.WORKLOADS[name]()
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    try:
        inputs = wl.inputs(seed, workdir, small)
        passes = run_passes(wl, inputs, 0 if trace else seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checked = [(inputs, records) for records in passes]
        if trace:
            tracer = Tracer()
            counters = _trace_counters(tracer)
            tracer.install()
            try:
                with tracer.span("bench.inputs"):
                    traced_inputs = wl.inputs(seed, workdir / "traced", small)
                traced = run_passes(wl, traced_inputs, 0, tracer)[0]
            finally:
                tracer.uninstall()
            checked.append((traced_inputs, traced))
            tracer.write(results_dir / f"{tag}-spans.csv.gz")

        errors = []
        answers = None
        for run_inputs, records in checked:
            run_answers = []
            for inp, record in zip(run_inputs, records):
                answer = wl.answer(inp, record.outcome)
                for outcome in (record.outcome,) + record.repeats:
                    errors += wl.check(inp, outcome)
                    if wl.answer(inp, outcome) != answer:
                        errors.append(f"{inp.label}: answers differ between calls")
                run_answers.append(answer)
            if answers is None:
                answers = run_answers
            elif run_answers != answers:
                errors.append("answers differ between passes over the same inputs")
        if trace:
            metrics = _layer_metrics(tracer, counters, passes[0], traced)
        else:
            latencies = [r.scaled_s for records in passes for r in records]
            metrics = {
                "setup_s": _metric(statistics.median(s for _, s in setup), "s"),
                "wall_s": _metric(statistics.median(_wall(r) for r in passes), "s"),
                "plan_ms_p50": _metric(1e3 * _percentile(latencies, 50), "ms"),
                "plan_ms_p80": _metric(1e3 * _percentile(latencies, 80), "ms"),
                "peak_rss_mb": _metric(peak_rss_mb, "MiB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [r for records in passes for r in records]
    summary = {
        "passes": len(passes),
        "operations_per_pass": len(inputs),
        "latency_samples": len(untraced),
        "setup_raw_and_scaled_s": setup,
        "pass_wall_raw_s": [_wall(r, "raw_s") for r in passes],
        "pass_wall_scaled_s": [_wall(r) for r in passes],
        "fail_s": statistics.median(
            sum(r.scaled_s for r in records if not r.outcome.ok) for records in passes),
        "failed_frac": sum(1 for r in untraced if not r.outcome.ok) / len(untraced),
        "ended_with_plan": sum(1 for r in passes[0] if r.outcome.ok),
        "calls": sum(1 + len(r.repeats) for r in untraced),
        "operations": [[inp.label, r.raw_s, r.scaled_s, r.outcome.failure, 1 + len(r.repeats)]
                       for inp, r in zip(inputs, passes[0])],
    }
    answers_path = results_dir / f"answers-{name}-seed{seed}.jsonl"
    with open(answers_path, "w", encoding="utf-8") as fh:
        for answer in answers:
            fh.write(json.dumps(answer, sort_keys=True) + "\n")
    # One operation per input: the repeated calls and passes over it are
    # timing samples whose answers must match its first call, so the counts
    # depend on the seed alone, not on how many samples the host's speed let
    # the run take.
    result = {
        "correct": not errors,
        "attempted": len(inputs),
        "failed": sum(1 for r in passes[0] if not r.outcome.ok),
        "metrics": metrics,
    }
    meta = metadata(name, seed, seconds, trace)
    with open(results_dir / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result,
                   "summary": summary, "errors": errors,
                   "answers": str(answers_path)}, fh, indent=2)
        fh.write("\n")
    return {"meta": meta, "result": result, "summary": summary, "errors": errors,
            "answers_path": answers_path}


def _print_report(name: str, run: dict) -> None:
    meta, summary = run["meta"], run["summary"]
    print(f"junctionplan benchmark: workload {name}, seed {meta['seed']}, "
          f"trace {meta['trace']}")
    print(f"  python {meta['python']}, numpy {meta['numpy']}, blas {meta['blas']}, "
          f"nproc {meta['nproc']}, commit {meta['git_commit']}")
    print(f"  {summary['passes']} pass(es) of {summary['operations_per_pass']} "
          f"inputs, {summary['latency_samples']} latency samples, "
          f"{summary['calls']} calls (a short operation's latency is the median "
          f"of up to {REPEAT_LIMIT} calls)")
    for key, metric in run["result"]["metrics"].items():
        print(f"  {key:<48} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  (times scaled to the reference machine speed; setup_s is the "
          f"median of {SETUP_REPEATS} set-ups; raw times are in the results file)")
    print(f"  {'fail_s':<48} {summary['fail_s']:>14.6g} s")
    print(f"  {'failed_frac':<48} {summary['failed_frac']:>14.6g} ratio")
    print(f"  answers: {summary['ended_with_plan']} of {summary['operations_per_pass']} "
          f"operations ended with a plan; {run['answers_path']}")
    for error in run["errors"]:
        print(f"  CHECK FAILED: {error}")


def run_all(args) -> int:
    """Every workload, each in its own process, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: benchmark did not run (exit {proc.returncode})",
                  file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        child = json.loads(lines[-1])
        combined["correct"] &= child["correct"]
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        for key, metric in child["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
        code = max(code, proc.returncode)
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    try:
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_report(args.workload, run)
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
