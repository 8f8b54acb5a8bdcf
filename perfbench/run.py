"""Run one skewlab benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload circle-product --seed 1 --seconds 60 --trace 0

The workload is a closed loop with one client: one job list (see
workloads.py), each job a `python -m skewlab.cli` process started when the
previous one exits, repeated while the time budget lasts.  Every output is
checked in closed form.  With `--trace 0` the run reports the end-to-end
metrics of BENCHMARK.json; with `--trace 1` it runs the same job list
in-process through `skewlab.cli.main`, alternating untraced and traced
passes, and reports the per-layer metrics.

Job times are run means: a job's time is its mean over the run's passes, a
subcommand's time the sum of its jobs' times, the pass time the mean pass.
The end-to-end metrics give these times in units of a reference process
(interpreter start, numpy import and a fixed loop; no skewlab code) timed
twice in every pass.  The shared machine's speed drifts by up to a factor
of two over minutes, and the ratio cancels most of that drift (see
NOTES.md); the seconds are kept in the run record.  `setup_s` is the
median of its probes, in seconds.  The last line of stdout is one JSON
object; the full record (machine facts, per-pass samples) is appended to
`--out`, and a traced run writes its spans next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 9
# A job that hangs fails instead of stalling the run; every job takes seconds.
JOB_TIMEOUT_S = 60
PROBE_CODE = (
    "import sys\n"
    "import skewlab.cli\n"
    "from skewlab.config import load_system\n"
    "load_system(sys.argv[1])\n"
)
# The reference does what every job does first (start the interpreter,
# import numpy) and then fixed pure-Python and numpy work, about 0.25 s in
# all.  It runs no skewlab code, so no change to the program moves it.
REFERENCE_CODE = (
    "import numpy\n"
    "s = 0\n"
    "for i in range(300000):\n"
    "    s += i * i % 7\n"
    "a = numpy.arange(200000.0)\n"
    "for _ in range(20):\n"
    "    a = numpy.sqrt(a * a + 1.0)\n"
)


class BenchError(Exception):
    """The benchmark cannot run here (e.g. no skewlab sources)."""


@dataclass
class PassResult:
    wall: float = 0.0
    times: dict[str, float] = field(default_factory=dict)  # job id -> seconds
    failures: list[tuple[str, str]] = field(default_factory=list)
    attempted: int = 0
    io_bytes: int = 0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # The thread cap stays at the program's default, so removing it changes no input.
    env.pop("SKEWLAB_THREADS", None)
    return env


def _probe(code: str, args: list[str], env: dict, what: str) -> float:
    """Seconds from spawning `python -c code *args` to its exit."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{what} failed ({proc.returncode}): {proc.stderr.strip()[-300:]}")
    return elapsed


def setup_probe(config: str, env: dict) -> float:
    """Seconds from spawning a process to the exit of import + load_system."""
    return _probe(PROBE_CODE, [config], env, "set-up probe")


def reference_probe(env: dict) -> float:
    return _probe(REFERENCE_CODE, [], env, "reference probe")


def run_pass(wl: workloads.Workload, execute, midway=None) -> PassResult:
    """One closed-loop pass over the job list; outputs are checked after it.

    `midway` runs untimed after the first half of the jobs.
    """
    res = PassResult()
    outputs = []
    start = time.perf_counter()
    for i, job in enumerate(wl.jobs):
        if midway is not None and i == len(wl.jobs) // 2:
            t0 = time.perf_counter()
            midway()
            start += time.perf_counter() - t0
        # Every check and byte count then reads this pass's own output.
        for path in job.outputs:
            Path(path).unlink(missing_ok=True)
        t0 = time.perf_counter()
        rc, out, err = execute(job)
        res.times[job.id] = time.perf_counter() - t0
        outputs.append((job, rc, out, err))
    res.wall = time.perf_counter() - start
    for job, rc, out, err in outputs:
        res.attempted += 1
        try:
            if rc != 0:
                raise checks.CheckFailed(f"exit code {rc}: {err.strip()[-200:]}")
            job.check(out, err)
        except checks.CheckFailed as exc:
            res.failures.append((job.id, str(exc)))
        except (ValueError, TypeError, KeyError, IndexError, AttributeError) as exc:
            res.failures.append((job.id, f"output cannot be parsed: {exc!r}"))
        res.io_bytes += sum(os.path.getsize(p) for p in job.outputs if os.path.exists(p))
    return res


def spawn_executor(env: dict):
    def execute(job):
        try:
            proc = subprocess.run([sys.executable, "-m", "skewlab.cli", *job.argv], env=env,
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, "", f"killed after {JOB_TIMEOUT_S} s"
        return proc.returncode, proc.stdout, proc.stderr

    return execute


def inprocess_executor(main, tracer: tracing.Tracer | None):
    entry = tracer.span(tracing.ROOT_SPAN, main) if tracer else main

    def execute(job):
        if tracer:
            tracer.job = job.id
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = entry(list(job.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
        return rc, out.getvalue(), err.getvalue()

    return execute


def timed_passes(seconds: float, make_pass) -> list:
    """Passes until the next one would overrun the budget; at least one."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(make_pass())
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return results


def run_untraced(wl, seconds, env) -> tuple[dict, list[PassResult], dict, dict]:
    """Metrics, passes, per-pass samples, and the relative metrics in seconds."""
    execute = spawn_executor(env)
    setup: list[float] = []
    reference: list[float] = []

    def probe_and_pass():
        # Probes spread over the run see the same machine states as the jobs.
        setup.append(setup_probe(wl.setup_config, env))
        reference.append(reference_probe(env))
        return run_pass(wl, execute, midway=lambda: reference.append(reference_probe(env)))

    passes = timed_passes(seconds, probe_and_pass)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(wl.setup_config, env))
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    samples = {"setup_s": setup, "reference_s": reference, "wall_s": [p.wall for p in passes]}
    samples.update({job.id: [p.times[job.id] for p in passes] for job in wl.jobs})
    # Each relative metric in seconds, before it is divided by the reference.
    times = {"wall_rel": statistics.fmean(samples["wall_s"])}
    for job in wl.jobs:
        times[job.metric] = times.get(job.metric, 0.0) + statistics.fmean(samples[job.id])
    reference_s = statistics.fmean(reference)
    metrics = {name: t / reference_s for name, t in times.items()}
    times["reference_s"] = reference_s
    metrics["setup_s"] = statistics.median(setup)
    metrics["success_rate"] = 1.0 - failed / attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return metrics, passes, samples, times


def run_traced(wl, seconds) -> tuple[dict, list[PassResult], dict, list]:
    os.environ.pop("SKEWLAB_THREADS", None)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import skewlab.cli
    import_s = time.perf_counter() - t0
    main = skewlab.cli.main

    tracers: list[tracing.Tracer] = []
    untraced: list[PassResult] = []
    traced: list[PassResult] = []

    def pair():
        untraced.append(run_pass(wl, inprocess_executor(main, None)))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced.append(run_pass(wl, inprocess_executor(main, tracer)))
        finally:
            tracer.uninstall()
        tracers.append(tracer)

    timed_passes(seconds, pair)
    per_pass = [tracing.layer_metrics(t) for t in tracers]
    samples = {name: [m[name] for m in per_pass] for name in per_pass[0]}
    samples["io.bytes"] = [p.io_bytes for p in traced]
    samples["traced_wall_s"] = [p.wall for p in traced]
    samples["untraced_wall_s"] = [p.wall for p in untraced]
    # Counts repeat from pass to pass; median_low keeps them integers.
    metrics = {name: statistics.fmean(vals) if name.endswith("_s") else statistics.median_low(vals)
               for name, vals in samples.items()}
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_s"] = metrics.pop("traced_wall_s") - metrics.pop("untraced_wall_s")
    spans = [dict(s.to_dict(), traced_pass=i) for i, t in enumerate(tracers) for s in t.spans]
    return metrics, untraced + traced, samples, spans


def machine_facts() -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "cpu": cpu}


def declared_metrics(trace: bool) -> list[dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return bench["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=RESULTS / "runs.jsonl",
                    help="JSON-lines file the full run record is appended to")
    args = ap.parse_args(argv)

    declared = declared_metrics(bool(args.trace))
    if not (SRC / "skewlab" / "cli.py").is_file():
        print(f"run.py: no skewlab sources under {SRC}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=RESULTS))
    spans = times = None
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        env = child_env()
        setup_probe(wl.setup_config, env)  # warm-up: compiles bytecode, checks the tree
        if args.trace:
            metrics, passes, samples, spans = run_traced(wl, args.seconds)
        else:
            metrics, passes, samples, times = run_untraced(wl, args.seconds, env)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = [m["name"] for m in declared]
    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": len(passes), "attempted": attempted,
        "failed": len(failures), "failures": failures[:20],
        "metrics": {n: metrics[n] for n in names}, "times_s": times, "samples": samples,
        "inputs": wl.inputs,
        "jobs": [[a.replace(str(workdir), "$WORK") for a in j.argv] for j in wl.jobs],
        "machine": machine_facts(),
    }
    with args.out.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    if spans is not None:
        span_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
        span_path.write_text("".join(json.dumps(s) + "\n" for s in spans))

    for job_id, msg in failures[:20]:
        print(f"FAIL {job_id}: {msg}", file=sys.stderr)
    for m in declared:
        print(f"{m['name']:42s} {metrics[m['name']]:>14.6g} {m['unit']}", file=sys.stderr)
    for name, t in (times or {}).items():
        print(f"{name + ' in seconds':42s} {t:>14.6g} s", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
