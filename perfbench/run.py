"""Benchmark of stokescouple: one workload per process, single-threaded.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload, one table

Run from a checkout of the repository; the package is imported from its
``src`` directory.  With ``--trace 0`` the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics; with ``--trace 1`` the metrics are the per-layer ones of a traced
run (see tracer.py).  The lines before it record the seed, the generated
inputs and the environment.
"""

import os

# Pin every thread pool before numpy is imported, so that the numbers measure
# the solver and not the scheduler.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 11  # fresh processes whose set-up time gives setup_s
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

import tracer  # noqa: E402
import workloads  # noqa: E402


class MissingProgram(RuntimeError):
    """The checkout has no stokescouple sources to benchmark."""


def import_program():
    """Import stokescouple from this checkout's src, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "stokescouple" / "__init__.py").is_file():
        raise MissingProgram(f"no stokescouple package under {src}")
    sys.path.insert(0, str(src))
    import stokescouple

    if Path(stokescouple.__file__).resolve().parent != src / "stokescouple":
        raise MissingProgram(f"imported stokescouple from {stokescouple.__file__}")
    return stokescouple


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def probe_setup(workload: str, seed: int) -> tuple:
    """(seconds from the start of a fresh process until its inputs are built,
    digest of those inputs)."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__)), "--probe", "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE,
        text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or not line.startswith("ready "):
        raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
    return elapsed, line.split()[1]


class Run:
    """Passes of one workload and the operations they attempted."""

    def __init__(self, workload, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.inputs = workload.setup(seed, workdir)
        self.memo: dict = {}
        self.attempted = 0
        self.failures: list = []

    def one_pass(self, inputs, spans=None) -> float:
        gc.collect()
        with spans.recording() if spans else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                results = self.workload.run(inputs)
            except Exception as exc:  # the pass as a whole failed: all its operations did
                traceback.print_exc()
                results = [exc] * self.workload.ops
            elapsed = time.perf_counter() - start
        self.attempted += len(results)
        failures = self.workload.check(inputs, results, self.memo)
        self.failures.extend(f for f in failures if f is not None)
        return elapsed

    def passes(self, seconds: float, spans=None) -> tuple:
        """(untraced pass times, traced pass times) of the rounds that fit in
        `seconds`, judged by the median round so far, and at least one.

        Without a tracer a round is one pass.  With one, a round is an
        untraced pass and then a traced one, so that drift in host speed
        affects both alike; the tracer stays installed and records only the
        traced pass, which builds its inputs again under the tracer
        (untimed) so that set-up layers are traced once per pass."""
        plain, traced, rounds = [], [], []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start + statistics.median(rounds) <= seconds:
            round_start = time.perf_counter()
            plain.append(self.one_pass(self.inputs))
            if spans is not None:
                with spans.recording():
                    inputs = self.workload.setup(self.seed, self.workdir)
                traced.append(self.one_pass(inputs, spans))
            rounds.append(time.perf_counter() - round_start)
        return plain, traced


def measure(args, workload, workdir: str) -> tuple:
    import_program()
    run = Run(workload, args.seed, workdir)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "inputs": {"fx": run.inputs.fx, "fz": run.inputs.fz, "digest": run.inputs.digest},
        "environment": environment(),
    }
    if not args.trace:
        # Half the probes before the passes and half after, so that setup_s
        # spans the same drift in host speed as the passes.
        probes = [probe_setup(workload.name, args.seed) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        times, _ = run.passes(args.seconds)
        probes += [probe_setup(workload.name, args.seed) for _ in range(SETUP_PROBES // 2)]
        if any(digest != run.inputs.digest for _, digest in probes):
            run.failures.append("set-up probes generated different inputs for the same seed")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median(t for t, _ in probes), "unit": "s"},
            "wall_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        record.update(pass_seconds=times, setup_probe_seconds=[t for t, _ in probes])
    else:
        spans = tracer.Tracer()
        spans.install()
        try:
            plain, traced = run.passes(args.seconds, spans)
        finally:
            spans.uninstall()
        # Each round's traced pass against its own untraced one, so that
        # drift in host speed between rounds cancels.
        ratio = statistics.median(t / p for p, t in zip(plain, traced))
        metrics = tracer.per_layer_metrics(spans.spans, spans.counters, len(traced), ratio)
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        spans.write(str(spans_path))
        record.update(
            pass_seconds=plain,
            traced_pass_seconds=traced,
            spans=str(spans_path.relative_to(ROOT)),
        )
    record["failures"] = run.failures
    return record, run, metrics


def run_one(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    try:
        if args.probe:
            import_program()
            inputs = workload.setup(args.seed, workdir)
            print(f"ready {inputs.digest}", flush=True)
            return 0
        record, run, metrics = measure(args, workload, workdir)
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in run.failures:
        print(f"FAILED {failure}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(f"ops_attempted = {run.attempted}, ops_failed = {len(run.failures)}")
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_workload(name: str, seed: int, trace: int, seconds: float) -> tuple:
    """(result, record) of one workload run in a fresh process, read from the
    last two lines it prints.  Raises CalledProcessError if it fails."""
    argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    rows = {}
    for name in workloads.WORKLOADS:
        try:
            rows[name], _ = run_workload(name, args.seed, args.trace, args.seconds)
        except subprocess.CalledProcessError as exc:
            print(f"perfbench: {name} exited with code {exc.returncode}", file=sys.stderr)
            return exc.returncode
    for name, row in rows.items():
        print(f"{name}: ops_attempted = {row['attempted']}, ops_failed = {row['failed']}")
        for metric, value in row["metrics"].items():
            print(f"  {metric} = {value['value']} {value['unit']}")
    print(json.dumps({
        "correct": all(row["correct"] for row in rows.values()),
        "attempted": sum(row["attempted"] for row in rows.values()),
        "failed": sum(row["failed"] for row in rows.values()),
        "metrics": {f"{name}.{m}": v for name, row in rows.items() for m, v in row["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
