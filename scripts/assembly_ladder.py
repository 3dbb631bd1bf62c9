"""Time the assembly and solver layers on the mesh ladder for two checkouts,
back to back.

    python3 scripts/assembly_ladder.py --parent DIR --change DIR --label L [--seed-base S]
    python3 scripts/assembly_ladder.py --phases DIR   # one side, one JSON line
    python3 scripts/assembly_ladder.py --schwarz DIR MESH   # one run, one JSON line
    python3 scripts/assembly_ladder.py --friction DIR MESH  # one run, one JSON line

Every thread pool is pinned to one thread.  Each of ROUNDS rounds times
each checkout in a fresh process (`--phases`), alternating which side goes first.  On each
mesh of MESHES that process times, as the median of REPEATS calls, the
phases on the reference problem (default geometry, unit viscosities, body
force (1, -1)):

    mesh             build_layered_mesh
    validate         validate_mesh
    spaces           build_space, both layers
    assemble_stokes  assemble_stokes, both layers
    continuity       the continuity system, from the layer operators
    friction         the friction system at alpha = ALPHA, from the layer
                     operators (`assemble_coupled_system`)

and, for each phase of PEAKED, <phase>.numpy_peak_mb: the peak of the
memory tracemalloc traces (numpy's arrays, Python's objects) over one more
call, in MB, the result included;

and, for each monolithic system (friction at alpha = ALPHA, continuity)
and each layer's interface core (upper_core, lower_core: the layer's
friction-free system, `assemble_robin_subproblem`):

    <system>.factorize  factorize, wall seconds
    <system>.vm_mb      the growth of the process's peak address space
                        (VmPeak in /proc/self/status, MB) over a
                        factorization, the largest over the repeats: 0 when
                        it stays below a peak the process reached before
    <system>.solve      the triangular solves of one rhs (SolveReport.solve_s)
    <system>.certify    the rest of Factorization.solve: the residual check
    <system>.lu_nnz     L + U nonzeros, and <system>.residual, the certified
                        relative residual (both from the last repeat)
    <system>.path       how it was factored (SolveReport.ordering):
                        MMD_AT_PLUS_A whole, under SuperLU's minimum-degree
                        order, X-FOURIER one Fourier mode along x at a time

and, for the alternating solver (`schwarz_solve`, default stop: tol_increment
1e-3, max_iter 100000):

    <layer>_core.setup      building the layer's interface core
                            (`coupling._InterfaceCore`) from its operator
    schwarz.<a>.iterate     ConvergenceReport.iterate_s at alpha = a of
                            SCHWARZ_ALPHAS, on a discretization whose cores
                            are built: the trace iteration and the two
                            certified fields rebuilt at the stop
    schwarz.<a>.n_iterations, schwarz.<a>.us_per_iter (iterate / n_iterations)

It then runs `perfbench/run.py --workload W --seed S --trace 0` from each
checkout for PAIRS seeds per workload (seeds S, S+1, ... for cli and
S+100, ... for monolithic-64x32x8), alternating which side runs first, and
keeps the end-to-end metrics of each run.  Last, on LARGEST, it runs for
each checkout one schwarz solve at alpha = ALPHA (`--schwarz`: its wall,
set-up and iterate seconds) and one monolithic friction solve at alpha =
ALPHA (`--friction`: its wall seconds), each in a fresh process, with the
process's peak RSS (ru_maxrss) and peak address space (VmPeak).
Writes BENCH_<label>.json in the working directory with the machine, every
round and pair, and per-side medians.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

MESHES = ("8x4x2", "32x16x4", "64x32x8", "128x64x16")
REPEATS = {"8x4x2": 15, "32x16x4": 9, "64x32x8": 5, "128x64x16": 3}
ROUNDS = 6
PAIRS = 10
WORKLOADS = ("cli", "monolithic-64x32x8")
ALPHA = 10.0
SCHWARZ_ALPHAS = (10.0, 100.0, 1000.0)
LARGEST = "256x128x32"
SIDES = ("parent", "change")
PEAKED = ("spaces", "assemble_stokes", "continuity", "friction")


def assemblers(ops: list) -> tuple:
    """(continuity, friction): each assembles its monolithic system from the
    layer operators and returns (matrix, rhs), the matrix as `factorize`
    takes it."""
    from stokescouple import fem

    def assemble(coupling):
        system = fem.assemble_coupled_system(*ops, coupling)
        return system.matrix, system.rhs

    return (lambda: assemble(float("inf"))), (lambda: assemble(ALPHA))


def core(op):
    """The layer's interface core, (matrix, rhs): its friction-free system."""
    from stokescouple import fem

    system, _ = fem.assemble_robin_subproblem(op)
    return system.matrix, system.rhs


def time_schwarz(mesh, force, repeats: int) -> dict:
    """phase -> median seconds (or count) of the alternating solver on mesh:
    each layer's interface core built from scratch, and the runs at
    SCHWARZ_ALPHAS on one discretization, whose cores the first run builds."""
    from stokescouple import coupling
    from stokescouple.mesh import Subdomain

    disc = coupling.discretize(mesh, 1.0, 1.0, force, force)
    out = {}
    for sub, name in ((Subdomain.UPPER, "upper_core"), (Subdomain.LOWER, "lower_core")):
        seconds = []
        for _ in range(repeats):
            start = time.perf_counter()
            coupling._InterfaceCore(disc.op(sub), disc.trace_mass)
            seconds.append(time.perf_counter() - start)
        out[f"{name}.setup"] = round(statistics.median(seconds), 6)
    for alpha in SCHWARZ_ALPHAS:
        config = coupling.SchwarzConfig(alpha=alpha)
        runs = [coupling.schwarz_solve(mesh, 1.0, 1.0, force, force, config, disc=disc) for _ in range(repeats)]
        n = runs[0].n_iterations
        assert all(r.n_iterations == n and r.converged for r in runs)
        iterate_s = statistics.median(r.iterate_s for r in runs)
        out[f"schwarz.{alpha:g}.iterate"] = round(iterate_s, 6)
        out[f"schwarz.{alpha:g}.n_iterations"] = n
        out[f"schwarz.{alpha:g}.us_per_iter"] = round(1e6 * iterate_s / n, 2)
    return out


def numpy_peak_mb(call) -> float:
    """The peak of the memory tracemalloc traces over one call, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def vm_peak_mb() -> float:
    """The peak address space of this process so far (VmPeak), in MB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmPeak:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("/proc/self/status has no VmPeak line")


def peaks() -> dict:
    """This process's peak RSS (ru_maxrss) and peak address space, in MB."""
    import resource

    return {
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "vm_peak_mb": round(vm_peak_mb(), 1),
    }


def time_phases(src: Path) -> dict:
    """mesh -> phase -> median seconds (or count, or path), for the package
    under src/src."""
    sys.path.insert(0, str(src / "src"))
    from stokescouple import linalg
    from stokescouple.fem import BodyForce, assemble_stokes, build_space
    from stokescouple.mesh import Geometry, Subdomain, build_layered_mesh, validate_mesh

    force = BodyForce(1.0, -1.0)
    out = {}
    for spec in MESHES:
        cells = tuple(int(v) for v in spec.split("x"))
        mesh = build_layered_mesh(Geometry(), *cells)
        spaces = [build_space(mesh, sub) for sub in (Subdomain.UPPER, Subdomain.LOWER)]
        ops = [assemble_stokes(space, 1.0, force) for space in spaces]
        continuity, friction = assemblers(ops)
        phases = {
            "mesh": lambda: build_layered_mesh(Geometry(), *cells),
            "validate": lambda: validate_mesh(mesh),
            "spaces": lambda: [build_space(mesh, sp.subdomain) for sp in spaces],
            "assemble_stokes": lambda: [assemble_stokes(sp, 1.0, force) for sp in spaces],
            "continuity": continuity,
            "friction": friction,
        }
        out[spec] = {}
        for name, call in phases.items():
            seconds = []
            for _ in range(REPEATS[spec]):
                start = time.perf_counter()
                call()
                seconds.append(time.perf_counter() - start)
            out[spec][name] = round(statistics.median(seconds), 6)
        for name in PEAKED:
            out[spec][f"{name}.numpy_peak_mb"] = round(numpy_peak_mb(phases[name]), 3)

        systems = {
            "friction": friction,
            "continuity": continuity,
            "upper_core": lambda: core(ops[0]),
            "lower_core": lambda: core(ops[1]),
        }
        for name, assemble in systems.items():
            matrix, rhs = assemble()
            seconds = {"factorize": [], "solve": [], "certify": []}
            vm_mb = 0.0
            for _ in range(REPEATS[spec]):
                vm_before, start = vm_peak_mb(), time.perf_counter()
                fact = linalg.factorize(matrix)
                seconds["factorize"].append(time.perf_counter() - start)
                vm_mb = max(vm_mb, vm_peak_mb() - vm_before)
                start = time.perf_counter()
                _, report = fact.solve(rhs)
                seconds["certify"].append(time.perf_counter() - start - report.solve_s)
                seconds["solve"].append(report.solve_s)
                del fact
            for phase, values in seconds.items():
                out[spec][f"{name}.{phase}"] = round(statistics.median(values), 6)
            out[spec][f"{name}.vm_mb"] = round(vm_mb, 1)
            out[spec][f"{name}.lu_nnz"] = report.lu_nnz
            out[spec][f"{name}.residual"] = report.relative_residual
            out[spec][f"{name}.path"] = report.ordering
        out[spec].update(time_schwarz(mesh, force, REPEATS[spec]))
    return out


def schwarz_run(src: Path, spec: str) -> dict:
    """One schwarz solve at alpha = ALPHA on the mesh spec, for the package
    under src/src, in this process: its seconds and the peak memory."""
    sys.path.insert(0, str(src / "src"))
    from stokescouple.coupling import SchwarzConfig, schwarz_solve
    from stokescouple.fem import BodyForce
    from stokescouple.mesh import Geometry, build_layered_mesh

    force = BodyForce(1.0, -1.0)
    start = time.perf_counter()
    mesh = build_layered_mesh(Geometry(), *(int(v) for v in spec.split("x")))
    report = schwarz_solve(mesh, 1.0, 1.0, force, force, SchwarzConfig(alpha=ALPHA))
    return {
        "mesh": spec,
        "alpha": ALPHA,
        "wall_s": round(time.perf_counter() - start, 3),
        "setup_s": round(report.setup_s, 3),
        "iterate_s": round(report.iterate_s, 3),
        "n_iterations": report.n_iterations,
        "residuals": [r.relative_residual for r in report.setup_reports + report.reconstruction_reports],
        **peaks(),
    }


def friction_run(src: Path, spec: str) -> dict:
    """One monolithic friction solve at alpha = ALPHA on the mesh spec, for
    the package under src/src, in this process: its seconds and the peak
    memory."""
    sys.path.insert(0, str(src / "src"))
    from stokescouple.coupling import solve_monolithic_friction
    from stokescouple.fem import BodyForce
    from stokescouple.mesh import Geometry, build_layered_mesh

    force = BodyForce(1.0, -1.0)
    start = time.perf_counter()
    mesh = build_layered_mesh(Geometry(), *(int(v) for v in spec.split("x")))
    solve_monolithic_friction(mesh, 1.0, 1.0, force, force, ALPHA)
    return {"mesh": spec, "alpha": ALPHA, "wall_s": round(time.perf_counter() - start, 3), **peaks()}


def run_fresh(*args: str) -> dict:
    """This script's last JSON line, run in a fresh process with args."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def run_perfbench(checkout: Path, workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    row = {name: round(m["value"], 6) for name, m in result["metrics"].items()}
    row.update(attempted=result["attempted"], failed=result["failed"])
    return row


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": round(q1, 6), "median": round(median, 6), "q3": round(q3, 6)}


def summarize(rounds: list) -> dict:
    """mesh -> phase -> each side's median over the rounds (unrounded, so the
    residuals keep their digits) and the rounds in which the change was lower."""
    summary = {}
    for spec in MESHES:
        summary[spec] = {}
        for phase in rounds[0]["parent"][spec]:
            per_side = {side: [r[side][spec][phase] for r in rounds] for side in SIDES}
            if phase.endswith(".path"):
                summary[spec][phase] = {side: v[0] for side, v in per_side.items()}
                continue
            summary[spec][phase] = {
                **{side: statistics.median(v) for side, v in per_side.items()},
                "change_lower_in_rounds": sum(
                    c < p for p, c in zip(per_side["parent"], per_side["change"])
                ),
            }
    return summary


def ladder(dirs: dict) -> dict:
    rounds = []
    for r in range(ROUNDS):
        order = SIDES if r % 2 == 0 else SIDES[::-1]
        rounds.append({"first": order[0], **{side: run_fresh("--phases", str(dirs[side])) for side in order}})
    return {"rounds": rounds, "median_over_rounds_s": summarize(rounds)}


def perfbench_pairs(dirs: dict, seed_base: int) -> dict:
    out = {}
    for w, workload in enumerate(WORKLOADS):
        pairs = []
        for k in range(PAIRS):
            seed = seed_base + 100 * w + k
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            runs = {side: run_perfbench(dirs[side], workload, seed) for side in order}
            pairs.append({"seed": seed, "first": order[0], **runs})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} wall_s {runs[side]['wall_s']}" for side in SIDES), file=sys.stderr)
        summary = {}
        for metric in ("wall_s", "setup_s", "peak_rss_mb"):
            values = {side: [p[side][metric] for p in pairs] for side in SIDES}
            summary[metric] = {
                **{side: quartiles(v) for side, v in values.items()},
                "change_lower_in_pairs": sum(
                    c < p for p, c in zip(values["parent"], values["change"])
                ),
            }
        summary["failed"] = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
        out[workload] = {"pairs": pairs, "summary": summary}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--phases", type=Path, metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--schwarz", nargs=2, metavar=("DIR", "MESH"), help=argparse.SUPPRESS)
    parser.add_argument("--friction", nargs=2, metavar=("DIR", "MESH"), help=argparse.SUPPRESS)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--label", help="the report is written to BENCH_<label>.json")
    parser.add_argument("--seed-base", type=int, default=701)
    args = parser.parse_args()
    if args.phases is not None:
        print(json.dumps(time_phases(args.phases.resolve())))
        return 0
    for run, spec in ((schwarz_run, args.schwarz), (friction_run, args.friction)):
        if spec is not None:
            print(json.dumps(run(Path(spec[0]).resolve(), spec[1])))
            return 0
    if args.parent is None or args.change is None or args.label is None:
        parser.error("--parent, --change and --label are required")
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {
        "command": (
            "python3 scripts/assembly_ladder.py --parent PARENT --change CHANGE"
            f" --label {args.label} --seed-base {args.seed_base}"
        ),
        "machine": machine(),
        "repeats": REPEATS,
        "ladder": ladder(dirs),
        "perfbench_pairs": perfbench_pairs(dirs, args.seed_base),
        "largest": {
            run: {side: run_fresh(f"--{run}", str(dirs[side]), LARGEST) for side in SIDES}
            for run in ("schwarz", "friction")
        },
    }
    Path(f"BENCH_{args.label}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
