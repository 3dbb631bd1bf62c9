"""Time the alternating solver's trace iteration on the mesh ladder.

    python3 scripts/schwarz_ladder.py [--src DIR]

Imports stokescouple from DIR/src (default: this checkout), pins every
thread pool to one thread, and runs `schwarz_solve` with the default stop
(tol_increment 1e-3, max_iter 100000) on the reference problem: default
geometry, unit viscosities, body force (1, -1).  Each (mesh, alpha) of
MESHES x ALPHAS is solved REPEATS times, each time on a fresh
discretization: the layers' interface cores are cached on it, so setup_s is
the set-up of one solve from scratch.  Prints one JSON object with a row per
(mesh, alpha): the iteration count, the median set-up and iterate seconds,
and the median microseconds per iteration (iterate_s / n_iterations;
iterate_s includes the two certified solves that rebuild the fields at the
stop).
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

MESHES = ("8x4x2", "32x16x4", "64x32x8")
ALPHAS = (10.0, 100.0, 1000.0)
REPEATS = 3


def ladder(meshes=MESHES, alphas=ALPHAS, repeats=REPEATS) -> list:
    """One row per (mesh, alpha), for the package already importable."""
    from stokescouple.coupling import SchwarzConfig, schwarz_solve
    from stokescouple.fem import BodyForce
    from stokescouple.mesh import Geometry, build_layered_mesh

    force = BodyForce(1.0, -1.0)
    rows = []
    for spec in meshes:
        nx, nzu, nzl = (int(v) for v in spec.split("x"))
        mesh = build_layered_mesh(Geometry(), nx, nzu, nzl)
        for alpha in alphas:
            config = SchwarzConfig(alpha=alpha)
            # no disc: each solve discretizes afresh
            runs = [schwarz_solve(mesh, 1.0, 1.0, force, force, config) for _ in range(repeats)]
            n = runs[0].n_iterations
            assert all(r.n_iterations == n for r in runs)
            iterate_s = statistics.median(r.iterate_s for r in runs)
            rows.append(
                {
                    "mesh": spec,
                    "alpha": alpha,
                    "n_iterations": n,
                    "converged": runs[0].converged,
                    "setup_s": round(statistics.median(r.setup_s for r in runs), 4),
                    "iterate_s": round(iterate_s, 5),
                    "us_per_iter": round(1e6 * iterate_s / n, 2),
                }
            )
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent))
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src) / "src"))
    print(json.dumps({"src": args.src, "repeats": REPEATS, "rows": ladder()}))


if __name__ == "__main__":
    main()
