"""One timed pass of one benchmark workload, in a fresh process.

    python3 perfbench/workloads.py --workload enumerate --seed 0 [--trace] [--setup-only]

Run with ``src`` on ``PYTHONPATH``; ``perfbench/run.py`` starts this
program once per pass. Its first import is ``locce``, so the set-up
time it reports (from ``--t0``, a CLOCK_MONOTONIC reading the parent
takes just before starting it) covers interpreter start, the numpy,
scipy and locce imports and the workload's input generation. It then
runs every case of the workload once, checks each output, and prints
one JSON line with its timings, check counts, environment and, under
``--trace``, the per-layer metrics of the pass.
"""

import locce

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from tracing import Tracer, layer_metrics

ATOL = 1e-9
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


@dataclass
class Checks:
    """Output checks of one pass; a wrong value is counted, not raised."""

    attempted: int = 0
    failed: list[str] = field(default_factory=list)

    def check(self, name: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)


# -- enumerate: exact branch enumeration at joint dimension 4**n ---------------

def random_connected_graph(rng: np.random.Generator, n: int):
    """A random spanning tree on a random vertex order plus random chords."""
    perm = rng.permutation(n)
    edges = {tuple(sorted((int(perm[v]), int(perm[rng.integers(0, v)]))))
             for v in range(1, n)}
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in edges and rng.random() < 0.3:
                edges.add((a, b))
    return locce.Graph(n, frozenset(edges))


def prepare_enumerate(seed: int, small: bool) -> dict:
    rng = np.random.default_rng(seed)
    n = 3 if small else 5
    names = [f"A{i + 1}" for i in range(n)]
    return {
        "n": n,
        "order": [names[i] for i in rng.permutation(n)],
        "partitions": ((2, 1), (1, 2)) if small else ((2, 2, 1), (3, 2)),
        "graph": random_connected_graph(rng, n),
        "fidelity": 1.0,
    }


def _check_shape(checks: Checks, label: str, problem, result, n: int) -> None:
    joint = problem.joint
    checks.check(f"{label}: joint dim {joint.dim} members {joint.size} leaves "
                 f"{len(result.branches)}",
                 joint.dim == 4 ** n and joint.size == 2 ** n
                 and len(result.branches) == 4 ** n)


def run_enumerate(inp: dict, checks: Checks) -> list[float]:
    zoo, protocols = locce.zoo, locce.protocols
    n, want = inp["n"], inp["fidelity"]
    fidelities = []

    label = f"sequential-bell order {'-'.join(inp['order'])}"
    problem, tree = zoo.sequential_bell_protocol(n, inp["order"])
    res = protocols.run_protocol(problem, tree)
    fidelities.append(res.fidelity)
    checks.check(f"{label}: fidelity {res.fidelity!r}", abs(res.fidelity - want) <= ATOL)
    _check_shape(checks, label, problem, res, n)
    schedule = [2 ** n] + [2 ** (n - j + 1) for j in range(2, n)] + [1]
    for j, count in enumerate(schedule, start=1):
        got = res.survivors_after_measurement_round(j)
        checks.check(f"{label}: survivors after round {j} {got}", got == (count,))

    for sizes in inp["partitions"]:
        label = f"partitioned-ghz {sizes}"
        problem, tree = zoo.partitioned_ghz_protocol(n, sizes)
        res = protocols.run_protocol(problem, tree)
        fidelities.append(res.fidelity)
        checks.check(f"{label}: fidelity {res.fidelity!r}", abs(res.fidelity - want) <= ATOL)
        _check_shape(checks, label, problem, res, n)

    g = inp["graph"]
    label = f"graph-decode edges {sorted(g.edges)}"
    problem, tree = zoo.graph_decode_protocol(g)
    res = protocols.run_protocol(problem, tree)
    fidelities.append(res.fidelity)
    checks.check(f"{label}: fidelity {res.fidelity!r}", abs(res.fidelity - want) <= ATOL)
    _check_shape(checks, label, problem, res, n)
    hits = np.bincount([br.guess_index for br in res.branches], minlength=2 ** n)
    checks.check(f"{label}: outcome multiplicities {sorted(set(hits.tolist()))}",
                 np.all(hits == 2 ** n))
    return fidelities


# -- crosscheck: every registry entry against its flattened POVM ---------------

def prepare_crosscheck(_seed: int, small: bool) -> dict:
    return {"max_dim": 64 if small else None}


def run_crosscheck(inp: dict, checks: Checks) -> list[float]:
    protocols, fidelity = locce.protocols, locce.fidelity
    fidelities = []
    for entry in locce.zoo.standard_zoo():
        joint = entry.problem.joint
        if inp["max_dim"] is not None and joint.dim > inp["max_dim"]:
            continue
        res = protocols.run_protocol(entry.problem, entry.tree)
        povm, guess = protocols.flatten_to_povm(entry.tree, entry.problem)
        flat = fidelity.average_fidelity(joint, povm, guess)
        del povm, guess
        fidelities += [res.fidelity, flat]
        label = entry.name
        checks.check(f"{label}: run {res.fidelity!r} vs flattened {flat!r}",
                     abs(flat - res.fidelity) <= ATOL)
        checks.check(f"{label}: run {res.fidelity!r} vs expected {entry.expected_fidelity!r}",
                     abs(res.fidelity - entry.expected_fidelity) <= ATOL)
        if entry.mes is not None:
            bound = fidelity.mes_bound(*entry.mes)
            checks.check(f"{label}: {res.fidelity!r} above MES bound {bound!r}",
                         res.fidelity <= bound + ATOL)
        grouping = {name: "ALL" for name in joint.layout.names}
        merged = locce.Ensemble(locce.coarsen(joint.layout, grouping), joint.members)
        coarse = protocols.run_protocol(
            protocols.JointProblem(merged), protocols.relabel_parties(entry.tree, grouping),
        )
        fidelities.append(coarse.fidelity)
        checks.check(f"{label}: coarsened {coarse.fidelity!r} vs {res.fidelity!r}",
                     abs(coarse.fidelity - res.fidelity) <= ATOL)
    return fidelities


# -- oneway: seeded multi-start feasibility probe ------------------------------

ONEWAY_RESTARTS = 12
ONEWAY_MAXITER = 1500


def prepare_oneway(seed: int, small: bool) -> dict:
    starts = np.random.SeedSequence(seed).generate_state(3)
    return {
        "restarts": 1 if small else ONEWAY_RESTARTS,
        "maxiter": ONEWAY_MAXITER,
        # (spectrum, outcomes K, restart seed base, gate, threshold)
        "configs": (
            ((1.0, 1.0), 4, int(starts[0]), "<", 1e-6),
            ((1.6, 0.4), 4, int(starts[1]), ">", 1e-2),
            ((1.6, 0.4), 8, int(starts[2]), ">", 1e-2),
        ),
    }


def run_oneway(inp: dict, checks: Checks) -> list[float]:
    oneway = locce.oneway
    rep = oneway.to_matrix_rep(locce.families.bell_basis())
    residuals = []
    for lambdas, outcomes, seed, gate, threshold in inp["configs"]:
        res = oneway.feasibility_search(
            rep, oneway.ResourceSpectrum(lambdas), outcomes, inp["restarts"], seed,
            maxiter=inp["maxiter"],
        )
        value = res.best_residual
        residuals.append(value)
        ok = value < threshold if gate == "<" else value > threshold
        checks.check(f"oneway {lambdas} K{outcomes} seed {seed}: residual {value!r} "
                     f"not {gate} {threshold!r}", ok)
    return residuals


WORKLOADS = {
    "enumerate": (prepare_enumerate, run_enumerate),
    "crosscheck": (prepare_crosscheck, run_crosscheck),
    "oneway": (prepare_oneway, run_oneway),
}


def run_pass(workload: str, inputs: dict, trace: bool = False) -> dict:
    """Time one pass over the workload's cases; trace it if asked."""
    checks = Checks()
    tracer = Tracer() if trace else None
    with tracer or contextlib.nullcontext():
        wall0, cpu0 = time.perf_counter(), time.process_time()
        values = WORKLOADS[workload][1](inputs, checks)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    out = {
        "wall_s": wall,
        "cpu_s": cpu,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "failed_checks": checks.failed,
        "values": values,
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer.spans)
    return out


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process started")
    parser.add_argument("--src", required=True, help="directory that must hold the locce imported")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--small", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    src = os.path.realpath(args.src)
    if not os.path.realpath(locce.__file__).startswith(src + os.sep):
        print(f"imported locce from {locce.__file__}, not from {src}", file=sys.stderr)
        return 2
    inputs = WORKLOADS[args.workload][0](args.seed, args.small)
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s}
    if not args.setup_only:
        out.update(run_pass(args.workload, inputs, args.trace))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["env"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
