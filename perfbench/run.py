"""locce benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload enumerate --seed 0 --seconds 30 --trace 0

Run from the root of a locce checkout; the package is imported from its
``src`` directory. Each pass runs in a fresh ``perfbench/workloads.py``
process, one at a time, until the next pass would overrun ``--seconds``
(at least one pass, or one untraced and one traced pass).

``--trace 0`` reports the end-to-end metrics: medians over the passes of
``wall_s``, ``cpu_s`` and ``peak_rss_mb``, the median ``setup_s`` over the
passes and a few set-up-only processes, and ``pass_frac``, the share of
output checks that passed. ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics (medians over the traced
passes) and ``trace.overhead_frac``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the environment and each pass. The exit code is 0 only when
every check passed, and 2 when the checkout holds no ``src/locce``.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("enumerate", "crosscheck", "oneway")
SETUP_PROBES = 3  # set-up-only processes per --trace 0 run, besides the passes
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
from tracing import LAYER_METRICS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "pass_frac": "frac",
}


class ChildError(RuntimeError):
    pass


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(workload: str, seed: int, *, trace: bool = False, setup_only: bool = False,
          small: bool = False) -> dict:
    """Run one workload process to completion and return its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    # When the cyclic collector runs depends on string hashing; a fixed
    # hash seed makes peak memory repeat (see README.md).
    env["PYTHONHASHSEED"] = "0"
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--src", str(SRC), "--t0", repr(t0)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only + ["--small"] * small
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        raise ChildError(f"{workload} process exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["process_s"] = elapsed
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False):
    """Passes until the time is used; returns (result, passes, env)."""
    deadline = time.monotonic() + seconds
    passes: list[dict] = []
    setups: list[float] = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(workload, seed, setup_only=True, small=small)["setup_s"])
    rounds: list[float] = []  # seconds per round of passes
    while True:
        batch = [spawn(workload, seed, small=small)]
        if trace:
            batch.append(spawn(workload, seed, trace=True, small=small))
        passes += batch
        rounds.append(sum(p["process_s"] for p in batch))
        if time.monotonic() + max(rounds) > deadline:
            break

    untraced = [p for p in passes if "layers" not in p]
    traced = [p for p in passes if "layers" in p]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if trace:
        metrics = {
            name: {"value": median([p["layers"][name] for p in traced]), "unit": unit}
            for name, (unit, _better) in LAYER_METRICS.items()
        }
        overhead = median([p["wall_s"] for p in traced]) / median(
            [p["wall_s"] for p in untraced]) - 1
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    else:
        setups += [p["setup_s"] for p in passes]
        values = {
            "setup_s": median(setups),
            "wall_s": median([p["wall_s"] for p in passes]),
            "cpu_s": median([p["cpu_s"] for p in passes]),
            "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
            "pass_frac": 1 - failed / attempted,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in values.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, passes, passes[0]["env"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "locce" / "__init__.py").is_file():
        print(f"no locce package under {SRC}: run from the root of a locce checkout",
              file=sys.stderr)
        return 2

    try:
        result, passes, env = run(args.workload, args.seed, args.seconds,
                                  bool(args.trace), args.small)
    except (ChildError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    env.update({"git_sha": git_sha(ROOT), "seed": args.seed, "workload": args.workload})
    print("env " + json.dumps(env, sort_keys=True))
    for i, p in enumerate(passes):
        kind = "traced" if "layers" in p else "untraced"
        print(f"pass {i} {kind}: setup_s {p['setup_s']:.4f} wall_s {p['wall_s']:.4f} "
              f"cpu_s {p['cpu_s']:.4f} peak_rss_mb {p['peak_rss_mb']:.1f} "
              f"checks {p['attempted'] - p['failed']}/{p['attempted']}")
        for name in p["failed_checks"]:
            print(f"  FAILED {name}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
