"""lotkafit benchmark: one workload, end-to-end or traced, from a seed.

Run from the root of a lotkafit checkout:

    python3 bench/run.py --workload ca-synth --seed 1 --seconds 35 --trace 0

The benchmark writes the workload's inputs from --seed under
.bench_work/ and times set-up in fresh interpreters. Then, for
--seconds, it repeats the workload's command lines in order, each in a
fresh process (bench/child.py) that calls lotkafit.cli.run, and checks
every output. It prints a summary, then as its last line one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. --out
writes the full result (host facts, input shapes, per-command times) as
JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

# One process, one thread: pinned here for numpy in this process and
# passed on to every child.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

# Set-up is timed this many times before the passes and again after
# them, so that its median covers the whole run.
SETUP_REPEATS = 5
SETUP_CODE = "import lotkafit.cli as cli; cli.build_parser(); print('ready', flush=True)"
# Each run must end within 180 s: no command may run past this.
RUN_LIMIT_S = 170.0
CHILD = BENCH_DIR / "child.py"
REFERENCE = BENCH_DIR / "reference.json"


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ, **THREAD_PINS)
    paths = [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def measure_setup(env: dict[str, str], repeats: int) -> list[float]:
    """Seconds from starting a fresh interpreter until lotkafit's CLI is ready.

    The clock stops when the child reports that it has imported
    lotkafit.cli and built the parser.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=env, stdout=subprocess.PIPE) as child:
            ready = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=60)
        if ready != b"ready\n" or code != 0:
            raise BenchError(f"set-up child exited with code {code} before lotkafit.cli was ready")
        times.append(elapsed)
    return times


def git_commit(root: Path) -> str | None:
    """The checkout's commit, read from .git without running git; None outside a repository."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = root / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_facts(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(root),
        "env": THREAD_PINS,
    }


def run_command(command: workloads.Command, trace: int, env: dict, work: Path, deadline: float) -> dict:
    """Run one command line in a fresh process and check its output."""
    result_path = work / "child.json"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(CHILD), "--result", str(result_path), "--trace", str(trace), "--", *command.argv]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=deadline - start)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{command.name} ran past the {RUN_LIMIT_S:.0f} s limit") from None
    if not result_path.is_file():
        raise BenchError(f"{command.name}: child exited with code {proc.returncode}: {proc.stderr.strip()[-300:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    src = Path.cwd().resolve() / "src"
    if src not in Path(result.pop("module")).resolve().parents:
        raise BenchError(f"the child did not import lotkafit from {src}")
    result.update(stdout_bytes=len(proc.stdout.encode("utf-8")), error=None, observed={})
    if result["traceback"] is not None:
        result["error"] = "traceback: " + result["traceback"].strip().splitlines()[-1]
    elif result["code"] != 0:
        result["error"] = f"exit code {result['code']}: {proc.stderr.strip()[:200]}"
    else:
        if command.save_as is not None:
            command.save_as.write_text(proc.stdout, encoding="utf-8")
        try:
            result["observed"] = command.check(proc.stdout, result.get("trace"))
        except (workloads.CheckError, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            result["error"] = f"output check: {exc}"
    return result


def run_passes(commands, trace: int, env: dict, work: Path, budget_s: float, deadline: float) -> list[dict]:
    """Repeat the command list until another pass would overrun budget_s (at least one pass)."""
    passes = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        record = {"seconds": {}, "cpu_s": 0.0, "stdout_bytes": 0, "maxrss_kib": 0, "errors": [],
                  "observed": {}, "traces": []}
        for command in commands:
            result = run_command(command, trace, env, work, deadline)
            record["seconds"][command.name] = result["seconds"]
            record["cpu_s"] += result["cpu_s"]
            record["stdout_bytes"] += result["stdout_bytes"]
            record["maxrss_kib"] = max(record["maxrss_kib"], result["maxrss_kib"])
            record["observed"].update(result["observed"])
            if result["error"] is not None:
                record["errors"].append(f"{command.name}: {result['error']}")
            if "trace" in result:
                record["traces"].append(result["trace"])
        record["wall_s"] = sum(record["seconds"].values())
        record["elapsed_s"] = time.perf_counter() - start
        passes.append(record)
        typical = statistics.median(p["elapsed_s"] for p in passes)
        if time.perf_counter() - begin + typical > budget_s:
            return passes


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def summarize(workload: workloads.Workload, passes: list[dict]) -> dict:
    """Quartiles of per-pass wall time and of each command's time."""
    stats = {"wall_s": quartiles([p["wall_s"] for p in passes])}
    for name in passes[0]["seconds"]:
        stats[f"{name}_s"] = quartiles([p["seconds"][name] for p in passes])
    stats["primary_s"] = stats[f"{workload.primary}_s"]
    stats["secondary_s"] = stats[f"{workload.secondary}_s"]
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one lotkafit benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--out", type=Path, help="also write the full result here as JSON")
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="store this run's first-pass outputs as the default-seed reference",
    )
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "lotkafit" / "cli.py").is_file():
        print("error: run from the root of a lotkafit checkout (src/lotkafit/cli.py not found)", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    sizes = workloads.SIZES["toy" if args.toy else "full"]
    reference = {}
    if args.seed == workloads.DEFAULT_SEED and not args.toy and not args.write_reference:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload.name, {})

    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=root / ".bench_work"))
    try:
        shape = workload.generate(work, args.seed, sizes)
        commands = workload.commands(work, shape, reference, sizes)
        env = child_env(root)
        measure_setup(env, 1)  # fills the bytecode caches, as any earlier use would
        setup = measure_setup(env, SETUP_REPEATS)
        deadline = started + RUN_LIMIT_S
        if args.trace:
            untraced = run_passes(commands, 0, env, work, args.seconds / 2, deadline)
            traced = run_passes(commands, 1, env, work, args.seconds / 2, deadline)
            timed, passes = untraced, untraced + traced
            layer = layers.layer_metrics(traced, untraced)
            probe_input = workload.probe_input
            layer.update(layers.probe_metrics(root / "src", work / probe_input, shape[probe_input]["authors"]))
        else:
            timed = passes = run_passes(commands, 0, env, work, args.seconds, deadline)
        setup += measure_setup(env, SETUP_REPEATS)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = [e for p in passes for e in p["errors"]]
    attempted = sum(len(p["seconds"]) for p in passes)
    stats = summarize(workload, timed)
    end_to_end = {
        "wall_s": (stats["wall_s"]["median"], "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (max(p["maxrss_kib"] for p in timed) / 1024.0, "MiB"),
        "primary_s": (stats["primary_s"]["median"], "s"),
        "secondary_s": (stats["secondary_s"]["median"], "s"),
    }
    if args.trace:
        declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in declared}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()}

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {len(passes)} passes, "
          f"{len(errors)} of {attempted} commands failed (fail_ratio {len(errors) / attempted:g})")
    for name, shape_counts in shape.items():
        print(f"  input {name}: " + ", ".join(f"{k} {v}" for k, v in shape_counts.items()))
    for name, q in stats.items():
        print(f"  {name:24s} median {q['median']:.4f} s  q1 {q['q1']:.4f}  q3 {q['q3']:.4f}  n {q['n']}")
    print(f"  setup_s                  median {statistics.median(setup):.4f} s  n {len(setup)}")
    print(f"  peak_rss_mib             {end_to_end['peak_rss_mib'][0]:.1f} MiB")
    for error in errors[:5]:
        print(f"  FAILED {error}", file=sys.stderr)

    observed = passes[0]["observed"]
    if args.write_reference:
        stored = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
        stored[workload.name] = observed
        REFERENCE.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if args.out is not None:
        full = {
            "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "host": host_facts(root), "inputs": shape, "setup_s": setup, "timings": stats,
            "passes": [p["seconds"] for p in timed],
            "attempted": attempted, "failed": len(errors), "errors": errors, "metrics": metrics,
        }
        args.out.write_text(json.dumps(full, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": len(errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
