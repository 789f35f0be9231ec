"""The performance ledger's one command.

One workload, as ``BENCHMARK.json`` runs it (the last line printed is the
result object)::

    python3 benchmarks/ledger/run.py --workload ldbc_vec --seed 1 \
        --seconds 20 --trace 0

The whole ledger (every workload untraced on ``--runs`` seeds plus one
traced run each, every run in a fresh process), written to
``benchmarks/ledger/results/<commit>.json``::

    python3 benchmarks/ledger/run.py [--runs 10] [--repeat 2] [--smoke]

Two result files against each other::

    python3 benchmarks/ledger/run.py --compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"the system under test is missing: no package at {ROOT}/src/repro")
sys.path.insert(0, str(ROOT / "src"))

from ledger import END_TO_END, PER_LAYER, compare, render_compare  # noqa: E402

WORKLOADS = ("yago_default", "ldbc_vec", "adhoc_small", "http_mixed")
#: Mirrors ``run_seconds`` in BENCHMARK.json.
DEFAULT_SECONDS = 20


def _git_commit() -> str:
    try:
        head = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "nogit"
    return head.stdout.strip() if head.returncode == 0 else "nogit"


def provenance() -> dict:
    import numpy

    from repro.exec.kernels import default_kernel

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "default_kernel": default_kernel().NAME,
        "git_commit": _git_commit(),
    }


# -- one workload, in this process ---------------------------------------------
def run_workload(args) -> int:
    from http_mixed import CLIENTS, HttpWorkload
    from workloads import SIZES, SessionWorkload

    profile = "smoke" if args.smoke else "full"
    started = time.perf_counter()
    sizes = SIZES[profile][args.workload]
    if args.workload == "http_mixed":
        workload = HttpWorkload(sizes)
    else:
        workload = SessionWorkload(args.workload, sizes)
    measured = workload.run(args.seed, args.seconds, bool(args.trace))
    wall = time.perf_counter() - started

    if args.trace:
        specs, values = PER_LAYER, measured.layers
    else:
        specs, values = END_TO_END, measured.end_to_end()
    metrics = {
        spec.name: {"value": values[spec.name], "unit": spec.unit}
        for spec in specs
    }
    counts = measured.sample_counts()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "profile": profile,
        "sizes": sizes,
        "loop": "closed",
        "clients": CLIENTS if args.workload == "http_mixed" else 1,
        "correct": measured.failed == 0,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "failed_ratio": measured.failed / measured.attempted,
        "failures": measured.failures,
        "sample_counts": counts,
        "oracle_s": measured.oracle_seconds,
        "wall_s": wall,
        "metrics": metrics,
        "raw": measured.raw(),
    }
    out = pathlib.Path(args.out) if args.out else (
        RESULTS / "runs"
        / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(
        {"provenance": provenance(), "runs": [record]}, indent=1
    ) + "\n")
    if args.trace:
        RESULTS.mkdir(parents=True, exist_ok=True)
        (RESULTS / f"trace-{args.workload}.json").write_text(
            json.dumps(measured.tracer.dump(), separators=(",", ":")) + "\n"
        )

    print(f"== {args.workload}  seed={args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  profile={profile}  "
          f"wall={wall:.1f}s  oracle_s={measured.oracle_seconds:.3f}")
    print("   samples: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    for spec in specs:
        print(f"   {spec.name:<32} {values[spec.name]:>14.6g} {spec.unit}")
    print(f"   {'failed_ratio':<32} {record['failed_ratio']:>14.6g} "
          f"({measured.failed} of {measured.attempted})")
    for message in measured.failures:
        print(f"   FAILED {message}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": metrics,
    }))
    return 0 if record["correct"] else 1


# -- the whole ledger, one child process per run -----------------------------------
def _child(workload: str, seed: int, trace: int, args, scratch) -> dict:
    out = scratch / f"{workload}-seed{seed}-trace{trace}.json"
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--out", str(out),
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    # The child's table, without its machine-readable last line.
    print("\n".join(done.stdout.rstrip().splitlines()[:-1]), flush=True)
    if not out.exists():
        raise SystemExit(
            f"{workload} seed {seed} trace {trace} produced no result "
            f"(exit {done.returncode}):\n{done.stderr[-4000:]}"
        )
    result = json.loads(out.read_text())
    for run in result["runs"]:
        del run["raw"]  # the samples stay in the per-run file
    return result


def run_ledger(args) -> int:
    scratch = RESULTS / "runs"
    scratch.mkdir(parents=True, exist_ok=True)
    commit = _git_commit()
    written = []
    all_correct = True
    for repeat in range(args.repeat):
        runs, machine = [], None
        for workload in WORKLOADS:
            for index in range(args.runs):
                result = _child(workload, args.seed + index, 0, args, scratch)
                machine = result["provenance"]
                runs += result["runs"]
            runs += _child(workload, args.seed, 1, args, scratch)["runs"]
        all_correct = all_correct and all(run["correct"] for run in runs)
        if args.out:
            out = pathlib.Path(args.out)
            if args.repeat > 1:
                out = out.with_suffix(f".r{repeat + 1}{out.suffix}")
        else:
            suffix = f".r{repeat + 1}" if args.repeat > 1 else ""
            out = RESULTS / f"{commit}{suffix}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(
            {"provenance": {**machine, "seed": args.seed,
                            "seeds_per_workload": args.runs},
             "runs": runs}, indent=1,
        ) + "\n")
        written.append(out)
        print(f"-- wrote {out}")
    if len(written) >= 2:
        print(render_compare(compare(
            json.loads(written[0].read_text()),
            json.loads(written[1].read_text()),
        )))
    return 0 if all_correct else 1


def run_compare(first: str, second: str) -> int:
    rows = compare(
        json.loads(pathlib.Path(first).read_text()),
        json.loads(pathlib.Path(second).read_text()),
    )
    print(render_compare(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="sizes the run: passes timed = seconds x the "
                             "workload's pairs_per_second")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics, spans)")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, 2 pass pairs")
    parser.add_argument("--runs", type=int, default=1,
                        help="ledger mode: untraced runs (seeds) per workload")
    parser.add_argument("--repeat", type=int, default=1,
                        help="ledger mode: whole sets, compared at the end")
    parser.add_argument("--out", help="result file to write")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return run_compare(*args.compare)
    if args.workload:
        if os.environ.get("PYTHONHASHSEED") != "0":
            # String hashes order the engine's sets of labels; pin them so
            # that one seed means one sequence of work in every process.
            os.environ["PYTHONHASHSEED"] = "0"
            os.execv(sys.executable, [sys.executable, *sys.argv])
        return run_workload(args)
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
