#!/usr/bin/env python3
"""End-to-end benchmark of the sizepop command line.

Usage (from the repository root):
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

One closed-loop client: the benchmark starts one `sizepop` command in a
fresh interpreter, waits for it to exit, and starts the next while the
commands' total wall time is expected to stay within S seconds, running at
least two.
Then it checks every command's outputs.  The program runs from `src/` with
numpy pinned to one thread.  Every input is generated from the seed.

--trace 0 reports the end-to-end metrics; between its commands it times
set-up probes.  --trace 1 alternates plain and traced commands (see
tracer.py) and reports per-layer metrics from the traced ones, plus the
tracing overhead the tracer measured in its own process.  --tiny shrinks
every grid for the smoke test.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A full record of the run, with the
machine, library versions, every sample and a summary of every traced
layer, is written to .bench_runs/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCENARIO = ROOT / "scenarios" / "smooth.json"
RUNS_DIR = ROOT / ".bench_runs"

THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

# What the installed `sizepop` console script runs.
ENTRY = "import sys; from sizepop.cli import main; sys.exit(main())"
# Set-up a user pays before the first solve: import, then parse, validate
# and build the step context for each scenario given.
SETUP_PROBE = ("import sys\n"
               "import sizepop.cli\n"
               "from sizepop.forward import StepContext\n"
               "from sizepop.model import validate_scenario\n"
               "from sizepop.scenario_io import parse_scenario\n"
               "for path in sys.argv[1:]:\n"
               "    StepContext(validate_scenario(parse_scenario(path)))\n")
# Set-up probes per second of command time.  They run between commands,
# so they meet the same phases of a machine whose speed drifts.
SETUP_PROBES_PER_S = 0.2
MIN_COMMANDS = 2
RUN_DEADLINE_S = 150.0

# Each workload stresses a different layer; the reasons are in BENCHMARK.json.
WORKLOADS = {
    "optimize-fine": {"kind": "optimize", "grid": (160, 160, 64), "tiny": (12, 12, 6)},
    "simulate-csv": {"kind": "simulate", "grid": (80, 80, 40), "tiny": (10, 10, 5)},
    "oracle-suite": {"kind": "oracle", "grid": None, "tiny": None},
}
TINY_ORACLES = ("heat_mode_decay", "transpose_duality", "fd_gradient")
N_ORACLES = 6
# Relative tolerance of the output checks: loose enough for a change of
# summation order, far tighter than any change of the discrete solution.
CHECK_TOLERANCE = 1e-8
SIMULATE_TOLERANCE = 1e-12

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, env, stdout_path: Path, stderr_path: Path, deadline: float):
    """Run one command; returns (wall seconds, exit code, peak RSS in MB).

    Wall time runs from spawn to exit; peak RSS is the child's own
    ru_maxrss from wait4.  A command still running at the deadline is
    killed and reported with exit code -9.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, cwd=ROOT)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def run_helper(mode: str, spec: dict, work: Path, env: dict):
    spec_path = work / f"{mode}.json"
    spec_path.write_text(json.dumps(spec))
    done = subprocess.run([sys.executable, str(BENCH_DIR / "helper.py"), mode, str(spec_path)],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"helper {mode} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def machine_record(versions: dict, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        # the ceiling keeps git from reporting an enclosing repository
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10,
                                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                                ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        **versions,
        "thread_env": THREAD_ENV,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def write_scenario(grid, path: Path) -> None:
    doc = json.loads(SCENARIO.read_text())
    doc["grid"].update(Ns=grid[0], Nt=grid[1], Nx=grid[2])
    path.write_text(json.dumps(doc, indent=1))


def command_args(wl: dict, args, work: Path, out: Path) -> list[str]:
    if wl["kind"] == "optimize":
        return ["optimize", "--scenario", str(work / "scenario.json"), "--out", str(out),
                "--seed", str(args.seed)]
    if wl["kind"] == "simulate":
        return ["simulate", "--scenario", str(work / "scenario.json"),
                "--beta", str(work / "control.csv"), "--out", str(out)]
    cmd = ["oracle", "--seed", str(args.seed)]
    if args.tiny:
        cmd += ["--only", ",".join(TINY_ORACLES)]
    return cmd


def check_spec(wl: dict, args, work: Path) -> dict:
    spec = {"kind": wl["kind"], "seed": args.seed, "scenario": str(work / "scenario.json")}
    if wl["kind"] == "optimize":
        grid = wl["tiny"] if args.tiny else wl["grid"]
        key = "x".join(map(str, grid))
        spec["reference"] = json.loads((BENCH_DIR / "reference.json").read_text())["optimize"][key]
        spec["tolerance"] = CHECK_TOLERANCE
    elif wl["kind"] == "simulate":
        spec["tolerance"] = SIMULATE_TOLERANCE
    else:
        spec["n_oracles"] = len(TINY_ORACLES) if args.tiny else N_ORACLES
    return spec


def median(values):
    return statistics.median(values) if values else 0.0


def describe(values, unit: str) -> str:
    if not values:
        return "no samples"
    return (f"median {median(values):.4f} {unit} of {len(values)} "
            f"(min {min(values):.4f}, max {max(values):.4f})")


def run_commands(wl: dict, grid, args, work: Path, env: dict, deadline: float):
    """The closed loop; returns the commands and the set-up probe times.

    With --trace 1 every second command is traced and no probe runs.  With
    --trace 0 one probe runs before the first command, and after each
    command as many as its wall time has earned at SETUP_PROBES_PER_S.
    The budget counts command time only.
    """
    probe = [sys.executable, "-c", SETUP_PROBE]
    if grid is not None:
        probe.append(str(work / "scenario.json"))
    commands, setup_s = [], []
    credit = 0.0 if args.trace else 1.0

    def run_probes() -> None:
        nonlocal credit
        while credit >= 1.0:
            credit -= 1.0
            wall, code, _ = spawn(probe, env, work / "setup.out", work / "setup.err", deadline)
            if code != 0:
                err = (work / "setup.err").read_text()
                raise RuntimeError(f"set-up probe exited {code}: {err}")
            setup_s.append(wall)

    run_probes()
    busy = 0.0
    while True:
        i = len(commands)
        traced = bool(args.trace) and i % 2 == 1
        out = work / f"cmd{i}"
        out.mkdir()
        cmd_args = command_args(wl, args, work, out)
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(out / "spans.json"),
                    f"{args.seed}/{i}"] + cmd_args
        else:
            argv = [sys.executable, "-c", ENTRY] + cmd_args
        wall, code, rss = spawn(argv, env, out / "stdout.txt", out / "stderr.txt", deadline)
        commands.append({"out": out, "traced": traced, "wall_s": wall, "exit_code": code,
                         "peak_rss_mb": rss})
        busy += wall
        if not args.trace:
            credit += SETUP_PROBES_PER_S * wall
        run_probes()
        # start another command only if it should end within the budget,
        # estimating its time by the last one's
        if len(commands) >= MIN_COMMANDS and busy + wall > args.seconds:
            return commands, setup_s
        if time.monotonic() + 2 * wall > deadline:
            return commands, setup_s


def check_commands(commands: list[dict], spec: dict, work: Path, env: dict) -> int:
    """Sets each command's `problem` ("" when fine); returns how many failed."""
    spec["outputs"] = [str(c["out"]) for c in commands]
    for c, verdict in zip(commands, run_helper("check", spec, work, env)):
        problems = [verdict] if verdict else []
        if c["exit_code"] != 0:
            err = (c["out"] / "stderr.txt").read_text().strip().splitlines()
            problems.insert(0, f"exit code {c['exit_code']}" + (f" ({err[-1]})" if err else ""))
        c["problem"] = "; ".join(problems)
    return sum(1 for c in commands if c["problem"])


def layer_report(commands: list[dict], record: dict, spans_path: Path):
    """Per-layer metrics and summary lines of a traced run."""
    plain = [c["wall_s"] for c in commands if not c["traced"]]
    traced = [c for c in commands if c["traced"]]
    docs = [json.loads((c["out"] / "spans.json").read_text()) for c in traced
            if (c["out"] / "spans.json").is_file()]
    per_cmd = [layers.layer_metrics(doc) for doc in docs]
    values = {name: median([m[name] for m in per_cmd]) for name, _ in layers.PER_LAYER}
    record["layers"] = [layers.SpanTree(doc).summary() for doc in docs]
    spans_path.write_text(json.dumps(
        {"spans": [[doc["names"][s[0]], s[1], s[2], s[3], doc["run_id"]]
                   for doc in docs for s in doc["spans"]]}))
    lines = [f"traced commands: {len(traced)}, plain commands: {len(plain)}; "
             f"values are medians over traced commands",
             f"wall_s plain  {describe(plain, 's')}",
             f"wall_s traced {describe([c['wall_s'] for c in traced], 's')}",
             "timings:"]
    lines += [f"  {n:<44} {values[n]:>14.6f} {u}" for n, u in layers.PER_LAYER
              if u in ("s", "us")]
    lines.append("counts:")
    lines += [f"  {n:<44} {values[n]:>14,.6g} {u}" if values[n] % 1 else
              f"  {n:<44} {int(values[n]):>14,d} {u}"
              for n, u in layers.PER_LAYER if u not in ("s", "us")]
    lines += sorted({f"counter failed, its counts read 0: {a['counter_error']}"
                     for doc in docs for _, a in doc["attrs"] if "counter_error" in a})
    return {n: {"value": values[n], "unit": u} for n, u in layers.PER_LAYER}, lines


def end_to_end_report(commands: list[dict], setup_s: list[float]):
    walls = [c["wall_s"] for c in commands]
    rss = [c["peak_rss_mb"] for c in commands]
    values = {"wall_s": median(walls), "setup_s": median(setup_s), "peak_rss_mb": median(rss)}
    lines = [f"wall_s      {describe(walls, 's')}",
             f"setup_s     {describe(setup_s, 's')}",
             f"peak_rss_mb {describe(rss, 'MB')}"]
    return {n: {"value": values[n], "unit": u} for n, u in END_TO_END}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny grids, for the smoke test")
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "sizepop" / "cli.py", SCENARIO) if not p.is_file()]
    if missing:
        print(f"error: program source not found: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    begin = time.monotonic()
    deadline = begin + RUN_DEADLINE_S
    wl = WORKLOADS[args.workload]
    env = child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    work = RUNS_DIR / "work" / f"{tag}-{os.getpid()}"
    results_dir = RUNS_DIR / "results"
    work.mkdir(parents=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        grid = wl["tiny"] if args.tiny else wl["grid"]
        prep = {"seed": args.seed, "scenario": str(work / "scenario.json"), "control": None}
        if grid is not None:
            write_scenario(grid, work / "scenario.json")
        if wl["kind"] == "simulate":
            prep["control"] = str(work / "control.csv")
        # also compiles the package's bytecode, as an install would have
        versions = run_helper("prepare", prep, work, env)
        machine = machine_record(versions, args.seed)
        commands, setup_s = run_commands(wl, grid, args, work, env, deadline)
        failed = check_commands(commands, check_spec(wl, args, work), work, env)

        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "tiny": args.tiny, "machine": machine,
                  "commands": [{k: (str(v) if k == "out" else v) for k, v in c.items()}
                               for c in commands],
                  "setup_s": setup_s}
        if args.trace:
            metrics, body = layer_report(commands, record, results_dir / f"{tag}-spans.json")
        else:
            metrics, body = end_to_end_report(commands, setup_s)
        record.update(metrics=metrics, fail_rate=failed / len(commands),
                      elapsed_s=time.monotonic() - begin)
        (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"sizepop benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()
                                  if k not in ("thread_env", "seed")))
    print("threads: " + " ".join(f"{k}={v}" for k, v in THREAD_ENV.items()))
    print("\n".join(body))
    print(f"fail_rate   {failed / len(commands):.4f} "
          f"({failed} of {len(commands)} commands failed)")
    for i, c in enumerate(commands):
        if c["problem"]:
            print(f"  command {i}: {c['problem']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(commands), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
