"""pannkit benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed). One client runs ``pannkit`` commands one
after another, each in a fresh process, as a user would. A run:

1. writes the workload's configs from ``--seed`` and runs its set-up at
   least three times and for at least three seconds, timing each
   (``setup_s`` is the median);
2. repeats the workload's timed commands, each iteration in a fresh
   directory, until the next one would end after ``--seconds``, but at
   least three times;
3. checks the outputs: every iteration's CSV, JSON and npz outputs must be
   byte-identical to the first's (``SOURCE_DATE_EPOCH`` is pinned), and the
   workload's own gates must pass on them;
4. prints a report, then one JSON result line.

With ``--trace 0`` the result holds the end-to-end metrics: ``wall_s`` (the
time of one iteration, as the sum over its commands of each command's median
time), ``setup_s`` and ``peak_rss_mb`` (the largest RSS of any process the
run started). With ``--trace 1`` iterations alternate
between untraced and traced (``traced_cli.py`` loads ``tracer.py`` into every
pannkit process), and the result holds the per-layer metrics of the traced
iterations plus ``trace.overhead_s``, the traced minus the untraced median
iteration time.

A failed command (exit 2, exit 1 from a sweep, a traceback, a timeout) or a
failed gate counts as a failed operation; ``correct`` is true only when none
failed. Exit 1 from ``attack`` (some samples found no perturbation) is an
outcome, not a failure. Results, with a record of the machine, are also
written to ``perfbench/results/``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# set-up repeats until both are reached, so that a sub-second set-up is
# timed often enough for a steady median
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
# a median of fewer iterations follows a single slow one on a noisy box
MIN_ITERATIONS = 3
COMMAND_TIMEOUT_S = 120
SOURCE_DATE_EPOCH = "1700000000"

# Per-layer metrics are named <span>.<statistic>: calls, s (total time),
# self_s (time not covered by child spans) and samples or elements (summed
# work counts). Counters are kept by the tracer under the metric's own name;
# cli.startup_s is the command wall time not covered by its cli.main span.
COUNTERS = ("records.rows_written", "sturdiness.cells_run",
            "sturdiness.cells_cached", "polyapprox.build_appsgn.keys",
            "attack.iterations", "attack.successes")
LAYER_METRICS = (
    "cli.main.calls", "cli.main.self_s", "cli.startup_s",
    "datasets.load_dataset.calls", "datasets.load_dataset.s",
    "records.RecordStore.read_rows.calls", "records.RecordStore.read_rows.s",
    "records.RecordStore.append_rows.s", "records.rows_written",
    "sturdiness.cells_run", "sturdiness.cells_cached",
    "sturdiness.weight_decay_sweep.self_s",
    "sturdiness.perturbation_loss_experiment.s",
    "training.train.s", "training.train.self_s", "training.evaluate.calls",
    "training.evaluate.s", "training.evaluate.samples",
    "training.ngnv_output_adjustment.calls",
    "training.ngnv_output_adjustment.s",
    "nn.backward.calls", "nn.backward.self_s", "nn.sgd_step.s",
    "nn.forward.calls", "nn.forward.samples", "nn.predict.calls",
    "nn.input_gradient.calls", "nn.input_gradient.s",
    "nn.loss_and_logit_grad.s",
    *(f"nn.{layer}.{step}.n{batch}.s"
      for layer in ("Dense", "Conv2d", "AvgPool", "Activation")
      for step in ("forward", "backward") for batch in (1, 32, 64, 512)),
    "transform.calibrate_bound.s", "transform.transform.calls",
    "transform.apply_descriptor.s", "transform.CompositeReLU.apply.s",
    "transform.CompositeReLU.apply.elements",
    "transform.CompositeReLU.grad.s", "transform.InjectedReLU.apply.s",
    "polyapprox.build_appsgn.calls", "polyapprox.build_appsgn.keys",
    "polyapprox.build_appsgn.s", "polyapprox.build_appsgn.self_s",
    "polyapprox.remez_minimax.calls", "polyapprox.remez_minimax.s",
    "polyapprox.approx_from_json.s", "polyapprox.CompositeSgnApprox.eval.s",
    "fixedpoint.TruncatedReLU.apply.s",
    "fixedpoint.TruncatedReLU.apply.elements",
    "attack.attack_pann.calls", "attack.attack_pann.s",
    "attack.attack_pann.self_s", "attack.iterations", "attack.successes",
    "attack.verify_outcome.calls",
    "trace.spans", "trace.overhead_s",
)


class Run:
    """One benchmark run: runs pannkit commands and keeps the accounts of
    attempted and failed operations."""

    def __init__(self, label: str):
        self.label = label
        self.attempted = 0
        self.failures = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        SOURCE_DATE_EPOCH=SOURCE_DATE_EPOCH)
        self.trace_dir = None     # set while an iteration is traced
        self.commands = []        # (run id, wall seconds, stdout) this iteration

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return bool(ok)

    def pannkit(self, args, cwd: Path, exit1_is_outcome=False):
        """Run one pannkit command in cwd; return its JSON output or None."""
        run_id = f"{self.label}-{cwd.name}-c{len(self.commands)}"
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "pannkit.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), run_id,
                   str(self.trace_dir / f"{run_id}.jsonl"), *args]
        cwd.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=cwd, env=self.env, text=True,
                                  capture_output=True,
                                  timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.check(False, f"pannkit {args[0]} timed out")
            return None
        wall = time.perf_counter() - t0
        self.commands.append((run_id, wall, proc.stdout))
        ok = proc.returncode == 0 or (proc.returncode == 1
                                      and exit1_is_outcome)
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        if not self.check(ok and "Traceback" not in proc.stderr,
                          f"pannkit {args[0]} exited {proc.returncode}: "
                          f"{tail[0]}"):
            return None
        try:
            return json.loads(proc.stdout)
        except json.JSONDecodeError:
            self.check(False, f"pannkit {args[0]} printed no JSON")
            return None


def digests(cwd: Path, commands) -> dict:
    """sha256 of every file under cwd and of every command's stdout."""
    out = {f"stdout {i}": hashlib.sha256(text.encode()).hexdigest()
           for i, (_, _, text) in enumerate(commands)}
    for path in sorted(cwd.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(cwd))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


def layer_stats(trace_dir: Path, commands) -> dict:
    """Per-layer metrics of one traced iteration from its span files."""
    calls, total, self_s, work, counters = {}, {}, {}, {}, {}
    startup = 0.0
    for run_id, wall, _ in commands:
        spans, child = [], {}
        path = trace_dir / f"{run_id}.jsonl"
        if not path.exists():  # the command failed before exit handlers ran
            continue
        with path.open() as fh:
            for line in fh:
                rec = json.loads(line)
                if "counters" in rec:
                    for k, v in rec["counters"].items():
                        counters[k] = counters.get(k, 0) + v
                    continue
                dur = rec["end"] - rec["start"]
                spans.append((rec["id"], rec["name"], dur, rec["n"],
                              rec["outer"]))
                child[rec["parent"]] = child.get(rec["parent"], 0.0) + dur
        for sid, name, dur, n, outer in spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child.get(sid, 0.0)
            if outer:
                total[name] = total.get(name, 0.0) + dur
            if n is not None:
                work[name] = work.get(name, 0) + n
            if name == "cli.main":
                startup += wall - dur
    stats = {"calls": calls, "s": total, "self_s": self_s, "samples": work,
             "elements": work}
    out = {"cli.startup_s": startup, "trace.spans": sum(calls.values())}
    for metric in LAYER_METRICS:
        if metric in COUNTERS:
            out[metric] = counters.get(metric, 0)
        elif metric not in out and metric != "trace.overhead_s":
            span, stat = metric.rsplit(".", 1)
            out[metric] = stats[stat].get(span, 0)
    return out


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k, "unset") for k in threads},
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in SRC.rglob("*.py")),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "pannkit" / "cli.py").is_file():
        print(f"no pannkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload](args.seed)
    label = f"{workload.name}-s{args.seed}-t{args.trace}"
    workdir = BENCH / "work" / f"{label}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return measure(workload, args, label, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workload, args, label: str, workdir: Path) -> int:
    run = Run(label)
    for name, cfg in workload.configs.items():
        (workdir / name).write_text(json.dumps(cfg, indent=1))

    setup_times, setup_digests = [], []
    while (len(setup_times) < SETUP_REPEATS
           or sum(setup_times) < SETUP_MIN_S):
        cwd = workdir / f"setup{len(setup_times)}"
        run.commands = []
        t0 = time.perf_counter()
        workload.setup(run, cwd)
        setup_times.append(time.perf_counter() - t0)
        setup_digests.append(digests(cwd, run.commands))
    run.check(all(d == setup_digests[0] for d in setup_digests),
              "repeated set-ups gave different outputs")
    if run.failures:
        print(f"{label}: set-up failed: {run.failures}", file=sys.stderr)
        return 1
    for path in (workdir / "setup0").iterdir():
        shutil.copy(path, workdir / path.name)

    walls, traced_walls, layers, first = [], [], [], None
    command_walls = []  # per untraced iteration, each command's wall time
    trace_dir = workdir / "trace"
    t_start = time.perf_counter()
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        cwd = workdir / f"it{k}"
        run.commands = []
        run.trace_dir = trace_dir if traced else None
        trace_dir.mkdir(exist_ok=True)
        t0 = time.perf_counter()
        docs = workload.iteration(run, cwd)
        wall = time.perf_counter() - t0
        run.trace_dir = None
        if traced:
            traced_walls.append(wall)
            layers.append(layer_stats(trace_dir, run.commands))
            shutil.rmtree(trace_dir)
        else:
            walls.append(wall)
            command_walls.append([w for _, w, _ in run.commands])
        if first is None:
            first, first_docs = digests(cwd, run.commands), docs
        else:
            run.check(digests(cwd, run.commands) == first,
                      f"iteration {k} outputs differ from iteration 0")
            shutil.rmtree(cwd)
        k += 1
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(walls + traced_walls)
        if k >= MIN_ITERATIONS and elapsed + typical > args.seconds:
            break

    try:
        quality = workload.check(run, workdir / "it0", first_docs)
    except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
        run.check(False, f"outputs not as expected: {exc!r}")
        quality = {}
    failed = len(run.failures)
    if args.trace:
        metrics = {m: statistics.median(d[m] for d in layers)
                   for m in layers[0]}
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(walls))
        metrics = {m: metrics[m] for m in LAYER_METRICS}
        units = {m: "s" if m.endswith("_s") or m.endswith(".s")
                 else "count" for m in metrics}
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        # each command's median over the iterations, summed: one slow
        # stretch of a few seconds moves no more than the commands it hit
        metrics = {"wall_s": sum(statistics.median(times)
                                 for times in zip(*command_walls)),
                   "setup_s": statistics.median(setup_times),
                   "peak_rss_mb": peak_kib * 1024 / 1e6}
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    record = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "iterations": {"untraced": walls, "traced": traced_walls},
        "setup_s": setup_times,
        "op_failure_rate": failed / run.attempted,
        "failures": run.failures, "results": quality,
        "machine": machine_record(),
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{label}.json").write_text(json.dumps(
        dict(record, metrics=metrics), indent=1) + "\n")

    print(f"{label}: {len(walls)} untraced + {len(traced_walls)} traced "
          f"iterations, {run.attempted} operations, {failed} failed")
    for msg in run.failures:
        print(f"  FAILED: {msg}")
    for key, value in quality.items():
        print(f"  result {key} = {value:.6g}")
    for key, value in record["machine"].items():
        print(f"  machine {key} = {value}")
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": run.attempted, "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
