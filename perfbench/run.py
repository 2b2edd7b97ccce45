"""hbct benchmark: four workloads, each pass in a fresh process.

    python3 perfbench/run.py --workload scenario --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run it from the repository root; the program is imported from ``./src``.

``--trace 0`` times untraced passes and prints the end-to-end metrics; each
time is calibrated to the host's speed during it (see ``calibrate.py``).
``--trace 1`` alternates untraced and traced passes, prints the per-layer
metrics, and writes ``spans.jsonl`` and ``report.json`` under
``.perfbench_run/out/<workload>/``.  ``--smoke`` runs every workload at toy
size in both modes, so broken wiring shows in seconds.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
RUN_DIR = ".perfbench_run"

# name -> unit, better
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
WORKLOADS = ("scenario", "matrix", "search", "index")
SETUP_REPS = 5
MIN_PASSES = 3
PROCESS_TIMEOUT_S = 150
BLAS_THREADS = 1  # one closed-loop caller; never more than nproc


def environment():
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


class Run:
    """One benchmark run: a temporary directory, set-up, then passes."""

    def __init__(self, root, workload, seed, size_name):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.size = workloads.SIZES[size_name][workload]
        self.run_id = f"{workload}-{seed}-{os.getpid()}-{time.time_ns()}"
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digests = {}
        self._n = 0
        tmp_root = os.path.join(root, RUN_DIR, "tmp")
        os.makedirs(tmp_root, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root)
        self.config = os.path.join(self.tmp, "exp.cfg")
        self.data = os.path.join(self.tmp, "data.npz")

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _env(self, out_root):
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        # bytecode caches as an installed package has them
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["HBCT_OUTPUT_ROOT"] = out_root
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(BLAS_THREADS)
        return env

    def process(self, role, body, trace):
        """Run one fresh worker process; returns (result or None, spans, seconds)."""
        self._n += 1
        out_root = tempfile.mkdtemp(prefix=f"{role}{self._n}-", dir=self.tmp)
        job = {"role": role, "body": body, "trace": trace, "seed": self.seed,
               "size": self.size, "config": self.config, "data": self.data,
               "out_root": out_root, "src": os.path.join(self.root, "src"),
               "run_id": self.run_id, "spans": os.path.join(out_root, "spans.jsonl")}
        job_path = os.path.join(self.tmp, f"job{self._n}.json")
        with open(job_path, "w") as f:
            json.dump(job, f)
        log_path = job_path + ".log"
        t = time.perf_counter()
        with open(log_path, "w") as log:
            proc = subprocess.Popen([sys.executable, WORKER, job_path], cwd=self.root,
                                    env=self._env(out_root), stdout=log,
                                    stderr=subprocess.STDOUT)
            try:
                proc.wait(timeout=PROCESS_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        elapsed = time.perf_counter() - t
        result, spans = None, None
        if proc.returncode == 0 and os.path.exists(job_path + ".result"):
            with open(job_path + ".result") as f:
                result = json.load(f)
            if trace and os.path.exists(job["spans"]):
                spans = tracing.read_jsonl(job["spans"])
        self._account(role, body, result, proc.returncode, log_path)
        shutil.rmtree(out_root, ignore_errors=True)
        return result, spans, elapsed

    def _account(self, role, body, result, returncode, log_path):
        if result is None:
            with open(log_path) as f:
                tail = f.read()[-2000:]
            self.attempted += 1
            self.failed += 1
            self.errors.append(f"{role} process exited {returncode}: {tail}")
            return
        for name, err in result["ops"]:
            self.attempted += 1
            if err is not None:
                self.failed += 1
                self.errors.append(f"{role} {name}: {err}")
        digest = result["digest"]
        if digest is not None:
            # every pass of one seed must produce the same bytes, traced or not
            expected = self.digests.setdefault(body, digest)
            self.attempted += 1
            if digest != expected:
                self.failed += 1
                self.errors.append(f"{role}: output differs from the first pass")

    def setup(self, reps, trace):
        """Write the config and generate the dataset.

        A set-up runs from writing the config to the end of `hbct generate`
        in the worker, on the system-wide monotonic clock.  Returns (raw
        seconds, calibrated seconds, spans) of each set-up."""
        raw, calibrated, spans = [], [], None
        for _ in range(reps):
            t = time.clock_gettime(time.CLOCK_MONOTONIC)
            with open(self.config, "w") as f:
                f.write(workloads.config_text(self.workload, self.size, self.seed))
            result, spans, _ = self.process("setup", "setup", trace)
            if result is not None:
                raw.append(result["end_monotonic"] - t)
                calibrated.append(raw[-1] / result["slowdown"])
        return raw, calibrated, spans


def _merge(*span_lists):
    """Concatenate span lists from separate processes, keeping ids unique."""
    out, offset = [], 0
    for spans in span_lists:
        for s in spans or ():
            out.append({**s, "id": s["id"] + offset,
                        "parent": None if s["parent"] is None else s["parent"] + offset})
        offset = len(out)
    return out


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(run, seconds):
    """Untraced passes for `seconds`; returns end-to-end metrics.

    Times are calibrated to the host's speed; the raw ones are in the detail.
    """
    setup_raw, setup_times, _ = run.setup(SETUP_REPS, trace=False)
    raw_walls, walls, slowdowns, rss, passes = [], [], [], [], 0
    start, last = time.perf_counter(), 0.0
    while passes < MIN_PASSES or time.perf_counter() - start + last <= seconds:
        result, _, last = run.process("pass", run.workload, trace=False)
        passes += 1
        if result is None:
            continue
        raw_walls.append(result["wall_s"])
        walls.append(result["wall_s"] / result["slowdown"])
        slowdowns.append(result["slowdown"])
        rss.append(result["peak_rss_mb"])
    values = {"wall_s": _median(walls), "setup_s": _median(setup_times),
              "peak_rss_mb": _median(rss)}
    detail = {"wall_s": walls, "setup_s": setup_times, "peak_rss_mb": rss,
              "raw_wall_s": raw_walls, "raw_setup_s": setup_raw,
              "host_slowdown": slowdowns}
    return {k: _metric(values[k], END_TO_END[k][0]) for k in END_TO_END}, detail


def measure_traced(run, seconds, out_dir):
    """Untraced and traced passes in turn; returns per-layer metrics.

    Each traced pass is analysed together with the one traced set-up.
    """
    _, _, setup_spans = run.setup(1, trace=True)
    plain, traced, pass_spans, absent_targets = [], [], [], set()
    start, last, pairs = time.perf_counter(), 0.0, 0
    while pairs < 1 or time.perf_counter() - start + last <= seconds:
        pairs += 1
        t = time.perf_counter()
        base, _, _ = run.process("pass", run.workload, trace=False)
        result, spans, _ = run.process("pass", run.workload, trace=True)
        last = time.perf_counter() - t
        if base is not None:
            plain.append(base["wall_s"] / base["slowdown"])
        if result is not None and spans is not None:
            traced.append(result["wall_s"] / result["slowdown"])
            absent_targets.update(result["absent"])
            pass_spans.append(spans)
    runs = [_merge(setup_spans, spans) for spans in pass_spans]
    per_pass = [tracing.layer_metrics(spans) for spans in runs]
    selfs = [tracing.self_times(spans) for spans in runs]
    metrics, absent = {}, []
    for name, (unit, _) in tracing.PER_LAYER.items():
        if name == "trace.overhead_s":
            value = _median(traced) - _median(plain) if traced and plain else None
        else:
            value = _median(p.get(name) for p in per_pass)
        if value is None:
            absent.append(name)
            value = 0
        metrics[name] = _metric(value, unit)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "spans.jsonl"), "w") as f:
        for s in _merge(setup_spans, *pass_spans):
            f.write(json.dumps(s) + "\n")
    layers = sorted({layer for p in selfs for layer in p})
    report = {"run": run.run_id, "workload": run.workload, "seed": run.seed,
              "environment": environment(), "untraced_wall_s": plain,
              "traced_wall_s": traced,
              "self_s": {layer: _median(p.get(layer) for p in selfs) for layer in layers},
              "absent_targets": sorted(absent_targets), "absent_metrics": absent,
              "passes": per_pass}
    with open(os.path.join(out_dir, "report.json"), "w") as f:
        json.dump(report, f, indent=1)
    return metrics, {"absent_metrics": absent, "absent_targets": sorted(absent_targets)}


def run_workload(root, workload, seed, seconds, trace, size_name="full"):
    run = Run(root, workload, seed, size_name)
    try:
        if trace:
            out_dir = os.path.join(root, RUN_DIR, "out", workload)
            metrics, detail = measure_traced(run, seconds, out_dir)
        else:
            metrics, detail = measure(run, seconds)
    finally:
        run.close()
    correct = run.failed == 0 and all(
        m["value"] is not None for m in metrics.values())
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}, detail, run.errors


def smoke(root):
    """Every workload at toy size, untraced and traced; checks the report shape."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {"0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
                "1": {m["name"]: m["unit"] for m in bench["per_layer"]}}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            out, detail, errors = run_workload(root, workload, 0, 0, trace, "smoke")
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            shape_ok = got == declared[str(trace)]
            ok &= out["correct"] and shape_ok and not detail.get("absent_targets")
            print(f"smoke {workload} trace={trace}: correct={out['correct']} "
                  f"attempted={out['attempted']} failed={out['failed']} "
                  f"metrics match BENCHMARK.json={shape_ok} {detail}")
            for err in errors:
                print("  " + err)
    return ok


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hbct", "__init__.py")):
        print("perfbench: no src/hbct here; run from the repository root",
              file=sys.stderr)
        return 2
    if args.smoke:
        return 0 if smoke(root) else 1
    if args.workload is None:
        p.error("--workload is required")
    print(json.dumps({"environment": environment()}))
    out, detail, errors = run_workload(root, args.workload, args.seed, args.seconds,
                                       args.trace)
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    print(json.dumps({"samples": detail}))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
