"""One benchmark process: ``python3 perfbench/worker.py JOB.json``.

Imports hbct from the checkout's ``src``, runs one workload body (or the
set-up), checks what it produced and writes ``JOB.json.result``.  The timed
region runs from the first line of this file to the end of the body, so it
includes importing numpy and hbct, as a CLI user would.  Over the timed region
``calibrate.Probe`` samples the host's speed (see ``calibrate.py``).  With
``"trace": true`` the layers are wrapped before the body and the spans are
written as JSONL; otherwise no wrapper is installed.
"""

import time

T0 = time.perf_counter()

import calibrate  # noqa: E402

PROBE = calibrate.Probe()
PROBE.start()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from types import SimpleNamespace  # noqa: E402


def _import_hbct(src):
    import workloads
    import hbct.cli
    import hbct.config
    import hbct.encoder
    import hbct.evaluation
    import hbct.manifold
    import hbct.scenarios
    if not os.path.abspath(hbct.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"hbct imported from {hbct.__file__}, not from {src}")
    hb = SimpleNamespace(cli=hbct.cli, config=hbct.config, encoder=hbct.encoder,
                         evaluation=hbct.evaluation, manifold=hbct.manifold,
                         scenarios=hbct.scenarios)
    return workloads, hb


def main(job_path):
    with open(job_path) as f:
        job = json.load(f)
    result = {"ops": [], "digest": None, "absent": [], "wall_s": None}
    t_import = time.perf_counter()
    workloads, hb = _import_hbct(job["src"])
    t_imported = time.perf_counter()
    body, check = workloads.BODIES[job["body"]]

    rec = None
    if job["trace"]:
        import tracing
        rec = tracing.Recorder(job["run_id"], job["role"])
        root = rec.open(job["role"], "bench", start=T0)
        imp = rec.open("startup.import", "startup", start=t_import)
        rec.close(imp)
        imp["end"] = t_imported
        rec.install()
        result["absent"] = rec.absent
    try:
        state = body(job, hb)
    except (Exception, SystemExit):
        state = None
        result["ops"].append([job["body"], traceback.format_exc()])
    t_end = time.perf_counter()
    # the same system-wide clock as the parent's, so it can time the set-up
    # without waiting for this process to exit
    result["end_monotonic"] = time.clock_gettime(time.CLOCK_MONOTONIC)
    PROBE.stop()
    result["wall_s"] = t_end - T0
    result["slowdown"] = PROBE.slowdown()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rec is not None:
        rec.close(root)
        root["end"] = t_end
        rec.write_jsonl(job["spans"])
    if state is not None:
        try:
            ops, result["digest"] = check(job, hb, state)
            result["ops"].extend([name, err] for name, err in ops)
        except Exception:
            result["ops"].append([f"{job['body']} check", traceback.format_exc()])
    with open(job_path + ".result", "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1])
