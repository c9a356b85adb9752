"""Drift-corrected benchmark of the catnorm pipeline.

    python3 catbench/run.py --workload corpus_small --seed 1 --seconds 15 --trace 0

Run from the repository root.  Each document of the workload goes through
`catnorm.cli.run_pipeline` in this process, as `catnorm reduce` or
`catnorm check` runs it with --stdout, in whole passes over the workload
until --seconds have gone by.  The outputs of the first pass, and every
later output that differs from them, are checked by the independent
oracle (`oracle.py`).  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones from a
separate traced run (`tracing.py`).

Drift correction: the speed of a shared VM drifts.  A fixed pure-Python
reference computation (`pipeline.reference`) runs inside the documents
from a timer; every time metric is scaled by R0/R, with R the mean
reference time of the run, so it reads as time on a machine whose
reference time is R0.  Raw figures and R go to standard error and to the
result file under catbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from pipeline import (  # noqa: E402
    R0_S, Clock, check_passes, pipeline_config, plain_pass)

SETUP_CHILDREN = 15        # fresh interpreters timed for setup_s
TRACE_SETUP_CHILDREN = 7
CHILD_TIMEOUT_S = 60

SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, {src!r})
import catnorm.cli
t1 = time.perf_counter()
rc = catnorm.cli.main(["validate", {doc!r}])
t2 = time.perf_counter()
sys.path.insert(0, {here!r})
from pipeline import Clock
clock = Clock()
for _ in range({samples}):
    clock.sample()
print(rc, t1 - t0, t2 - t0, clock.r)
"""
CHILD_SAMPLES = 5


def setup_times(doc_path: Path, n: int) -> list[tuple[float, float, float]]:
    """(import seconds, total seconds, R) of n fresh interpreters, each
    timed inside the child from its first statement to the end of
    `catnorm validate <first document>`.  R comes from the child's own
    reference samples, taken after that: the parent's speed says little
    about a 40 ms child's."""
    code = SETUP_CHILD.format(src=str(ROOT / "src"), doc=str(doc_path),
                              here=str(HERE), samples=CHILD_SAMPLES)
    out = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-I", "-c", code],
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 4 or fields[0] != "0":
            raise SystemExit(f"catbench: setup child failed: {proc.stderr}")
        out.append(tuple(map(float, fields[1:])))
    return out


def write_docs(docs, workdir: Path) -> list[Path]:
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for doc in docs:
        path = workdir / f"{doc.name}.json"
        path.write_text(doc.text, encoding="utf-8")
        paths.append(path)
    return paths


def timed_passes(configs, seconds: float, clock: Clock):
    """Whole passes until `seconds` of wall time have gone by.  Returns the
    per-document raw times, the first pass's results and, per later pass,
    the results that differ from the first pass's, by document index."""
    times, changed, first = [], [], None
    start = time.perf_counter()
    while first is None or time.perf_counter() - start < seconds:
        gc.collect()
        pass_times, results = plain_pass(configs, clock)
        times += pass_times
        if first is None:
            first = results
        else:
            changed.append({d: r for d, (r, f) in enumerate(zip(results, first))
                            if (r.rc, r.stdout) != (f.rc, f.stdout)})
    return times, first, changed


def doc_p50(times: list[float], n_docs: int) -> float:
    """Median over the documents of each one's mean time over the passes.
    Like R, a mean over passes moves with the share of time the VM spends
    in its slow mode, where a median would jump between modes."""
    passes = len(times) // n_docs
    return statistics.median(
        statistics.fmean(times[p * n_docs + d] for p in range(passes))
        for d in range(n_docs))


def untraced_run(args, docs, paths) -> dict:
    clock = Clock()
    clock.sample()
    configs = [pipeline_config(d, p) for d, p in zip(docs, paths)]
    setup = setup_times(paths[0], SETUP_CHILDREN)
    times, first, changed = timed_passes(configs, args.seconds, clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scale = clock.scale

    problems, n_failed = check_passes(docs, first, changed)
    attempted = len(times)
    metrics = {
        "setup_s": (statistics.median(t * R0_S / r for _, t, r in setup),
                    "s"),
        "docs_per_s": (attempted / (sum(times) * scale), "1/s"),
        "doc_p50_ms": (doc_p50(times, len(docs)) * 1e3 * scale, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw = {
        "ref_ms": clock.r * 1e3,
        "ref_median_ms": statistics.median(clock.samples) * 1e3,
        "ref_samples": len(clock.samples),
        "setup_s": statistics.median(t for _, t, _ in setup),
        "docs_per_s": attempted / sum(times),
        "doc_p50_ms": doc_p50(times, len(docs)) * 1e3,
        "passes": len(changed) + 1,
        "changed_outputs": sum(map(len, changed)),
    }
    samples = {"doc_s": [round(t, 7) for t in times],
               "ref_s": [round(t, 7) for t in clock.samples],
               "setup": setup}
    return dict(problems=problems, attempted=attempted, failed=n_failed,
                metrics=metrics, raw=raw, samples=samples)


def traced_run(args, docs, paths) -> dict:
    import tracing
    clock = Clock()
    clock.sample()
    configs = [pipeline_config(d, p) for d, p in zip(docs, paths)]
    setup = setup_times(paths[0], TRACE_SETUP_CHILDREN)
    layers = tracing.layer_metrics(docs, configs, args.seconds, clock)
    import_ms = statistics.median(i * R0_S / r for i, _, r in setup) * 1e3
    layers.metrics["core.import_ms"] = (import_ms, "ms")
    problems, n_failed = check_passes(docs, layers.first, [])
    attempted = len(docs) * layers.passes
    return dict(problems=problems, attempted=attempted,
                failed=n_failed * layers.passes, metrics=layers.metrics,
                raw={"ref_ms": clock.r * 1e3,
                     "passes": layers.passes},
                trace=layers.trace)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.trace == 0 and (sys.gettrace() is not None
                            or sys.getprofile() is not None):
        print("catbench: a trace or profile hook is installed; drift "
              "correction would be wrong, refusing to run", file=sys.stderr)
        return 2
    for needed in (ROOT / "src" / "catnorm" / "cli.py",
                   ROOT / "tests" / "genschema.py"):
        if not needed.is_file():
            print(f"catbench: {needed.relative_to(ROOT)} is missing; run "
                  f"from a checkout of the repository", file=sys.stderr)
            return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"catbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    docs = WORKLOADS[args.workload](args.seed)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        paths = write_docs(docs, workdir)
        run = (traced_run if args.trace else untraced_run)(args, docs, paths)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "r0_ms": R0_S * 1e3, **run}
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in run["metrics"].items()}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in run["problems"][:40]:
        print(f"catbench: {line}", file=sys.stderr)
    print(f"catbench: raw {json.dumps(run['raw'])}", file=sys.stderr)
    print(json.dumps({"correct": not run["problems"],
                      "attempted": run["attempted"],
                      "failed": run["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
