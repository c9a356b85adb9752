"""Running one document through the pipeline, and the drift clock.

Importing this module imports no catnorm code, so that the runner can
report a missing checkout before it touches the package.
"""

from __future__ import annotations

import contextlib
import gc
import io
import signal
import statistics
import sys
import time
from dataclasses import dataclass

# Reference time R on the machine the README's figures come from.
R0_S = 0.0017
REF_SIZE = 1000
# One reference sample per this much wall time: about 4% of a run.
REF_EVERY_S = 0.04


@dataclass
class DocResult:
    """What one document's pipeline run gave back."""
    rc: int
    stdout: str
    stderr: str


def failed(rc: int) -> bool:
    """A document has failed when it exits 1 or 2 (`run_doc` turns an
    exception into exit 2).  Exit 3 (violated) and 4 (unknown) are verdicts."""
    return rc in (1, 2)


def reference() -> int:
    """The fixed reference computation.  It allocates and looks up a
    thousand small tuples, strings and frozensets, a few hundred kilobytes,
    as the pipeline does with its graphs, so that a neighbour contending
    for caches slows it as it slows the pipeline.  A loop over a few ints
    tracked the pipeline's speed less well.  It touches no catnorm code."""
    objs = [(i, f"o{i}", frozenset((i, i % 7, i % 11))) for i in range(REF_SIZE)]
    index = {o[1]: o for o in objs}
    acc = 0
    for i in range(REF_SIZE):
        o = index[f"o{(i * 7919) % REF_SIZE}"]
        acc += len(o[2] & {1, 2, 3}) + o[0]
    return acc


class Clock:
    """Reference samples of one run, taken by a SIGALRM handler every
    REF_EVERY_S of wall time while `ticking`, in the middle of whatever
    document is running.  The speed of a shared VM swings by tens of
    percent within a second, so samples must fall inside the documents
    they correct, not between them.  The time the handler takes is
    `stolen`; `run_doc` subtracts it from the document's time."""

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0
        self.busy = False
        self.hooked = False

    def sample(self):
        was_enabled = gc.isenabled()
        gc.disable()            # a collection would time the heap, not the CPU
        try:
            t = time.perf_counter()
            reference()
            self.samples.append(time.perf_counter() - t)
        finally:
            if was_enabled:
                gc.enable()

    def _on_alarm(self, signum, frame):
        if self.busy:
            return
        self.busy = True
        start = time.perf_counter()
        try:
            self.hooked |= sys.gettrace() is not None \
                or sys.getprofile() is not None
            self.sample()
        finally:
            self.stolen += time.perf_counter() - start
            self.busy = False

    @contextlib.contextmanager
    def ticking(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if self.hooked:
            raise SystemExit("catbench: a trace or profile hook was "
                             "installed during the run; refusing to go on")

    @property
    def r(self) -> float:
        """R: the mean reference time.  The speed of this VM flips between
        a fast and a slow mode within a second, so a median would jump from
        one mode to the other; the mean moves with the share of time spent
        in each, as the documents' total time does."""
        return statistics.fmean(self.samples)

    @property
    def scale(self) -> float:
        """R0/R: multiply a raw time by this to correct it for drift."""
        return R0_S / self.r


def pipeline_config(doc, path):
    from catnorm.cli import PipelineConfig
    return PipelineConfig(input_path=path, level=doc.level, targets=doc.emit,
                          checks=doc.checks, trace=doc.trace, to_stdout=True)


def run_doc(config, run_pipeline=None, clock=None):
    """One document through the pipeline, as `catnorm ... --stdout` runs
    it; returns (seconds, DocResult), less any time the clock's reference
    samples took meanwhile.  An exception counts as exit 2, an internal
    failure."""
    if run_pipeline is None:
        from catnorm.cli import run_pipeline
    out, err = io.StringIO(), io.StringIO()
    stolen = clock.stolen if clock else 0.0
    t = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = run_pipeline(config)
        except Exception as e:  # noqa: BLE001 - a crash is a failed document
            print(f"raised {type(e).__name__}: {e}", file=err)
            rc = 2
    t = time.perf_counter() - t - ((clock.stolen - stolen) if clock else 0.0)
    return t, DocResult(rc, out.getvalue(), err.getvalue())


def plain_pass(configs, clock) -> tuple[list[float], list[DocResult]]:
    """One untraced pass over the documents, sampled by the clock: each
    document's seconds and its result."""
    times, results = [], []
    with clock.ticking():
        for config in configs:
            t, res = run_doc(config, clock=clock)
            times.append(t)
            results.append(res)
    return times, results


def judge(doc, res: DocResult) -> tuple[bool, list[str]]:
    """(failed, problems) of one document's result.

    A document with a known fault (`Doc.fault`) fails when it shows that
    fault and nothing else: an over-bound document by exit 1 or 2, a
    lost-dependency document by an output that the oracle finds to have
    lost dependencies.  Any other failure, and any other problem the
    oracle finds, is a problem.
    """
    from oracle import check_doc, lost_dependencies_only
    from workloads import LOST_DEPENDENCY
    if failed(res.rc):
        return True, [] if doc.over_bound else [
            f"{doc.name}: exit {res.rc}: {res.stderr.strip()[-300:]}"]
    problems = check_doc(doc, res)
    if doc.fault == LOST_DEPENDENCY and lost_dependencies_only(problems):
        return True, []
    return False, [f"{doc.name}: {p}" for p in problems]


def check_passes(docs, first, changed) -> tuple[list[str], int]:
    """(problems, failed document runs) over every pass.  `first` is the
    first pass's results; `changed` holds, per later pass, the results that
    differ from the first pass's.  Each distinct result is judged once."""
    judged: dict[tuple, tuple[bool, list[str]]] = {}
    failing = []
    for later in [{}] + changed:
        flags = []
        for d, doc in enumerate(docs):
            res = later.get(d, first[d])
            key = (d, res.rc, res.stdout)
            if key not in judged:
                judged[key] = judge(doc, res)
            flags.append(judged[key][0])
        failing.append(flags)
    problems = [p for _, probs in judged.values() for p in probs]
    if any(f != failing[0] for f in failing):
        problems.append("documents that fail differ between passes")
    return problems, sum(map(sum, failing))
