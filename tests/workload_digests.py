"""One sha256 per catbench workload over what the pipeline prints.

    python3 tests/workload_digests.py

Run from anywhere in a checkout.  Each document of the four workloads of
`catbench/workloads.py`, on seeds 1-3, goes through
`catnorm.cli.run_pipeline` as catbench runs it (`catbench/pipeline.py`),
and its exit code, standard output and standard error are hashed.  A
change that keeps every output prints the same lines before and after.
The script uses the standard library only and writes its documents to a
temporary directory.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "catbench"))

from pipeline import pipeline_config, run_doc  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 2, 3)


def workload_digest(name: str, workdir: Path) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        for doc in WORKLOADS[name](seed):
            path = workdir / f"{doc.name}.json"
            path.write_text(doc.text, encoding="utf-8")
            _, res = run_doc(pipeline_config(doc, path))
            h.update(f"#{seed} {doc.name} {res.rc}\n{res.stdout}\0"
                     f"{res.stderr}\0".encode())
    return h.hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            print(name, workload_digest(name, Path(tmp)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
