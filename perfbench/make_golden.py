"""Write perfbench/golden.json: the outputs of the golden fixtures as the
package under src/ produces them. Every benchmark run recomputes them and
fails on a difference, so regenerate only for a deliberate output change.

    python3 perfbench/make_golden.py
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from run import commit_hash, source_digest  # noqa: E402


def main() -> int:
    workdir = HERE / "_out" / "golden-work"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outputs = workloads.golden_outputs(str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {"commit": commit_hash(), "source_sha256": source_digest(), "outputs": outputs}
    (HERE / "golden.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
