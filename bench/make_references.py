"""Write references.json from the program as it is now.

    python3 bench/make_references.py

Runs every workload once per offset and applies the checks that need no
reference: readable output, and for verify-f3-session the Pass verdicts
and injectivity. Then records the sha256 of each job's stdout and the
session's induced-map cells, which are the same for every offset.
Regenerate only when the program's output is meant to change.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys

from run import REFERENCES, check_output, run_child
from workloads import WORKLOADS


def main() -> int:
    references = {}
    for name, workload in WORKLOADS.items():
        ref = {"stdout_sha256": {}}
        for offset in workload.offsets:
            job = run_child(name, offset)
            problems = job.problems or check_output(name, offset, job.stdout)
            if problems:
                print(f"{name} offset {offset}: {problems}", file=sys.stderr)
                return 1
            ref["stdout_sha256"][str(offset)] = hashlib.sha256(job.stdout).hexdigest()
            if workload.runs_inclusion:
                cells = json.loads(job.stdout.decode().splitlines()[-1])["cells"]
                if ref.setdefault("induced_cells", cells) != cells:
                    print(f"{name} offset {offset}: induced-map cells changed", file=sys.stderr)
                    return 1
            print(f"{name} offset {offset}: {job.wall_s:.2f} s")
        references[name] = ref
    text = json.dumps(references, indent=1)
    # one induced-map cell per line
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    REFERENCES.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
