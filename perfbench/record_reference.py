#!/usr/bin/env python3
"""Record the reference outputs of the default seed into ``reference/``.

Usage, from the root of a checkout: ``python3 perfbench/record_reference.py``.
Run it only at a commit whose outputs are known to be right: ``run.py``
compares every later commit against what this writes.  Each output must pass
the independent checks of ``checks.py`` before it is recorded.
"""

from __future__ import annotations

import gzip
import json
import sys

import checks
import run
import workloads


def main() -> int:
    fmoent = run.import_fmoent()
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, workloads.DEFAULT_SEED)
        workloads.write_inputs(wl, run.ROOT)
        outputs = {}
        for inv in wl.invocations:
            code, out, err, _ = run.run_inprocess(fmoent.cli, inv.argv)
            problems = checks.check_output(inv.argv, code, out, run.ROOT, workloads.DEFAULT_SEED)
            if problems:
                print(f"{inv.key}: {problems} {err}", file=sys.stderr)
                return 1
            outputs[inv.key] = out
        path = checks.REFERENCE_DIR / f"{name}.json.gz"
        path.write_bytes(gzip.compress(json.dumps(outputs, indent=0).encode(), mtime=0))
        print(f"{path}: {len(outputs)} outputs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
