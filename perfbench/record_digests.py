"""Record the sha256 of every op's report at the default seed.

    python3 perfbench/record_digests.py

Covers every op a run of up to ``plan.MAX_SECONDS`` seconds makes at the
default seed.  An op that fails is recorded as ``null``: it has no
report to keep byte-identical.  Run this only at a commit whose reports
are the reference, and commit ``digests.json`` with the change that
re-records it.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import plan
import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    work = run.OUT / "record"
    work.mkdir(parents=True, exist_ok=True)
    runner = run.Runner(seconds=plan.MAX_SECONDS, work=work,
                        deadline_s=None)
    table: dict[str, str | None] = {}
    try:
        for w in plan.WORKLOADS:
            cycles = plan.build(w, plan.DEFAULT_SEED,
                                plan.cycles_for(w, plan.MAX_SECONDS))
            for op in (op for cycle in cycles for op in cycle):
                if op.key in table:
                    continue
                outcome = runner.run(op)
                table[op.key] = outcome["digest"] if outcome["ok"] else None
                print(f"{w}: {op.key[:70]} -> "
                      f"{table[op.key] or outcome.get('error')}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(checks.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
