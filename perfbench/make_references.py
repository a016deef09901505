"""Record the reference digest of every op's verdict and certificate.

    python3 perfbench/make_references.py [workload ...]

Runs each op of each workload once, checks its certificates, and writes
references/<workload>.json. The seed only orders the ops, so one file serves
every seed. Rerun this only when a change is meant to alter verdicts or
certificates, and say so in that change: the stored digests are what lets the
benchmark refuse a faster program that answers differently.
"""

import json
import os
import sys

import run
import workloads


def main(argv) -> int:
    sys.path.insert(0, run.SRC)
    names = argv or list(workloads.WORKLOADS)
    workdir = os.path.join(run.WORK, f"references-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    prog = workloads.import_program()
    for name in names:
        refs = {}
        for op in workloads.build(prog, name, 0, workdir):
            result = op.run()
            problems = op.check(result)
            if problems:
                print(f"{op.key}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            refs[op.key] = op.digest(result)
            print(f"{name} {op.key}", flush=True)
        doc = {
            "workload": name,
            "backend": prog._kernel.BACKEND,
            "commit": run.git_commit(run.ROOT),
            "ops": dict(sorted(refs.items())),
        }
        path = os.path.join(run.HERE, "references", f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
