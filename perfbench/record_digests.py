"""Record the result digest of each workload for the given seeds.

    python3 perfbench/record_digests.py 0-31

Runs each workload once per seed, untraced, and writes digests.json. A
process that fails or breaks a workload invariant is reported and nothing
is recorded for it. Rerun only for a change that alters results on purpose.
"""

import json
import shutil
import sys

import run
from workloads import WORKLOADS


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv) -> int:
    if len(argv) != 1:
        raise SystemExit("usage: record_digests.py FIRST-LAST")
    digests = run.load_digests()
    failed = 0
    for seed in parse_seeds(argv[0]):
        for name, workload in WORKLOADS.items():
            work = run.WORK / f"record-{name}-s{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                cli_argv = workload.prepare(seed, work)
                env = run.child_env({"OPTEVO_DATA_DIR": str(work / "data")})
                sample, problems = run.attempt(workload, cli_argv, work / "c0",
                                               False, env, None)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if problems:
                failed += 1
                print(f"{name} seed {seed}: {'; '.join(problems)}", file=sys.stderr)
                continue
            digests.setdefault(name, {})[str(seed)] = sample["digest"]
            print(f"{name} seed {seed}: {sample['digest']}")
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
