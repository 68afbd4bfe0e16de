"""Record the reference output digests the benchmark checks against.

Run from the root of a checkout::

    python3 perfbench/record_references.py

For each workload and each seed in ``SEEDS`` it runs set-up, settles and one
repeat of every variant, and writes their digests to
``perfbench/references.json``.  Re-record only when a change to the
program is meant to move the simulated outputs, and say why.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: the default seed and one held-out seed no tuning looked at
SEEDS = (0, 97)


def main() -> int:
    references = {}
    for name, cls in workloads.WORKLOADS.items():
        for seed in SEEDS:
            workload = cls()
            workload.setup(seed)
            workload.settle()
            digests = [
                workload.repeat(variant).digest
                for variant in range(workload.variants)
            ]
            references.setdefault(name, {})[str(seed)] = digests
            print(name, seed, [d[:16] for d in digests])
    path = os.path.join(HERE, "references.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
