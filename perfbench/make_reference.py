"""Rewrite reference.json from the current program.

    python3 perfbench/make_reference.py

Runs desk_point and big_N_series once and stores the report numbers that
run.py compares against (their max_rel_dev).  Only numbers that do not
depend on the base-data seed are stored, so seed 0 serves every run.
Regenerate only when a change is meant to alter these numbers, and say so
in the change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for name, values in (("desk_point", workloads.desk_reference_values),
                         ("big_N_series", workloads.big_reference_values)):
        wl = workloads.WORKLOADS[name]
        outputs, _ = wl.run(wl.setup(0, 0))
        reference[name] = values(outputs)
    with open(workloads.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
