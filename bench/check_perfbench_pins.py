#!/usr/bin/env python3
"""Check a perfbench run's simulated metrics against the pinned values.

    python3 bench/check_perfbench_pins.py WORKLOAD OUTPUT

OUTPUT is the standard output of `perfbench/run.py --workload WORKLOAD
--seed S` where S is the seed in bench/perfbench_sim_pins.json; its last
line is the JSON verdict. Each pinned simulated metric must be
bit-identical to the run's, and each metric with a ceiling (such as
kv's peak_heap_mb) must read at most that ceiling. Exits 1, naming
every metric that moved or is over its ceiling, otherwise 0.
"""

import json
import os
import sys

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "perfbench_sim_pins.json")


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    workload, output = sys.argv[1], sys.argv[2]
    with open(PINS) as f:
        doc = json.load(f)
    pins = doc["workloads"][workload]
    ceilings = doc.get("ceilings", {}).get(workload, {})
    with open(output) as f:
        verdict = json.loads(f.read().strip().splitlines()[-1])
    moved = 0
    for name, want in sorted(pins.items()):
        got = verdict["metrics"].get(name, {}).get("value")
        same = got == want
        print("%s %s: %r (pinned %r)%s"
              % (workload, name, got, want, "" if same else "  MOVED"))
        moved += not same
    for name, top in sorted(ceilings.items()):
        got = verdict["metrics"].get(name, {}).get("value")
        under = got is not None and got <= top
        print("%s %s: %r (ceiling %r)%s"
              % (workload, name, got, top, "" if under else "  OVER"))
        moved += not under
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
