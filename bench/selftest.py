"""Fast self-test of the benchmark on tiny configs (n = 601, J = 4-5).

Usage: python3 bench/selftest.py

For each workload it makes one untraced and one traced benchmark run, checks
that every end-to-end and per-layer metric of BENCHMARK.json is reported with
its unit, then changes one byte of an output file and checks that the
verification counts that output as a failure.  Exits 0 when all of this holds.
Takes about a minute and a half on one core.
"""

import json
import sys
from pathlib import Path

import run
import workloads

SEED = 7


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    errors = []
    for name in workloads.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            _, failed, values, record = run.run_workload(name, SEED, 0.1, trace,
                                                         tiny=True)
            units = run.units(trace)
            for metric in declared:
                if metric["name"] not in values:
                    errors.append(f"{name} trace={trace}: {metric['name']} missing")
                elif units[metric["name"]] != metric["unit"]:
                    errors.append(f"{name}: {metric['name']} reported in "
                                  f"{units[metric['name']]}, declared {metric['unit']}")
            extra = set(values) - {m["name"] for m in declared}
            if extra:
                errors.append(f"{name} trace={trace}: undeclared {sorted(extra)}")
            if failed:
                errors.append(f"{name} trace={trace}: {failed} failed invocation(s)")

        # the traced run's output; both runs of the seed wrote the same bytes
        workload = workloads.WORKLOADS[name]
        ref = Path(record["output_ref"])
        out = Path(record["run_dir"]) / "out1"
        if run.verify_output(workload, out, ref)[0]:
            errors.append(f"{name}: untouched output fails verification")
        victim = sorted(out.glob("*.csv"))[0]
        data = bytearray(victim.read_bytes())
        data[-2] = ord("7") if data[-2] != ord("7") else ord("3")
        victim.write_bytes(bytes(data))
        if not run.verify_output(workload, out, ref)[0]:
            errors.append(f"{name}: tampered {victim.name} passes verification")
    for err in errors:
        print(f"selftest: {err}", file=sys.stderr)
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
