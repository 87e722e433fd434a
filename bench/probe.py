"""Set-up probe: one fresh interpreter imports griccati, generates a workload and solves once.

Usage: python3 bench/probe.py <workload> <seed>, with the package's src
directory on PYTHONPATH.  Prints one JSON object: the import time and the
digest of the generated problems.  run.py times the whole process as setup_s.
"""

import json
import sys
import time


def main():
    workload, seed = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    import griccati

    import_ms = (time.perf_counter() - t0) * 1e3
    import pipeline

    problems, _ = pipeline.generate(pipeline.WORKLOADS[workload], seed)
    griccati.solve_full(problems[0])
    print(json.dumps({"import_ms": import_ms, "digest": pipeline.digest(problems)}))


if __name__ == "__main__":
    main()
