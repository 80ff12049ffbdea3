#!/usr/bin/env python3
"""Screen every pool member of a workload once, with a time budget per
operation, and print the NEVER list that ``workloads.py`` holds.

    python3 bench/screen.py scrambled [--budget 60]

Run from the root of a checkout.  Each operation runs in this process under
``signal.alarm`` and a 1.5 GB address-space limit, as the benchmark would
run it.
One JSON line per member goes to standard output:

* ``ok`` with its time;
* ``timeout`` or ``memory``: it did not finish; it belongs in NEVER;
* ``failed`` (cli only): the certificate could not be read back; it stays
  in the pool and fails in every run;
* ``wrong``: a check failed, which is a fault of the program to report.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import sys
import time

import checks
import run
import workloads

MEMORY_LIMIT = 1500 << 20       # bytes of address space


class Budget(Exception):
    pass


def on_alarm(signum, frame):
    raise Budget()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=["scrambled", "dense", "cli"])
    ap.add_argument("--budget", type=int, default=60, help="seconds per operation")
    args = ap.parse_args()

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    signal.signal(signal.SIGALRM, on_alarm)
    sf = run.import_starform()
    cells = {"scrambled": workloads.SCRAMBLED_CELLS, "dense": workloads.DENSE_CELLS,
             "cli": workloads.CLI_CELLS}[args.workload]
    workdir = run.OUT / "screen"
    if args.workload == "cli":
        impl = run.Cli(sf, workdir)
    else:
        impl = run.Library(sf, decide=False)
    summary = {"never": [], "failed": []}
    for cell in cells:
        for s in range(workloads.POOL[args.workload]):
            op = workloads.operation(args.workload, cell, s)
            if args.workload == "cli":
                impl.serialize(sf, [op])
                impl.write_inputs([op])
            state = impl.prepare(op)
            gc.collect()
            status = "ok"
            signal.alarm(args.budget)
            t0 = time.perf_counter()
            dt = None
            try:
                result = impl.run(op, state)
                dt = time.perf_counter() - t0
                signal.alarm(0)
                impl.check(op, checks.frozen(impl.observe(op, state, result)))
            except Budget:
                status = "timeout"
            except MemoryError:
                status = "memory"
            except run.OperationFailed:
                status = "failed"
            except checks.CheckError as exc:
                status = f"wrong: {exc}"
            finally:
                signal.alarm(0)
            if dt is None:
                dt = time.perf_counter() - t0
            member = [*cell, s]
            print(json.dumps({"member": member, "status": status,
                              "seconds": round(dt, 4)}), flush=True)
            if status in ("timeout", "memory"):
                summary["never"].append(member)
            elif status == "failed":
                summary["failed"].append(member)
            state = result = None
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
