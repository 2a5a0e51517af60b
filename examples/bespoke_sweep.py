#!/usr/bin/env python3
"""Bespoke-processor sweep: regenerate the paper's evaluation narrative.

Runs symbolic co-analysis for every benchmark on every core, then
prints Table 3, Table 4, Figure 5 and Figure 6 and emits the bespoke
Verilog netlist for one pair.

Usage::

    python examples/bespoke_sweep.py [out.v]
"""

import sys
from pathlib import Path

from repro import WORKLOADS, build_target, generate_bespoke, write_verilog
from repro.reporting import (DESIGN_ORDER, figure5, figure6, run_grid,
                             table3, table4)
from repro.workloads import WORKLOAD_ORDER


def main(argv) -> None:
    out_v = next((a for a in argv if a.endswith(".v")), None)

    print("running the full co-analysis grid "
          f"({len(DESIGN_ORDER)} designs x {len(WORKLOAD_ORDER)} "
          "benchmarks) ...")
    results = run_grid(verbose=True)

    print()
    print(table3(results, WORKLOAD_ORDER, DESIGN_ORDER))
    print()
    print(table4(results, WORKLOAD_ORDER, DESIGN_ORDER))
    print()
    print(figure5(results, WORKLOAD_ORDER, DESIGN_ORDER))
    print(figure6(results, WORKLOAD_ORDER, DESIGN_ORDER))

    design, bench = "omsp430", "tea8"
    result = results[design][bench]
    target = build_target(design, WORKLOADS[bench])
    bespoke = generate_bespoke(target.netlist, result.profile)
    print(f"bespoke {design}/{bench}: "
          f"{target.netlist.gate_count()} -> {bespoke.gate_count()} gates")
    if out_v:
        Path(out_v).write_text(write_verilog(bespoke))
        print(f"bespoke netlist written to {out_v}")


if __name__ == "__main__":
    main(sys.argv[1:])
