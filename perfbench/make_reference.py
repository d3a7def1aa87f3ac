"""Write perfbench/reference.json: the W(r) rows the sweeps are checked against.

    PYTHONPATH=src python3 perfbench/make_reference.py

The stored file was made from the seed sources (digest recorded inside), with
the solver settings the workloads use.  Regenerating it from changed sources
would hide exactly the drift the checks exist to catch; do it only when the
discretization is meant to change, and say so.
"""

import json
import os
import sys

from vdwplate.asymptotics import sweep_interaction_energy
from vdwplate.eigensolver import GridCylSpec

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import source_digest  # noqa: E402
from workloads import DielectricLadder, ProductionSweep  # noqa: E402


def rows(table):
    return [{"r": row.r, "n_xi": row.n_xi, "n_rho": row.n_rho,
             "E_plate": row.e_plate, "E_free": row.e_free, "W": row.w}
            for row in table.rows]


def main():
    src = os.path.join(os.getcwd(), "src")
    production = sweep_interaction_energy(ProductionSweep.R_VALUES, plate_m=1.0,
                                          spec=GridCylSpec())
    ladder_spec = GridCylSpec(h_target=0.2, l_xi_plus=20.0, l_rho=20.0)
    ladder = {f"m={m:g}": rows(sweep_interaction_energy(DielectricLadder.R_VALUES,
                                                        plate_m=m, spec=ladder_spec,
                                                        jobs=2))
              for m in DielectricLadder.MIRRORS}
    doc = {
        "source_sha256": source_digest(src),
        "production_sweep": {"grid": {"h": 0.1, "l_xi": 28.0, "l_rho": 28.0},
                             "rows": rows(production)},
        "dielectric_ladder": {"grid": {"h": 0.2, "l_xi": 20.0, "l_rho": 20.0},
                              **ladder},
    }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
