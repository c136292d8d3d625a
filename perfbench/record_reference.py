"""Write reference.json: the recorded results the benchmark checks against.

    python3 perfbench/record_reference.py

For each of the five benchmark labels it records the turning value ``a``,
``Lambda = 2 t0`` from the traced geodesic, ``Lambda`` from the quadrature
period, and the eigenvalue count ``n2`` and guard band at grid 2048 and at
the label's fixed fine grid.  Beside them it keeps the paper's table (four
significant digits).  Re-record only when a change is meant to move these
numbers, and say so in the change.
"""

from __future__ import annotations

import json

from run import FINE_GRIDS, HERE, PAPER_LABELS, import_program, label_key

PAPER_TABLE = {"2/3": (0.3379, 79.91), "3/5": (0.1273, 127.7), "4/7": (0.07526, 177.2),
               "5/8": (0.1874, 206.7), "5/9": (0.05220, 227.1)}


def main():
    import_program()
    from otsuki import geometry, spectral
    labels = {}
    for label in PAPER_LABELS:
        torus = geometry.build_torus(geometry.RotationNumber(*label))
        coarse = spectral.count_below(torus, 2.0, l_max=3, n_grid=2048)
        fine = spectral.count_below(torus, 2.0, l_max=3, n_grid=FINE_GRIDS[label])
        labels[label_key(label)] = {
            "a": torus.profile.a,
            "lambda": torus.lambda_value,
            "lambda_quadrature": 2.0 * geometry.period(torus.profile.a, label[1]),
            "n2": coarse.n2,
            "band": coarse.tolerance_band,
            "fine_grid": FINE_GRIDS[label],
            "n2_fine": fine.n2,
            "band_fine": fine.tolerance_band,
        }
    paper = {k: {"a": a, "lambda": lam} for k, (a, lam) in PAPER_TABLE.items()}
    (HERE / "reference.json").write_text(
        json.dumps({"labels": labels, "paper": paper}, indent=2) + "\n")


if __name__ == "__main__":
    main()
