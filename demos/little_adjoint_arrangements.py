#!/usr/bin/env python3
"""Survey the little-adjoint arrangements of B2, C3, and G2.

In a multiply-laced type the module generated by the highest short root has
the short roots as its nonzero weights.  Cutting the dominant chamber at
level 2 along those weights gives a smaller arrangement than the adjoint
one.  This script counts the pieces, prints each region's witness and
spanned weight set, and renders the two rank-2 pictures.  No orbit model is
needed: RegionAnalysis.build takes the plain Module.
"""

from orbitchar import (
    Module,
    RegionAnalysis,
    build_root_system,
    highest_short_root,
    region_weights,
)
from orbitchar.svg import render_arrangement


def pt(values):
    return "(" + ", ".join(str(v) for v in values) + ")"


for letter, rank in (("B", 2), ("C", 3), ("G", 2)):
    rs = build_root_system([(letter, rank)])
    analysis = RegionAnalysis.build(Module(rs, (highest_short_root(rs),)))

    print(f"{letter}{rank}: {len(analysis.ws.entries)} short-root weights,"
          f" {len(analysis.hyperplanes)} dominant-side hyperplanes,"
          f" {len(analysis.regions)} regions")
    for region in analysis.regions:
        i_r = region_weights(analysis.hyperplanes, region)
        print(f"  R{region.id:<2} signs {region.signs}  witness {pt(region.witness)}"
              f"  spans {len(i_r)} weights")
    print()

    if rs.rank == 2:
        figure = render_arrangement(rs, analysis.form, analysis.hyperplanes, analysis.regions)
        name = f"little_adjoint_{letter.lower()}{rank}.svg"
        with open(name, "w") as fh:
            fh.write(figure)
        print(f"wrote {name}")
        print()
