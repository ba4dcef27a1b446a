#!/usr/bin/env python3
"""Walk through the rank-2 demonstration module end to end.

Two commuting copies of SL2 act on 2x3 matrices [[m, n, x], [p, q, y]]:
the left factor mixes rows, the right factor mixes the first two columns.
The six coordinates carry the weights (+-1, +-1) and (+-1, 0).  Cutting the
dominant chamber by the hyperplanes where a weight pairs to 2 produces six
regions; each region spans a subspace of coordinates, and every nilpotent
orbit picks up a distinguished minimal-norm point from the regions its
closure relates to.
"""

from orbitchar import Example2x3Model, RegionAnalysis, characteristic, m_sets, region_weights
from orbitchar.svg import render_arrangement

def pt(values):
    return "(" + ", ".join(str(v) for v in values) + ")"


model = Example2x3Model()
analysis = RegionAnalysis.build(model)

print("module weights and matrix positions:")
print("  (1,1)->m   (1,-1)->n   (1,0)->x")
print("  (-1,1)->p  (-1,-1)->q  (-1,0)->y")
print()

print(f"{len(analysis.hyperplanes)} hyperplanes (weight . h = 2):")
for hp in analysis.hyperplanes:
    print(f"  weight {hp.weight}")
print()

# a region's subspace is spanned by the weights of its '+' hyperplanes
supports = {r.id: region_weights(analysis.hyperplanes, r) for r in analysis.regions}
labels = model.region_labels(supports)
print(f"{len(analysis.regions)} regions (sign per hyperplane, - below / + above):")
for region in analysis.regions:
    support = sorted(supports[region.id])
    stratum = analysis.strata[region.id]
    print(
        f"  {labels[region.id]:>3}  signs {region.signs}  witness {pt(region.witness)}"
        f"  spans {support or '{}'}  generic orbit {stratum}"
    )
print()

print("orbit membership sets and characteristics:")
for orbit in model.orbit_ids():
    meets, dense = m_sets(analysis, orbit)
    meet_names = sorted(labels[r] for r in meets)
    dense_names = sorted(labels[r] for r in dense)
    ch = characteristic(analysis, orbit, mode="nonempty")
    tilde = characteristic(analysis, orbit, mode="dense")
    tilde_point = "undefined" if tilde is None else pt(tilde.point)
    print(f"  {orbit:>3} ({model.descriptor(orbit)})")
    print(f"       meets regions {meet_names}, dense in {dense_names}")
    print(
        f"       characteristic {pt(ch.point)} with labels {pt(ch.labels)}, "
        f"|h|^2 = {ch.norm_sq}; dense-mode point: {tilde_point}"
    )
print()

# both modes give (2,0) for the two 2-dimensional orbits, (1,1) for the
# rank-one block orbit, and (2,4) for the open orbit
marks = {}
for orbit in model.orbit_ids():
    if orbit == model.zero_orbit:
        continue
    ch = characteristic(analysis, orbit)
    marks.setdefault(ch.point, []).append(orbit)

figure = render_arrangement(
    model.root_system,
    analysis.form,
    analysis.hyperplanes,
    analysis.regions,
    region_labels=labels,
    marks=[(pt, "=".join(names)) for pt, names in sorted(marks.items())],
)
with open("example_module_regions.svg", "w") as fh:
    fh.write(figure)
print("wrote example_module_regions.svg")
