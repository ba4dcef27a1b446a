"""Deterministic JSON writers for arrangements and characteristics.

All rational numbers are serialized as lowest-terms strings ("p/q", or just
"p" for integers); weights and partitions are integer arrays; region ids
are integers.
Documents are dumped deterministically (sorted keys, fixed indentation), so
identical inputs produce byte-identical files.  The package writes these
documents and does not read them back.

Document shapes:

* regions document: { root_system, module_spec, level, hyperplanes:
  [{weight_fw, level}], regions: [{id, signs, witness, closure_ineqs:
  [{normal, bound}], i_r, dim}] }
* characteristics document: { model, orbit, mode, point, labels, norm_sq,
  m_set, tilde_m_set }
"""

from __future__ import annotations

import json
from fractions import Fraction

from .liecore import RootSystem
from .orbits import Characteristic, RegionAnalysis, m_sets

Q = Fraction


def rat(x) -> str:
    """Lowest-terms string form of a rational number."""
    return str(Q(x))


def rat_vec(v) -> list[str]:
    return [rat(x) for x in v]


def dump_doc(doc) -> str:
    """Deterministic JSON text for a document (byte-identical per input)."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def root_system_doc(rs: RootSystem) -> dict:
    return {
        "factors": [[series, rank] for series, rank in rs.factors],
        "rank": rs.rank,
    }


def regions_doc(analysis: RegionAnalysis) -> dict:
    """Arrangement document: hyperplanes and regions with their subspaces."""
    region_rows = []
    for r in analysis.regions:
        sub = analysis.subspaces[r.id]
        region_rows.append(
            {
                "id": r.id,
                "signs": r.signs,
                "witness": rat_vec(r.witness),
                "closure_ineqs": [
                    {"normal": [int(x) for x in normal], "bound": rat(bound)}
                    for normal, bound in r.closure_ineqs
                ],
                "i_r": [list(w) for w in sorted(sub.i_r)],
                "dim": sub.dimension,
            }
        )
    return {
        "root_system": root_system_doc(analysis.ws.root_system),
        "module_spec": [list(w) for w in analysis.ws.module_spec],
        "level": rat(analysis.level),
        "hyperplanes": [
            {"weight_fw": list(h.weight), "level": rat(h.level)}
            for h in analysis.hyperplanes
        ],
        "regions": region_rows,
    }


def characteristics_doc(analysis: RegionAnalysis, ch: Characteristic) -> dict:
    """Characteristic document; always records both membership sets."""
    meets, dense = m_sets(analysis, ch.orbit)
    return {
        "model": analysis.model.name,
        "orbit": ch.orbit,
        "mode": ch.mode,
        "point": rat_vec(ch.point),
        "labels": rat_vec(ch.labels),
        "norm_sq": rat(ch.norm_sq),
        "m_set": sorted(meets),
        "tilde_m_set": sorted(dense),
    }
