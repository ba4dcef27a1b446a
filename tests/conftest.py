"""Shared fixtures, the one reading of the large-size switch, the closure
rows and walls of regions and the reference Dynkin labels."""

import os
from fractions import Fraction
from pathlib import Path

import pytest

import orbitchar
from orbitchar.arrangement import by_sign, sign_rows

# ORBITCHAR_LARGE=1 adds the larger sizes to the acceptance, arrangement,
# min-norm and orbit tests; test modules read it as `from conftest import LARGE`
LARGE = os.environ.get("ORBITCHAR_LARGE") == "1"


def closure_rows(rs, hyperplanes, regions):
    """Each region's closure rows (normal, bound) as a tuple: the chamber
    rows of `sign_rows`, then each hyperplane's row picked by the region's
    sign, one row object per place across the regions."""
    chamber, above, below = sign_rows(rs, hyperplanes)
    return [tuple(chamber + by_sign(r.signs, above, below)) for r in regions]


def walls(analysis, region):
    """Indices into the region's closure rows of the chamber rows and of
    the sign rows that are facets of the region: the rows over which
    region minima were once taken.

    Sign row k is a facet exactly when flipping sign k names another
    region: the segment between the two witnesses stays in the open
    chamber and crosses hyperplane k alone."""
    rank = analysis.model.root_system.rank
    named = {r.signs for r in analysis.regions}
    signs = region.signs
    flip = {"+": "-", "-": "+"}
    return list(range(rank)) + [
        rank + k
        for k, sign in enumerate(signs)
        if signs[:k] + flip[sign] + signs[k + 1 :] in named
    ]


def fraction_labels(rs, h):
    """C a as a Fraction sum of products per Cartan row, one product and one
    addition per entry: the reference for liecore.dynkin_labels."""
    return tuple(sum((c * a for c, a in zip(row, h)), Fraction(0)) for row in rs.cartan)


@pytest.fixture
def subprocess_env():
    """The environment for a child Python that must import the package
    under test: its source directory ahead of any PYTHONPATH already set."""
    src = str(Path(orbitchar.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
