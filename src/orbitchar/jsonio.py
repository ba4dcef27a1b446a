"""Deterministic JSON writers for arrangements and characteristics.

All rational numbers are serialized as lowest-terms strings ("p/q", or just
"p" for integers); weights and partitions are integer arrays; region ids
are integers.
Documents are written deterministically (sorted keys, fixed indentation),
so identical inputs produce byte-identical files: the bytes of
`json.dumps(doc, indent=2, sort_keys=True)` and a newline, from one writer,
`write_doc`, that takes only the values the package writes.  It streams:
the document and its lists go to the file piece by piece, and each deeper
value is rendered whole.  A region's closure rows are picked by its signs
from one row per place in `sign_rows`, so the region documents share one
row document per place and one list per hyperplane weight; these shared
objects are marked, and each keeps its own text at each indentation, so the
writer's memory follows the distinct rows and weights rather than the file.
A regions document is made as it is written, one region at a time, so it is
written once.
`dump_doc` is the same writer into a string.  The package writes these
documents and does not read them back.

Document shapes:

* regions document: { root_system, module_spec, level, hyperplanes:
  [{weight_fw, level}], regions: [{id, signs, witness, closure_ineqs:
  [{normal, bound}], i_r, dim}] }
* characteristics document: { model, orbit, mode, point, labels, norm_sq,
  m_set, tilde_m_set }
"""

from __future__ import annotations

import io
from collections.abc import Iterator
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .arrangement import by_sign, region_weights, sign_rows
from .liecore import RootSystem
from .orbits import Characteristic, RegionAnalysis, m_sets

Q = Fraction


def rat(x) -> str:
    """Lowest-terms string form of a rational number; an int or a Fraction
    is in lowest terms already."""
    return str(x) if type(x) in (int, Q) else str(Q(x))


def rat_vec(v) -> list[str]:
    return [rat(x) for x in v]


class _SharedDict(dict):
    """A dict that several places of a document hold: `_text` keeps its text
    at each indentation in the object's own attributes, keyed by newline."""


class _SharedList(list):
    """A list that several places of a document hold, as `_SharedDict`."""


def write_doc(doc, out) -> None:
    """Write the deterministic JSON text of a document to the text stream
    out: `json.dumps(doc, indent=2, sort_keys=True)` and a newline, for
    dicts with str keys, lists, tuples, str and int, and iterators at the
    top two levels, written as lists.  Any other value, bool and None
    included, raises TypeError.  The document and its lists are written
    piece by piece; a marked shared object is rendered once per indentation."""
    _write(doc, "\n", out.write, 2)
    out.write("\n")


def dump_doc(doc) -> str:
    """The text that write_doc writes, as a string."""
    buffer = io.StringIO()
    write_doc(doc, buffer)
    return buffer.getvalue()


def _write(value, newline: str, write, levels: int) -> None:
    """Write the text of value through write, streaming the top levels of
    nested dicts, lists and iterators."""
    kind = type(value)
    if not levels or kind not in (dict, list, tuple) and not isinstance(value, Iterator):
        write(_text(value, newline))
        return
    inner = newline + "  "
    if kind is dict:
        pairs = [(_quote(k) + ": ", value[k]) for k in sorted(value)]
        opener, closer = "{", "}"
    else:
        pairs = (("", item) for item in value)
        opener, closer = "[", "]"
    separator = opener + inner
    for prefix, item in pairs:
        write(separator + prefix)
        _write(item, inner, write, levels - 1)
        separator = "," + inner
    # nothing written: an empty container, on one line as json.dumps has it
    write(opener + closer if separator[0] == opener else newline + closer)


def _text(value, newline: str) -> str:
    """The JSON text of value, nested at the indentation that follows
    newline; a `_SharedDict` or `_SharedList` keeps its text by newline.  A
    key that is not a str fails in `_quote` with TypeError."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return repr(value)
    texts = vars(value) if kind is _SharedDict or kind is _SharedList else None
    if texts and newline in texts:
        return texts[newline]
    inner = newline + "  "
    if kind is dict or kind is _SharedDict:
        if not value:
            return "{}"
        parts = [_quote(k) + ": " + _text(value[k], inner) for k in sorted(value)]
        text = "{" + inner + ("," + inner).join(parts) + newline + "}"
    elif kind is list or kind is tuple or kind is _SharedList:
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds == {int}:
            parts = map(repr, value)
        elif kinds == {str}:
            parts = map(_quote, value)
        else:
            parts = [_text(item, inner) for item in value]
        text = "[" + inner + ("," + inner).join(parts) + newline + "]"
    else:
        raise TypeError(f"cannot write a {kind.__name__} as JSON")
    if texts is not None:
        texts[newline] = text
    return text


def root_system_doc(rs: RootSystem) -> dict:
    return {
        "factors": [[series, rank] for series, rank in rs.factors],
        "rank": rs.rank,
    }


def regions_doc(analysis: RegionAnalysis) -> dict:
    """Arrangement document: hyperplanes and regions with their subspaces;
    one row document per place in `sign_rows` and one list per hyperplane
    weight, each marked as shared.  "regions" is an iterator: each region's
    document is made when written."""
    hps, entries = analysis.hyperplanes, analysis.ws.entries
    chamber, above, below = (
        [_SharedDict({"normal": list(map(int, n)), "bound": rat(b)}) for n, b in part]
        for part in sign_rows(analysis.ws.root_system, hps)
    )
    weights = {h.weight: _SharedList(h.weight) for h in hps}

    def region(r) -> dict:
        i_r = sorted(region_weights(hps, r))
        return {
            "id": r.id,
            "signs": r.signs,
            "witness": rat_vec(r.witness),
            "closure_ineqs": chamber + by_sign(r.signs, above, below),
            "i_r": [weights[w] for w in i_r],
            "dim": sum(entries[w] for w in i_r),
        }

    return {
        "root_system": root_system_doc(analysis.ws.root_system),
        "module_spec": [list(w) for w in analysis.ws.module_spec],
        "level": rat(analysis.level),
        "hyperplanes": [{"weight_fw": list(h.weight), "level": rat(h.level)} for h in hps],
        "regions": map(region, analysis.regions),
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
