"""JSON (de)serialization for groups, atlases, bi-atlases, and algebra
elements, plus the canonical byte-stable dump used by the command line.

Numbers that must stay exact travel as strings in the "p+α*q" / fraction
syntax; floats appear only inside numeric coefficient payloads.
"""

from __future__ import annotations

import json
from pathlib import Path

from .algebra import AlgebraElement, CircleModel, LineModel
from .atlas import Atlas, Chart, Interval, Transition
from .bimodule import BiAtlas, LinkingGerm
from .coefficients import PiecewisePoly, TrigPoly
from .errors import QuasifoldError
from .exact import AffineElement, QAlpha
from .groups import (FiniteMatrixGroup, GeneratedGroup, RationalTranslations,
                     TranslationLattice)

__all__ = [
    "group_to_json", "group_from_json", "atlas_to_json", "atlas_from_json",
    "biatlas_to_json", "biatlas_from_json", "model_to_json", "model_from_json",
    "element_to_json", "element_from_json", "coefficient_from_json",
    "canonical_dumps", "save_json", "load_json", "load_atlas_file",
    "load_biatlas_file",
]


# -- groups -----------------------------------------------------------------

def group_to_json(group) -> dict:
    if isinstance(group, TranslationLattice):
        return {"kind": "lattice",
                "generators": [[str(c) for c in g] for g in group.generators]}
    if isinstance(group, RationalTranslations):
        return {"kind": "rational", "dimension": group.dimension}
    if isinstance(group, FiniteMatrixGroup):
        return {"kind": "finite",
                "elements": [g.to_json() for g in group.elements]}
    if isinstance(group, GeneratedGroup):
        return {"kind": "generated",
                "generators": [g.to_json() for g in group.generators]}
    raise QuasifoldError(f"cannot serialize group {type(group).__name__}")


def group_from_json(obj: dict):
    kind = obj.get("kind")
    if kind == "lattice":
        return TranslationLattice(tuple(
            tuple(QAlpha.parse(c) for c in g) for g in obj["generators"]))
    if kind == "rational":
        return RationalTranslations(int(obj["dimension"]))
    if kind == "finite":
        return FiniteMatrixGroup(tuple(
            AffineElement.from_json(g) for g in obj["elements"]))
    if kind == "generated":
        return GeneratedGroup(tuple(
            AffineElement.from_json(g) for g in obj["generators"]))
    raise QuasifoldError(f"unknown group kind {kind!r}")


# -- atlases ----------------------------------------------------------------

def _interval_to_json(iv: Interval) -> dict:
    return {"lo": None if iv.lo is None else str(iv.lo),
            "hi": None if iv.hi is None else str(iv.hi)}


def _interval_from_json(obj: dict) -> Interval:
    return Interval(None if obj.get("lo") is None else QAlpha.parse(obj["lo"]),
                    None if obj.get("hi") is None else QAlpha.parse(obj["hi"]))


def atlas_to_json(atlas: Atlas) -> dict:
    charts = []
    for c in atlas.charts:
        charts.append({
            "id": c.id,
            "group": group_to_json(c.group),
            "domain": (None if c.domain is None
                       else [_interval_to_json(iv) for iv in c.domain]),
            "label": c.label,
        })
    transitions = [{"src": t.src, "dst": t.dst, "map": t.map.to_json()}
                   for t in atlas.transitions]
    return {"charts": charts, "transitions": transitions}


def atlas_from_json(obj: dict) -> Atlas:
    charts = []
    for c in obj["charts"]:
        domain = c.get("domain")
        charts.append(Chart(
            c["id"], group_from_json(c["group"]),
            None if domain is None else tuple(_interval_from_json(iv)
                                              for iv in domain),
            c.get("label", "")))
    transitions = tuple(
        Transition(t["src"], t["dst"], AffineElement.from_json(t["map"]))
        for t in obj.get("transitions", ()))
    return Atlas(tuple(charts), transitions)


# -- bi-atlases ---------------------------------------------------------------

def biatlas_to_json(bi: BiAtlas) -> dict:
    return {"left": atlas_to_json(bi.left),
            "right": atlas_to_json(bi.right),
            "links": [z.to_json() for z in bi.seeds]}


def biatlas_from_json(obj: dict) -> BiAtlas:
    return BiAtlas(atlas_from_json(obj["left"]),
                   atlas_from_json(obj["right"]),
                   tuple(LinkingGerm.from_json(z) for z in obj["links"]))


# -- algebra elements ---------------------------------------------------------

def model_to_json(model) -> dict:
    if isinstance(model, LineModel):
        return {"kind": "line", "group": group_to_json(model.group)}
    if isinstance(model, CircleModel):
        return {"kind": "circle", "subgroup": model.subgroup}
    raise QuasifoldError(f"cannot serialize model {type(model).__name__}")


def model_from_json(obj: dict):
    if obj["kind"] == "line":
        group = group_from_json(obj["group"])
        if not isinstance(group, TranslationLattice):
            raise QuasifoldError("line model needs a lattice group")
        return LineModel(group)
    if obj["kind"] == "circle":
        return CircleModel(obj["subgroup"])
    raise QuasifoldError(f"unknown model kind {obj['kind']!r}")


def coefficient_from_json(obj: dict):
    if obj.get("kind") == "trig":
        return TrigPoly.from_json(obj)
    if obj.get("kind") == "piecewise":
        return PiecewisePoly.from_json(obj)
    raise QuasifoldError(f"unknown coefficient kind {obj.get('kind')!r}")


def element_to_json(f: AlgebraElement) -> dict:
    return {"model": model_to_json(f.model),
            "support": [{"translation": str(k), "coefficient": c.to_json()}
                        for k, c in f.support]}


def element_from_json(obj: dict) -> AlgebraElement:
    model = model_from_json(obj["model"])
    entries = tuple(
        (QAlpha.parse(e["translation"]), coefficient_from_json(e["coefficient"]))
        for e in obj["support"])
    return AlgebraElement(model, entries)


# -- files --------------------------------------------------------------------

_encode_str = json.encoder.encode_basestring
_int_text = int.__repr__
_float_repr = float.__repr__
_INF = float("inf")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return _float_repr(x)


def _append(value, out: list, indent: str) -> None:
    """Append the canonical text of value to out; indent is the newline and
    spaces that start value's own line."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(_int_text(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _append(item, out, inner)
            sep = "," + inner
        out.append(indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(
                    f"keys must be str, not {key.__class__.__name__}")
            out.append(sep + _encode_str(key) + ": ")
            _append(value[key], out, inner)
            sep = "," + inner
        out.append(indent + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} "
                        "is not JSON serializable")


def canonical_dumps(obj) -> str:
    """Canonical JSON text of obj, ending in a newline.

    The text is exactly `json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=False) + "\\n"`: keys sorted, two-space indent, "," and
    ": " separators, non-ASCII characters written as themselves, and NaN,
    Infinity and -Infinity for the non-finite floats.  It is built in one
    recursive pass, because `json.dumps` with an indent runs its
    pure-Python encoder.  obj may nest dicts with str keys, lists, tuples,
    str, int, float, bool and None; any other value, and any other key
    type, raises TypeError.
    """
    out = []
    _append(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def save_json(path, obj):
    Path(path).write_text(canonical_dumps(obj), encoding="utf-8")


def load_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def load_atlas_file(path) -> Atlas:
    return atlas_from_json(load_json(path))


def load_biatlas_file(path) -> BiAtlas:
    return biatlas_from_json(load_json(path))
