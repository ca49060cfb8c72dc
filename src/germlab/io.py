"""JSON documents for the CLI's inputs, plus DOT export of germ groupoids.

Semigroup documents: {"labels": [...], "table": [[...]]} with
table[i][j] = index of the product of elements i and j; the labels, if
given, are distinct nonempty strings.  Graphs:
{"vertices": n, "edges": [[tail, head], ...]}.
"""

from __future__ import annotations

import json
from itertools import chain

from .actions import DirectedGraph
from .errors import ParseError
from .groupoids import FiniteGroupoid, iso_interior
from .semigroups import InverseSemigroup, validate_inverse_semigroup


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError("file", str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError("json", str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ParseError("encoding", f"not UTF-8: {exc}") from exc


def load_semigroup(path: str) -> InverseSemigroup:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ParseError("document", "expected a JSON object")
    table = doc.get("table")
    if not isinstance(table, list) or not table:
        raise ParseError("table", "expected a nonempty array of rows")
    n = len(table)
    for i, row in enumerate(table):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"table[{i}]", f"expected a row of {n} entries")
    # one C-level scan of the entries' types; JSON true loads as a bool, whose
    # type is not int, and the rows are walked only to name the first bad entry
    if set(map(type, chain.from_iterable(table))) != {int}:
        i, j = next((i, j) for i, row in enumerate(table)
                    for j, x in enumerate(row) if type(x) is not int)
        raise ParseError(f"table[{i}][{j}]", "expected an integer index")
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != n:
            raise ParseError("labels", f"expected {n} labels")
        # a witness names elements by label, so each label names one element
        first: dict[str, int] = {}
        for i, label in enumerate(labels):
            if not isinstance(label, str):
                raise ParseError(f"labels[{i}]", "expected a string")
            if not label:
                raise ParseError(f"labels[{i}]", "empty label")
            if first.setdefault(label, i) != i:
                raise ParseError(f"labels[{i}]", f"repeats labels[{first[label]}]")
    return validate_inverse_semigroup(table, labels)


def save_semigroup(S: InverseSemigroup, path: str) -> None:
    doc = {"labels": list(S.labels), "table": S.table.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_graph(path: str) -> DirectedGraph:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise ParseError("vertices", "expected an object with a vertex count")
    n = doc["vertices"]
    if type(n) is not int or n <= 0:              # JSON true loads as an int, not a count
        raise ParseError("vertices", "expected a positive integer")
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise ParseError("edges", "expected an array of [tail, head] pairs")
    for i, e in enumerate(edges):
        if (not isinstance(e, list) or len(e) != 2
                or not all(type(v) is int and 0 <= v < n for v in e)):
            raise ParseError(f"edges[{i}]", "expected [tail, head] vertex indices")
    return DirectedGraph(n, tuple((tail, head) for tail, head in edges))


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def groupoid_dot(G: FiniteGroupoid) -> str:
    """DOT rendering: units as boxes, arrows as labeled edges, interior
    isotropy highlighted.  Nodes are ordered canonically for stable diffs."""
    inner = iso_interior(G)
    lines = ["digraph germs {"]
    for u in sorted(G.units):
        lines.append(f'  n{u} [shape=box,label="{_dot_escape(G.label(u))}"];')
    for a in G.arrows():
        if G.unit_mask[a]:
            continue
        style = ',color=red,penwidth=2' if inner[a] else ""
        lines.append(f'  n{G.d[a]} -> n{G.r[a]} '
                     f'[label="{_dot_escape(G.label(a))}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(G: FiniteGroupoid, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(groupoid_dot(G))
