"""A seeded fuzzer over the input documents: mutated semigroup and graph
documents run through ``germlab check``, ``germlab germs`` and ``germlab
verify`` in process.  Every run must exit 0, 1 or 2; any other exception
is a crash of the program."""

import contextlib
import io
import json
import time
from functools import lru_cache

import numpy as np
import pytest

from germlab import cli
from germlab.builtins import builtin
from germlab.cli import main
from germlab.semigroups import TABLE_CAP

SEED = 20261020
SEMIGROUP_DOCS = 700
GRAPH_DOCS = 300
BASES = ("b2", "symmetric:2", "group:z3", "semilattice:chain3", "diamond_munn", "brandt_z2")
SUITES = ("universal", "tight", "extension", "algebra", "all")
WRONG_TYPES = ("0", 1.5, 2.0, True, False, None, [0], {"i": 0})
OVER_INT64 = (2**63, 2**64, 2**70, -(2**63) - 1, -(2**70))
HUGE_COUNTS = (TABLE_CAP, 10**6, 10**12, 2**63, 2**70)
BUDGET_S = 5.0


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _base(rng) -> dict:
    S = builtin(_pick(rng, BASES))
    return {"labels": list(S.labels), "table": S.table.tolist()}


def _cell(rng, table) -> tuple[int, int]:
    i = int(rng.integers(len(table)))
    return i, int(rng.integers(len(table[i])))


def _out_of_range(rng, doc):
    i, j = _cell(rng, doc["table"])
    n = len(doc["table"])
    doc["table"][i][j] = _pick(rng, (n, n + 7, -1, -n))


def _over_int64(rng, doc):
    i, j = _cell(rng, doc["table"])
    doc["table"][i][j] = _pick(rng, OVER_INT64)


def _wrong_type(rng, doc):
    i, j = _cell(rng, doc["table"])
    doc["table"][i][j] = _pick(rng, WRONG_TYPES)


def _ragged(rng, doc):
    table = doc["table"]
    i = int(rng.integers(len(table)))
    kind = int(rng.integers(5))
    if kind == 0:
        table[i].pop()
    elif kind == 1:
        table[i].append(0)
    elif kind == 2:
        table.pop(i)
    elif kind == 3:
        table[i] = _pick(rng, (0, "row", None))
    else:
        doc["table"] = _pick(rng, ([], [[]], {}, "table", None))


def _labels(rng, doc):
    labels = doc["labels"]
    i = int(rng.integers(len(labels)))
    kind = int(rng.integers(6))
    if kind == 0:
        labels.pop(i)
    elif kind == 1:
        labels[i] = labels[(i + 1) % len(labels)]
    elif kind == 2:
        labels[i] = ""
    elif kind == 3:
        labels[i] = _pick(rng, WRONG_TYPES)
    elif kind == 4:
        doc["labels"] = _pick(rng, ("a", 3, {}))
    else:
        del doc["labels"]


def _random_table(rng, doc):
    n = int(rng.integers(1, 5))
    doc["table"] = rng.integers(0, n, size=(n, n)).tolist()
    doc["labels"] = [f"x{i}" for i in range(n)]


def _relabel(rng, doc):
    """The same semigroup with its elements renumbered: a valid document."""
    n = len(doc["table"])
    p = rng.permutation(n)
    old = np.asarray(doc["table"])
    table = np.empty_like(old)
    table[np.ix_(p, p)] = p[old]
    labels = [None] * n
    for i, label in enumerate(doc["labels"]):
        labels[p[i]] = label
    doc["table"], doc["labels"] = table.tolist(), labels


def _structure(rng, doc):
    return _pick(rng, ([], "table", 7, None, {"labels": doc["labels"]}, {}))


SEMIGROUP_MUTATIONS = (_out_of_range, _over_int64, _wrong_type, _ragged, _labels,
                       _random_table, _relabel, _structure, None)


def _semigroup_doc(rng):
    doc = _base(rng)
    for _ in range(int(rng.integers(1, 3))):
        mutate = _pick(rng, SEMIGROUP_MUTATIONS)
        if mutate is None or not isinstance(doc, dict) or not isinstance(doc.get("table"), list):
            break
        try:
            changed = mutate(rng, doc)
        except (IndexError, KeyError, TypeError, ValueError, AttributeError):
            break          # an earlier mutation left nothing this one can edit
        if changed is not None:
            doc = changed
    return doc


def _edges(rng, V):
    """A random edge list on V vertices: sparse, a dense DAG, or with a cycle."""
    kind = int(rng.integers(4))
    if kind == 0:
        return [[int(rng.integers(V)), int(rng.integers(V))] for _ in range(int(rng.integers(4)))]
    if kind == 1:
        return [[i, j] for i in range(V) for j in range(i + 1, V)]
    if kind == 2:
        v = int(rng.integers(V))
        return [[v, v]] if V == 1 else [[v, (v + 1) % V], [(v + 1) % V, v]]
    return [[i, i + 1] for i in range(V - 1)]


def _bad_edges(rng, V):
    edges = _edges(rng, V) or [[0, 0]]
    i = int(rng.integers(len(edges)))
    kind = int(rng.integers(5))
    if kind == 0:
        edges[i][int(rng.integers(2))] = _pick(rng, (V, -1, 2**70))
    elif kind == 1:
        edges[i][int(rng.integers(2))] = _pick(rng, WRONG_TYPES)
    elif kind == 2:
        edges[i] = edges[i][:1] if rng.integers(2) else edges[i] + [0]
    elif kind == 3:
        edges[i] = _pick(rng, (0, "e", None, {}))
    else:
        return _pick(rng, (5, "edges", None, {}))
    return edges


def _graph_doc(rng):
    kind = int(rng.integers(6))
    V = int(rng.integers(1, 5))
    if kind == 0:
        return {"vertices": _pick(rng, HUGE_COUNTS), "edges": _edges(rng, V)}
    if kind == 1:
        return {"vertices": _pick(rng, WRONG_TYPES + (0, -1, -(2**70)))}
    if kind == 2:
        return {"vertices": V, "edges": _bad_edges(rng, V)}
    if kind == 3:
        return _pick(rng, ([], {}, {"edges": []}, "graph", None))
    return {"vertices": V, "edges": _edges(rng, V)}


def _run(argv) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main(argv)


def test_fuzzed_documents_exit_0_1_or_2(tmp_path, monkeypatch):
    """1000 seeded documents, 700 mutated semigroup tables and 300 graphs,
    each through ``check``, ``germs`` and ``verify`` (one suite, in turn):
    every run exits 0, 1 or 2 and raises nothing else, in under 5 s.  The
    mutations are out-of-range, over-int64 and wrongly typed entries,
    ragged tables, dropped, repeated, empty and non-string labels, random
    tables, renumbered elements, and documents of the wrong shape; and for
    graphs huge, boolean, float and negative vertex counts, out-of-range,
    wrongly typed and malformed edges, cycles and dense DAGs."""
    # argparse takes about as long to build the parser as a refused document
    # takes to run, so the 3000 runs share one parser
    monkeypatch.setattr(cli, "build_parser", lru_cache(cli.build_parser))
    rng = np.random.default_rng(SEED)
    docs = ([("semigroup", _semigroup_doc(rng)) for _ in range(SEMIGROUP_DOCS)]
            + [("graph", _graph_doc(rng)) for _ in range(GRAPH_DOCS)])
    path = tmp_path / "doc.json"
    exits: dict[int, int] = {}
    start = time.perf_counter()
    for k, (kind, doc) in enumerate(docs):
        path.write_text(json.dumps(doc), encoding="utf-8")
        subject = str(path) if kind == "semigroup" else f"builtin:graph:{path}"
        for argv in (["check", subject], ["germs", subject],
                     ["verify", subject, "--suite", SUITES[k % len(SUITES)]]):
            try:
                code = _run(argv)
            except Exception as exc:       # anything but an exit code is a crash
                pytest.fail(f"{argv[0]} on {json.dumps(doc)[:200]} raised {exc!r}")
            assert code in (0, 1, 2), (argv[0], doc)
            exits[code] = exits.get(code, 0) + 1
    elapsed = time.perf_counter() - start
    assert exits.get(0, 0) > 300 and exits.get(2, 0) > 1000, exits
    assert elapsed < BUDGET_S, f"{len(docs)} documents took {elapsed:.2f} s"
