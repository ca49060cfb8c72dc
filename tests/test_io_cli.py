import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from germlab import builtins, semilattices
from germlab.actions import DirectedGraph
from germlab.builtins import CORPUS_NAMES, NAMED_GRAPHS, builtin, corpus
from germlab.cli import main
from germlab.errors import ParseError, NotAssociative, UnknownName
from germlab.extensions import universal_germs
from germlab.io import (
    export_dot,
    groupoid_dot,
    load_graph,
    load_semigroup,
    save_semigroup,
)
from germlab.semilattices import semilattice_of

from test_semilattices import exhaustive_filters

REPO = Path(__file__).resolve().parent.parent


def save_graph(graph: DirectedGraph, path: str) -> None:
    """Write a graph in the document form that ``load_graph`` reads."""
    doc = {"vertices": graph.n_vertices, "edges": [list(e) for e in graph.edges]}
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def test_export_examples_script_writes_the_corpus_and_the_germ_groupoids(tmp_path):
    """``scripts/export_examples.py OUTDIR``: one JSON per corpus member, each
    reloading to its builtin's table, and four DOT files."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(REPO / "src"), env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, str(REPO / "scripts" / "export_examples.py"),
                           str(tmp_path)], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == f"wrote 29 files to {tmp_path}/\n"
    assert len(list(tmp_path.iterdir())) == 29
    for name in CORPUS_NAMES:
        loaded = load_semigroup(str(tmp_path / (name.replace(":", "_") + ".json")))
        assert np.array_equal(loaded.table, builtin(name).table)


def test_semigroup_roundtrip(tmp_path):
    for name, S in corpus()[:6]:
        path = tmp_path / "s.json"
        save_semigroup(S, str(path))
        loaded = load_semigroup(str(path))
        assert (loaded.table == S.table).all()
        assert loaded.labels == S.labels
        assert loaded.zero == S.zero


def test_load_rejects_ragged_table(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"table": [[0, 1], [1]]}))
    with pytest.raises(ParseError):
        load_semigroup(str(path))


def test_load_rejects_non_integer_entries(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"table": [[0, "x"], [1, 0]]}))
    with pytest.raises(ParseError):
        load_semigroup(str(path))


@pytest.mark.parametrize("bad", [True, 0.0])
def test_cli_bool_or_float_entry_is_input_error_naming_the_first_bad_entry(tmp_path, capsys, bad):
    """A JSON ``true`` or ``0.0`` is not an integer index: exit 2 with one
    error line naming the first bad entry in row-major order, table[1][2]
    here, before the later table[2][0]."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"table": [[0, 0, 0], [0, 0, bad], [bad, 0, 0]]}))
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: table[1][2]: expected an integer index\n"
    assert captured.out == ""


@pytest.mark.parametrize("labels,field", [([None, [1]], "labels[0]"), (["e", 1], "labels[1]")])
def test_cli_non_string_label_is_input_error(tmp_path, capsys, labels, field):
    """A label that is not a JSON string is not converted with str(): exit 2
    with one error line naming the first such label."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"labels": labels, "table": [[0, 0], [0, 1]]}))
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {field}: expected a string\n"
    assert captured.out == ""


@pytest.mark.parametrize("labels,field,message", [
    (["a", "a"], "labels[1]", "repeats labels[0]"),
    (["", "a"], "labels[0]", "empty label"),
    (["e", "a", "", "e"], "labels[2]", "empty label"),
    (["e", "a", "a*", "e"], "labels[3]", "repeats labels[0]"),
])
def test_cli_empty_or_repeated_label_is_input_error(tmp_path, capsys, labels, field, message):
    """A witness names elements by label, so a label must name one element:
    an empty or repeated label exits 2 with one error line naming the first
    such label, not the check's exit 0 with ambiguous witnesses."""
    table = [[0, 0], [0, 1]] if len(labels) == 2 else builtin("group:klein").table.tolist()
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"labels": labels, "table": table}))
    with pytest.raises(ParseError):
        load_semigroup(str(path))
    assert main(["verify", str(path), "--suite", "universal"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {field}: {message}\n"
    assert captured.out == ""


HUGE_GRAPHS = [
    (2**70, f"has at least {2**70 + 1} elements > 32768"),
    (10**12, f"has at least {10**12 + 1} elements > 32768"),
    (20000, "tables hold 1600160004 entries > 33554432"),
]


@pytest.mark.parametrize("vertices,message", HUGE_GRAPHS,
                         ids=[str(v) for v, _ in HUGE_GRAPHS])
def test_graph_file_with_a_huge_vertex_count_exits_2(tmp_path, vertices, message):
    """|S| >= 1 + V, so V >= 2^15 vertices is refused before any per-vertex
    list is built.  20000 vertices make 20,001 elements, under
    ``TABLE_CAP``, but tables of 1.6e9 entries: ``GRAPH_TABLE_ENTRIES``
    refuses them before any is built.  Run in a child process whose address
    space is capped at 512 MB, so an allocation fails there, not in this
    one (the first path table alone would take 3 GB)."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"vertices": vertices}))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(REPO / "src"), env.get("PYTHONPATH"))))

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    done = subprocess.run([sys.executable, "-m", "germlab.cli", "check", f"builtin:graph:{path}"],
                          env=env, capture_output=True, text=True,
                          preexec_fn=cap_address_space, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"error: graph inverse semigroup {message}\n"


def test_load_propagates_validation_failure(tmp_path):
    path = tmp_path / "assoc.json"
    # a non-associative magma table
    path.write_text(json.dumps({"table": [[0, 1], [0, 0]]}))
    with pytest.raises(NotAssociative) as err:
        load_semigroup(str(path))
    assert len(err.value.triple) == 3


def test_graph_roundtrip(tmp_path):
    g = DirectedGraph(3, ((0, 2), (1, 2)))
    path = tmp_path / "g.json"
    save_graph(g, str(path))
    assert load_graph(str(path)) == g


@pytest.mark.parametrize("doc", [
    {"vertices": 2, "edges": 5},
    {"vertices": 2, "edges": None},
    {"vertices": True},
    {"vertices": 2, "edges": [[True, 1]]},
    {"vertices": 2, "edges": [[0, False]]},
])
def test_malformed_graph_is_input_error(tmp_path, capsys, doc):
    """A non-array edge list, or a bool for the vertex count or an endpoint,
    is a ParseError: exit 2 with one error line, not a traceback and the
    check-failure code 1, and no bool is read as vertex 1 (a self-loop)."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_graph(str(path))
    assert main(["check", f"builtin:graph:{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_dot_export_marks_units_and_interior(tmp_path):
    G = universal_germs(builtin("diamond_munn")).groupoid
    text = groupoid_dot(G)
    assert text.startswith("digraph")
    assert "shape=box" in text
    assert "color=red" in text  # the swap germ is interior isotropy
    path = tmp_path / "g.gv"
    export_dot(G, str(path))
    assert path.read_text() == text


def test_builtin_unknown_name():
    with pytest.raises(UnknownName):
        builtin("nonsense")
    with pytest.raises(UnknownName):
        builtin("clifford_chain:bogus")


def test_builtin_graph_from_file(tmp_path):
    path = tmp_path / "graph.json"
    save_graph(DirectedGraph(1, ()), str(path))
    S = builtin(f"graph:{path}")
    assert S.size == 2


def test_graph_file_gives_the_named_graphs_witness(tmp_path, capsys):
    """A graph semigroup keeps its graph, so a graph read from a file is
    checked as the named graph it was saved from: the same
    ``tight.graph_zero_disjunctive`` line, not "vacuous"."""
    path = tmp_path / "fork.json"
    save_graph(NAMED_GRAPHS["fork"], str(path))
    assert builtin(f"graph:{path}").graph == NAMED_GRAPHS["fork"]
    assert builtin("b2").graph is None
    lines = []
    for name in ("graph:fork", f"graph:{path}"):
        assert main(["verify", f"builtin:{name}", "--suite", "tight"]) == 0
        lines += [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("[PASS] tight.graph_zero_disjunctive")]
    assert len(lines) == 2 and lines[0] == lines[1] and "vacuous" not in lines[0]


@pytest.mark.parametrize("name,bound", [
    ("group:z2000", "1 <= n <= 512, got n=2000"),
    ("group:z0", "1 <= n <= 512, got n=0"),
    ("group:z-3", "1 <= n <= 512, got n=-3"),
    ("semilattice:chain600", "1 <= n <= 512, got n=600"),
    ("semilattice:chain0", "1 <= n <= 512, got n=0"),
    ("semilattice:chain-3", "1 <= n <= 512, got n=-3"),
    ("symmetric:-3", "0 <= n <= 5, got n=-3"),
])
def test_builtin_sizes_out_of_bounds_are_refused_before_building(name, bound, capsys,
                                                                 monkeypatch):
    """A size past the associativity cap, or below one element, exits 2 with
    the bound named, before any table is built."""
    def refuse(*args):
        raise AssertionError(f"built a table for {name}")

    for module, builder in ((builtins, "cyclic_group"), (builtins, "chain_table"),
                            (semilattices, "partial_bijection_semigroup")):
        monkeypatch.setattr(module, builder, refuse)
    assert main(["check", f"builtin:{name}"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and bound in captured.err, captured.err


def test_cli_check_valid_and_exit_codes(tmp_path, capsys):
    assert main(["check", "builtin:b2"]) == 0
    out = capsys.readouterr().out
    assert "5 elements" in out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"table": [[0, 0], [1, 1]]}))  # left-zero table
    assert main(["check", str(bad)]) == 2


def test_cli_verify_pass_and_corrupt(tmp_path, capsys):
    assert main(["verify", "builtin:b2", "--suite", "all"]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad), "--suite", "universal"]) == 2


def test_cli_analyze_and_germs(tmp_path, capsys):
    assert main(["analyze", "builtin:b2"]) == 0
    out = capsys.readouterr().out
    assert "cryptic" in out
    dot = tmp_path / "g.gv"
    assert main(["germs", "builtin:diamond_munn", "--action", "tight",
                 "--dot", str(dot)]) == 0
    assert dot.exists()


@pytest.mark.parametrize("name,blocks", [
    ("symmetric:4", "8 per function: 4x4 x1, 6x6 x5, 8x8 x2"),
    ("group:z70", "0 per function, 70 moduli"),
])
def test_cli_germs_prints_the_norm_blocks(name, blocks, capsys):
    """The ``norm_blocks`` row counts the eigenproblems of one norm: on
    ``symmetric:4``, per orbit one block per class of conjugate characters
    (1 + 2 + 2 + 3), and on ``group:z70`` none, since its one 70 x 70
    block splits into 70 moduli."""
    assert main(["germs", f"builtin:{name}"]) == 0
    rows = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
    assert rows["norm_blocks"] == blocks


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_cli_analyze_counts_the_filters_and_the_maximal_filters(name, capsys):
    """The ``filters`` and ``ultrafilters`` rows against every subset that
    passes ``is_filter`` and the maximal ones among them."""
    assert main(["analyze", f"builtin:{name}"]) == 0
    rows = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
    filters = exhaustive_filters(semilattice_of(builtin(name)))
    maximal = [F for F in filters if not any(F < G for G in filters)]
    assert (rows["filters"], rows["ultrafilters"]) == (str(len(filters)), str(len(maximal)))


def test_cli_example_emits_loadable_json(tmp_path, capsys):
    assert main(["example", "symmetric:2", "--emit", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["table"]) == 7
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert load_semigroup(str(path)).size == 7


@pytest.mark.parametrize("argv", [
    ["germs", "builtin:b2", "--dot", "{out}"],
    ["example", "b2", "--out", "{out}"],
])
def test_cli_unwritable_output_is_input_error(tmp_path, capsys, argv):
    """An output path in a missing directory is reported on stderr and exits
    2, not with a traceback and the check-failure code 1."""
    out = tmp_path / "missing" / "file"
    assert main([a.format(out=out) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", [["check"], ["analyze"], ["germs"],
                                     ["verify", "--suite", "universal"]])
def test_cli_non_utf8_input_is_input_error(tmp_path, capsys, command):
    """A file that is not UTF-8 (here a UTF-16 byte-order mark) prints one
    ``error:`` line and exits 2, with no traceback."""
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")
    assert main([command[0], str(bad), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: encoding: not UTF-8")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("entry", [10**23, 2**63, -1, 2])
def test_cli_table_entry_out_of_range_is_input_error(tmp_path, capsys, entry):
    """Entries past int64 (10^23, 2^63) get the same one-line error and exit
    code 2 as a negative entry or one equal to n."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"table": [[0, entry], [0, 0]]}), encoding="utf-8")
    assert main(["verify", str(path), "--suite", "universal"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: table entries out of range\n")


def test_suites_draw_no_python_randomness(monkeypatch):
    """Every suite of every corpus subject, and the corpus-wide checks, pass
    with ``random.Random`` unavailable: no check samples through it."""
    import random

    from germlab.suites import global_reports, run_suite

    subjects = corpus()

    def refuse(*args, **kwargs):
        raise AssertionError("random.Random called by a suite")
    monkeypatch.setattr(random, "Random", refuse)
    reports = [r for name, S in subjects for r in run_suite(name, S, "all")]
    reports += global_reports("all")
    assert len(reports) == 4 * len(subjects) + 2
    assert all(r.passed for r in reports)


def test_algebra_suite_never_imports_numpy_random():
    """The algebra suite draws its samples without ``numpy.random``, whose
    import adds several MB of resident memory to a process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(REPO / "src"), env.get("PYTHONPATH"))))
    code = ("import sys\n"
            "from germlab.cli import main\n"
            "code = main(['verify', 'builtin:symmetric:4', '--suite', 'algebra'])\n"
            "print(code, 'numpy.random' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "0 False"


def test_cli_unknown_builtin_is_input_error(capsys):
    assert main(["verify", "builtin:wat", "--suite", "universal"]) == 2


def test_every_built_or_loaded_table_is_checked_once(tmp_path, monkeypatch):
    """One validation path: each builder that makes a table from scratch,
    and the loader, runs Light's test once on it, counted over both modules
    that call it.  A strong semilattice of groups runs it on its input
    semilattice E, then on S.  A quotient runs none, its congruence check
    being its certificate: the quotient by the identity relation reuses its
    source's table and generating set, and the one by mu finds its
    generating set on first use."""
    from germlab import semigroups
    from germlab.actions import graph_inverse_semigroup
    from germlab.congruences import Relation, mu_relation, quotient
    from germlab.semigroups import direct_product
    from germlab.semilattices import symmetric_inverse_monoid

    b2, z6 = builtin("b2"), builtin("group:z6")
    calls = []
    check = semigroups.check_associativity
    for module in (semigroups, semilattices):         # each calls its own binding
        monkeypatch.setattr(module, "check_associativity",
                            lambda table: calls.append(table.shape[0]) or check(table))
    built = [
        lambda: symmetric_inverse_monoid(3),                            # partial bijections
        lambda: graph_inverse_semigroup(DirectedGraph(3, ((0, 1), (1, 2)))),
        lambda: direct_product(b2, z6),
        lambda: builtin("semilattice:chain3"),                          # a meet table
    ]
    for build in built:
        calls.clear()
        S = build()
        assert calls == [S.size]
        assert "generators" in vars(S)
    calls.clear()
    S = builtin("clifford_chain:identity")                              # strong semilattice
    assert calls == [2, 4] and S.size == 4 and "generators" in vars(S)
    calls.clear()
    same = quotient(z6, Relation(np.arange(z6.size))).target
    collapsed = quotient(z6, mu_relation(z6)).target
    assert calls == [] and same.generators is z6.generators
    assert "generators" not in vars(collapsed) and collapsed.generators.tolist() == [0]
    path = tmp_path / "s.json"
    save_semigroup(symmetric_inverse_monoid(3), str(path))
    calls.clear()
    load_semigroup(str(path))
    assert calls == [34]


def test_table_files_past_512_elements_verify(tmp_path, capsys):
    """Files are bounded by the cost of Light's test, not by n:
    symmetric:3 x z16 has 544 elements and 5 generators."""
    from germlab.semigroups import direct_product

    S = direct_product(builtin("symmetric:3"), builtin("group:z16"))
    assert (S.size, S.generators.size) == (544, 5)
    path = tmp_path / "s3z16.json"
    save_semigroup(S, str(path))
    assert main(["verify", str(path), "--suite", "universal"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 22
    assert out.splitlines()[-1] == "== total: 22 checks, 22 passed, 0 failed =="


def test_graph_file_past_the_old_size_bound_verifies(tmp_path, capsys):
    """520 isolated vertices give a graph semigroup of 521 elements with 520
    generators, past |A| n^2 <= 512^3, the bound Light's test had when it
    compared every product; its zero settles all rows but one for each
    generator, so the file verifies."""
    path = tmp_path / "isolated520.json"
    save_graph(DirectedGraph(520, ()), str(path))
    S = builtin(f"graph:{path}")
    assert (S.size, S.generators.size) == (521, 520)
    assert S.generators.size * S.size ** 2 > 512 ** 3
    assert main(["verify", f"builtin:graph:{path}", "--suite", "universal"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "== total: 22 checks, 22 passed, 0 failed =="


def test_table_file_past_the_associativity_budget_is_input_error(tmp_path, capsys):
    """A 1025-element chain needs all 1025 elements as generators and
    compares 1025 * 1024^2 pairs, past the budget of 2^30: exit 2 with the
    budget named."""
    chain = np.minimum.outer(np.arange(1025), np.arange(1025))
    path = tmp_path / "chain1025.json"
    path.write_text(json.dumps({"table": chain.tolist()}))
    assert main(["verify", str(path), "--suite", "universal"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: table too large to validate (n=1025 with |A|=1025 "
                            "generators: 1074790400 pairs > 1073741824)\n")
