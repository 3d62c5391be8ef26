import pytest

import egperm.catalog as catalog
from egperm.catalog import (
    CatalogError,
    certificates,
    entry_names,
    get_entry,
    load_catalog,
    nonprimitive_4regular,
)
from egperm.graphs import format_graph, parse_graph, triangles
from egperm.numtheory import is_prime


def test_load_catalog_size():
    entries = load_catalog()
    assert len(entries) >= 20
    # everything through 7 loops carries an explicit completed graph
    for e in entries:
        if e.loops <= 7:
            assert e.has_edges, e.name


def test_rows_are_reduced_residues():
    for e in load_catalog():
        for p, r in e.row.items():
            assert is_prime(p)
            assert 0 <= r < p


def test_relations_reference_existing_entries():
    names = set(entry_names())
    for e in load_catalog():
        for kind, val in e.relations.items():
            targets = val if isinstance(val, list) else [val]
            for t in targets:
                assert t in names, (e.name, kind, t)


def test_expected_relations_present():
    assert get_entry("P_7_5").relations["dual"] == "P_7_10"
    assert get_entry("P_7_4").relations["twist"] == "P_7_7"
    assert "P_8_32" in get_entry("P_8_3").relations["equal"]
    assert get_entry("P_1_1").completed_expression_file is not None


def test_equal_rows_are_named_by_triangle_count():
    # the catalog tool's naming rule: among classes with one row, the
    # lower-numbered name goes to the class with more triangles
    groups = {}
    for e in load_catalog():
        if e.has_edges:
            groups.setdefault(tuple(sorted(e.row.items())), []).append(e)
    tied = [g for g in groups.values() if len(g) > 1]
    assert sorted([e.name for e in g] for g in tied) == [
        ["P_6_1", "P_6_4"], ["P_7_4", "P_7_7"], ["P_7_5", "P_7_10"],
        ["P_8_1", "P_8_40"]]
    for group in tied:
        group.sort(key=lambda e: int(e.name.split("_")[2]))
        counts = [triangles(e.completed_graph()) for e in group]
        assert all(a > b for a, b in zip(counts, counts[1:])), (group, counts)


def test_completed_graphs_are_4_regular_connected():
    for e in load_catalog():
        if not e.has_edges:
            continue
        g = e.completed_graph()
        assert g.degrees() == [4] * g.vertex_count
        assert g.is_connected()
        assert g.vertex_count == e.loops + 2


def test_decompletion_defaults_to_last_vertex():
    e = get_entry("P_5_1")
    g = e.decompletion()
    assert g.vertex_count == e.completed_graph().vertex_count - 1
    assert sorted(g.degrees()).count(3) == 4


def test_graph_text_round_trip():
    for e in load_catalog():
        if not e.has_edges:
            continue
        g = e.completed_graph()
        g2, _ = parse_graph(format_graph(g))
        assert g2.edges == g.edges


def test_unknown_entry_raises():
    with pytest.raises(CatalogError):
        get_entry("P_99_1")


def test_rowless_entry_refuses_graph_access():
    e = get_entry("P_8_39")
    assert not e.has_edges
    with pytest.raises(CatalogError):
        e.completed_graph()


def test_nonprimitive_catalog_graphs():
    graphs = nonprimitive_4regular()
    assert len(graphs) == 8
    for g in graphs:
        assert g.degrees() == [4] * g.vertex_count
        assert g.vertex_count <= 9


def test_certificates_present():
    certs = certificates()
    assert {"twist_P_7_4", "dual_P_7_5"} <= set(certs)


def test_checksum_tamper_detection(monkeypatch):
    real = catalog._data_bytes

    def tampered(filename):
        payload = real(filename)
        if filename == "catalog.json":
            payload = payload.replace(b'"schema"', b'"schemaX"', 1)
        return payload

    monkeypatch.setattr(catalog, "_data_bytes", tampered)
    catalog._raw_catalog.cache_clear()
    try:
        with pytest.raises(CatalogError):
            catalog._raw_catalog()
    finally:
        monkeypatch.undo()
        catalog._raw_catalog.cache_clear()
