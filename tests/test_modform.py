import pytest

from egperm.catalog import get_entry
from egperm.modform import (
    compare,
    eta_expand,
    parse_eta_product,
    residue_row,
    series_from_csv,
)
from test_expressions import deadline


def test_parse_and_weight():
    e = parse_eta_product("-1 * eta(4)^6")
    assert e.constant == -1
    assert e.weight == 3
    assert parse_eta_product("eta(2)^4 * eta(4)^4").weight == 4
    assert parse_eta_product("eta(2)^12").weight == 6
    assert parse_eta_product("eta(1)^4 * eta(2)^2 * eta(4)^4").weight == 5


def test_parse_round_trip():
    for text in ("-1 * eta(4)^6", "eta(2)^4 * eta(4)^4"):
        assert str(parse_eta_product(text)) == text


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_eta_product("zeta(4)^6")


def test_parse_names_the_bad_piece():
    # the message used to be int()'s "invalid literal for int() with base 10"
    for text, piece in (("eta(2)^x", "eta(2)^x"), ("2 * eta(1)^2 * eta(3", "eta(3")):
        with pytest.raises(ValueError, match="neither an integer nor eta") as err:
            parse_eta_product(text)
        assert repr(piece) in str(err.value)


def test_known_coefficients():
    assert eta_expand(parse_eta_product("-1 * eta(4)^6")).a(5) == 6
    assert eta_expand(parse_eta_product("eta(2)^4 * eta(4)^4")).a(5) == -2
    assert eta_expand(parse_eta_product("eta(2)^12")).a(5) == 54
    # leading coefficient is the q^(sum m*e/24) normalization
    assert eta_expand(parse_eta_product("eta(2)^12")).a(1) == 1


def test_hecke_multiplicativity():
    for text in ("eta(2)^4 * eta(4)^4", "eta(2)^12"):
        s = eta_expand(parse_eta_product(text))
        assert s.a(15) == s.a(3) * s.a(5)
        assert s.a(35) == s.a(5) * s.a(7)


def test_ramanujan_tau():
    s = eta_expand(parse_eta_product("eta(1)^24"))
    assert [s.a(n) for n in range(1, 6)] == [1, -24, 252, -1472, 4830]


def test_large_exponent_expands_quickly():
    # each factor is raised to its power by repeated squaring
    with deadline(1):
        s = eta_expand(parse_eta_product("eta(1)^24000"))
    assert s.coeffs == (0,) * len(s.coeffs)   # q^1000 leads, beyond 128 terms


def test_fractional_shift_rejected():
    with pytest.raises(ValueError):
        eta_expand(parse_eta_product("eta(1)^1"))  # shift 1/24


def test_residue_row():
    s = eta_expand(parse_eta_product("-1 * eta(4)^6"))
    row = residue_row(s, [3, 5, 13])
    assert row == {3: 0, 5: 1, 13: s.a(13) % 13}


def test_compare_against_catalog_rows():
    for name in ("P_3_1", "P_4_1", "P_6_1", "P_6_4"):
        entry = get_entry(name)
        series = eta_expand(parse_eta_product(entry.eta_product))
        assert compare(entry.row_sequence(), series)


def test_compare_detects_mismatch():
    entry = get_entry("P_4_1")
    wrong = eta_expand(parse_eta_product("eta(2)^12"))
    assert not compare(entry.row_sequence(), wrong)


def test_bundled_coefficient_file_matches_row():
    # the bundled file for the non-eta form carries prime-index
    # coefficients lifted from the stored residue row, so the CSV
    # ingestion path must reproduce that row exactly
    from importlib import resources

    path = resources.files("egperm.data") / "modforms/P_6_3_coefficients.csv"
    series = series_from_csv(str(path))
    assert compare(get_entry("P_6_3").row_sequence(), series)


def test_csv_round_trip(tmp_path):
    s = eta_expand(parse_eta_product("eta(2)^4 * eta(4)^4"), terms=32)
    path = tmp_path / "series.csv"
    lines = ["n,a_n"] + [f"{n},{s.a(n)}" for n in range(1, 32)]
    path.write_text("\n".join(lines) + "\n")
    loaded = series_from_csv(str(path), label="roundtrip")
    assert loaded.label == "roundtrip"
    assert all(loaded.a(n) == s.a(n) for n in range(1, 32))


def test_csv_one_field_row_rejected(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("n,a\n5\n")
    with pytest.raises(ValueError, match="'5'"):
        series_from_csv(str(path))
