"""The bundled catalog is exactly what tools/derive_catalog.py derives."""

import importlib.util
import json
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "derive_catalog", ROOT / "tools/derive_catalog.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_tool_reproduces_catalog_json():
    derived = _load_tool().derive_catalog()
    committed = json.loads((ROOT / "src/egperm/data/catalog.json").read_text())
    assert derived == committed

    # every connected 4-regular class on 5..9 vertices is in the catalog once,
    # as a named primitive entry or as a non-primitive auxiliary graph
    sizes = [e["completed"]["vertices"] for e in committed["entries"]
             if e["completed"] and 5 <= e["completed"]["vertices"] <= 9]
    sizes += [g["vertices"] for g in committed["nonprimitive_4regular"]]
    assert Counter(sizes) == {5: 1, 6: 1, 7: 2, 8: 6, 9: 16}
