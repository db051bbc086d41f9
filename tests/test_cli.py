"""End-to-end checks of the command line surface."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from orbifloer import cli
from orbifloer.cli import dump_json, main


def run(capsys, *args):
    try:
        code = main(list(args))
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *args):
    code, out, err = run(capsys, *args)
    assert code == 0, err
    return json.loads(out)


def test_dump_json_float_digits():
    assert '"x": 0.10000000000000001' in dump_json({"x": 0.1})
    assert dump_json({"q": "1/3"}).count('"1/3"') == 1


def test_dump_json_many_floats():
    # over a thousand placeholders, some sharing a prefix (1 and 10, 12 and 120)
    values = [k / 7 + 0.1 for k in range(1200)]
    text = dump_json({"xs": values})
    lines = [line.strip().rstrip(",") for line in text.splitlines()[2:-2]]
    assert lines == [format(v, ".17g") for v in values]
    assert json.loads(text)["xs"] == values


def test_box_lists_sectors_with_area_forms(capsys):
    doc = run_json(capsys, "box", "--preset", "wp:1,3,5")
    assert len(doc["sectors"]) == 6
    by_nu = {tuple(s["nu"]): s for s in doc["sectors"]}
    assert by_nu[(0, -1)]["ell"] == {"gradient": ["0", "-1"], "constant": "4/5"}
    assert by_nu[(-1, -2)]["ell"] == {"gradient": ["-1", "-2"], "constant": "3/5"}
    assert by_nu[(0, -1)]["order"] == 5


def test_region_teardrop_interval(capsys):
    doc = run_json(capsys, "region", "--preset", "teardrop:3", "--closure")
    assert doc["interval_union"] == [
        {"lo": "-1/3", "lo_closed": False, "hi": "1/3", "hi_closed": True}
    ]
    doc = run_json(capsys, "region", "--preset", "teardrop:3", "--no-closure")
    assert doc["interval_union"][0]["hi_closed"] is False


def test_region_query_flag(capsys):
    doc = run_json(capsys, "region", "--preset", "teardrop:3", "--u", "1/3")
    assert doc["query"]["member"] is True
    doc = run_json(capsys, "region", "--preset", "teardrop:3", "--no-closure", "--u", "1/3")
    assert doc["query"]["member"] is False


def test_region_negative_query_coordinates(capsys):
    doc = run_json(capsys, "region", "--preset", "teardrop:3", "--u", "-1/4")
    assert doc["query"]["member"] is True


def test_critical_teardrop_center(capsys):
    doc = run_json(capsys, "critical", "--preset", "teardrop:3", "--u", "0")
    assert doc["count"] == 4
    for p in doc["points"]:
        assert p["residual"] < 1e-12
        y = complex(p["y"][0]["re"], p["y"][0]["im"])
        assert abs(y**4 - Fraction(1, 3)) < 1e-12


def test_potential_terms(capsys):
    doc = run_json(capsys, "potential", "--preset", "teardrop:3", "--u", "1/10")
    assert [(t["kind"], t["t_exponent"]) for t in doc["terms"]] == [
        ("facet", "13/10"),
        ("facet", "9/10"),
    ]
    assert doc["terms"][0]["coeff"] == {"re": "1", "im": "0"}


def test_bulk_file(tmp_path, capsys):
    bulk = tmp_path / "bulk.json"
    bulk.write_text(json.dumps({"sectors": [{"nu": [1], "c": "1", "lambda": "7/15"}]}))
    doc = run_json(
        capsys, "potential", "--preset", "teardrop:3", "--u", "1/10", "--bulk", str(bulk)
    )
    kinds = [(t["kind"], t["t_exponent"]) for t in doc["terms"]]
    assert ("sector", "9/10") in kinds

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sectors": [{"nu": [7], "c": "1", "lambda": "1/2"}]}))
    code, _, err = run(
        capsys, "potential", "--preset", "teardrop:3", "--u", "1/10", "--bulk", str(bad)
    )
    assert code == 2 and "not a twisted sector" in json.loads(err)["message"]


def test_bulk_file_rows_fail_typed(tmp_path, capsys):
    ok = {"nu": [0, -1], "c": "1", "lambda": "1/2"}
    cases = [
        ({"sectors": [ok, {"nu": [0, -1], "lambda": "1/2"}]}, 'sectors[1]: missing field "c"'),
        ({"sectors": [dict(ok, c="x")]}, "sectors[0].c: cannot read 'x'"),
        ({"sectors": [dict(ok, nu="z")]}, "sectors[0].nu: cannot read 'z'"),
        ({"sectors": [ok], "divisors": [{"facet": 9, "c": "1", "lambda": "1/2"}]},
         "divisors[0].facet: 9 is not a facet index"),
        ({"sectors": [], "divisors": [{"facet": 0, "c": "1"}]},
         'divisors[0]: missing field "lambda"'),
    ]
    for k, (doc, message) in enumerate(cases):
        path = tmp_path / f"bulk{k}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "potential", "--preset", "wp:1,3,5", "--u", "-1/10,1/100", "--bulk", str(path)
        )
        assert code == 2 and out == "", doc
        error = json.loads(err)
        assert error["error"] == "InputError" and message in error["message"]


def test_critical_rejects_impossible_t_value(capsys):
    for t in ("0", "-1", "nan", "inf"):
        code, out, err = run(
            capsys, "critical", "--preset", "teardrop:3", "--u", "0", "--t-value", t
        )
        assert code == 2 and out == "", t
        assert json.loads(err)["error"] == "InputError"
    doc = run_json(capsys, "critical", "--preset", "teardrop:3", "--u", "0", "--t-value", "2")
    assert doc["count"] == 4


def test_lte_verdict_shape(capsys):
    doc = run_json(capsys, "lte", "--preset", "teardrop:3", "--u", "0")
    assert doc["verdict"]["status"] == "SolvableCertified"
    cert = doc["verdict"]["certificate"]
    assert set(cert) == {"y", "symbols", "residual", "exact"}
    assert isinstance(cert["y"][0]["re"], float)


def test_region_max_levels_clamped_and_validated(capsys):
    # no 3-level scenario exists in dimension 2; the request is kept as given
    two = run_json(capsys, "region", "--preset", "square:2,2,1,1")
    three = run_json(capsys, "region", "--preset", "square:2,2,1,1", "--max-levels", "3")
    assert three["pieces"] == two["pieces"] and three["max_levels"] == 3
    code, out, err = run(capsys, "region", "--preset", "teardrop:3", "--max-levels", "0")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InputError"


def test_region_three_levels_in_three_dimensions(capsys):
    # the walk refutes 2,735 leaves by a coloop level and solves one system;
    # without that pruning the unknown verdicts took minutes
    doc = run_json(capsys, "region", "--preset", "wp:1,2,3,5", "--max-levels", "3")
    assert doc["max_levels"] == 3 and doc["piece_count"] == 1
    (piece,) = doc["pieces"]
    assert piece["serial"] == 1720
    assert piece["levels"] == [[["facet", 0], ["facet", 1], ["facet", 2], ["facet", 3]]]
    assert piece["verdict"]["status"] == "SolvableCertified"


def test_model_file_input(tmp_path, capsys):
    model = {
        "dim": 1,
        "facets": [
            {"normal": [1], "label": 3, "offset": "-1"},
            {"normal": [-1], "label": 1, "offset": "-1"},
        ],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    doc = run_json(capsys, "box", "--model", str(path))
    preset = run_json(capsys, "box", "--preset", "teardrop:3")
    assert doc["sectors"] == preset["sectors"]


def test_conebasis(capsys):
    doc = run_json(capsys, "conebasis", "--cone", "1,0;1,2")
    assert doc["multiplicity"] == 2
    (a, b), (c, d) = doc["basis"]
    assert abs(a * d - b * c) == 1
    assert doc["multiplicity_trace"] == sorted(doc["multiplicity_trace"], reverse=True)


def test_grid_csv(capsys):
    code, out, err = run(capsys, "region", "--preset", "teardrop:3", "--grid", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "u1,member"
    assert len(lines) == 4
    assert all(line.endswith(("true", "false")) for line in lines[1:])


def test_svg_output(tmp_path, capsys):
    path = tmp_path / "pic.svg"
    code, out, _ = run(
        capsys, "region", "--preset", "teardrop:3", "--svg", str(path)
    )
    assert code == 0
    text = path.read_text()
    assert text.startswith("<svg") and 'width="800" height="800"' in text


def test_validation_exit_codes(capsys):
    assert run(capsys, "box")[0] == 2  # no model source
    assert run(capsys, "box", "--preset", "teardrop:3", "--model", "x.json")[0] == 2
    assert run(capsys, "box", "--preset", "nope:1")[0] == 2
    assert run(capsys, "potential", "--preset", "teardrop:3")[0] == 2  # missing --u
    assert run(capsys, "potential", "--preset", "teardrop:3", "--u", "5")[0] == 2
    assert run(capsys, "potential", "--preset", "teardrop:3", "--u", "1/2,1/2")[0] == 2
    code, _, err = run(capsys, "reproduce", "nope")
    assert code == 2
    assert json.loads(err)["error"] == "InputError"


@pytest.mark.parametrize(
    "flags",
    [
        ["--u", "abc"],
        ["--u", "1/2"],  # one coordinate on a 2-d model
        ["--grid", "0"],
        ["--svg", "/nonexistent/dir/x.svg"],
    ],
)
def test_region_rejects_bad_flags_before_building(capsys, monkeypatch, flags):
    def refuse(*args, **kwargs):
        raise AssertionError("the region was built before its flags were checked")

    monkeypatch.setattr(cli, "nondisplaceable_region", refuse)
    code, out, err = run(capsys, "region", "--preset", "square:2,2,2,2", *flags)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InputError"


def test_region_svg_write_error_is_typed(tmp_path, capsys):
    # the directory exists, but the path is a directory and cannot be written
    code, out, err = run(capsys, "region", "--preset", "teardrop:3", "--svg", str(tmp_path))
    assert code == 2
    assert json.loads(err)["error"] == "InputError"


def test_python_dash_m_entry_point():
    cmd = [sys.executable, "-m", "orbifloer", "box", "--preset", "teardrop:3"]
    done = subprocess.run(cmd, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
    doc = json.loads(done.stdout)
    assert doc["command"] == "box" and len(doc["sectors"]) == 2


def test_error_json_on_stderr(capsys):
    code, out, err = run(capsys, "potential", "--preset", "teardrop:3", "--u", "5")
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "PointNotInterior"


def test_reproduce_matches_committed(capsys):
    code, out, err = run(capsys, "reproduce", "teardrop-a3")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["name"] == "teardrop-a3"
    assert doc["critical_at_center"]["count"] == 4
