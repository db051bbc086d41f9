"""End-to-end checks of the command line surface."""

import enum
import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
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


class _Color(str, enum.Enum):
    RED = "red"


def test_dump_json_equals_json_dumps_without_floats():
    docs = [
        {},
        [],
        {"a": {}, "b": [], "c": [{}, [[]], {"d": []}]},
        (1, (2, 3), ()),
        {"t": ("x", ("y",)), "n": None},
        ["ümlaut", "€", "\U0001f600", "tab\there", "nl\n", "\x00\x1f\x7f", '"q"\\'],
        [True, False, 1, 0, -7, 10**30],
        {"status": _Color.RED, _Color.RED: [_Color.RED]},
        {1: "int key", False: "bool key", None: "null key"},
        "top-level string",
        42,
        None,
    ]
    for doc in docs:
        assert dump_json(doc) == json.dumps(doc, indent=2) + "\n"


def test_dump_json_floats_as_before():
    doc = {
        "x": [0.1, -0.0, 1e300, 5e-324, 2.0, math.nan, math.inf, -math.inf],
        "nested": {"f": [[1.5], {"g": 1 / 3}]},
        "mixed": [1, 1.0, True],
    }
    text = dump_json(doc)
    assert text == oracles.dump_json_by_placeholders(doc)
    assert '"x": [\n    0.10000000000000001,\n    -0,' in text
    assert "    nan,\n    inf,\n    -inf\n" in text
    assert dump_json(0.5) == "0.5\n"


def test_dump_json_rejects_what_json_rejects():
    with pytest.raises(TypeError):
        dump_json({"s": {1, 2}})


# no NUL in generated text: the placeholder oracle would read "\x00f0\x00" as a float
_text = st.text(st.characters(blacklist_characters="\x00"), max_size=8)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _text,
    st.floats(allow_nan=True, allow_infinity=True),
)
_keys = st.one_of(_text, st.integers(-9, 9), st.booleans(), st.none())
_docs = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_keys, kids, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(doc=_docs)
def test_dump_json_matches_oracles_on_random_docs(doc):
    text = dump_json(doc)
    assert text == oracles.dump_json_by_placeholders(doc)
    if float not in _leaf_types(doc):
        assert text == json.dumps(doc, indent=2) + "\n"


def _leaf_types(doc) -> set:
    # the types of a nested doc's leaves, dict keys aside
    if isinstance(doc, dict):
        return set().union(*map(_leaf_types, doc.values()))
    if isinstance(doc, (list, tuple)):
        return set().union(*map(_leaf_types, doc))
    return {type(doc)}


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


@pytest.mark.parametrize(
    "coeffs, same",
    [
        # c = 1 and c = -1 cancel: the deformation is zero, and a level whose
        # sum is the zero polynomial must not be certified solvable
        (("1", "-1"), []),
        (("1", "1"), [{"nu": [1], "c": "2", "lambda": "1/12"}]),
    ],
    ids=["cancelling", "equal"],
)
def test_lte_sums_bulk_rows_of_one_sector(tmp_path, capsys, coeffs, same):
    def lte(rows):
        args = ["lte", "--preset", "teardrop:3", "--u", "1/4"]
        if rows:
            path = tmp_path / f"bulk{len(list(tmp_path.iterdir()))}.json"
            path.write_text(json.dumps({"sectors": rows}))
            args += ["--bulk", str(path)]
        return run_json(capsys, *args)

    doc = lte([{"nu": [1], "c": c, "lambda": "1/12"} for c in coeffs])
    assert doc == lte(same)
    assert doc["verdict"]["status"] == "UnsolvableProven"


@pytest.mark.parametrize(
    "coeffs, same, rendered",
    [
        # the potential lists the sum, as stratify does: cancelling rows
        # leave no sector term
        (("1", "-1"), [], "T^{7/4}*y1^3 + T^{3/4}*y1^-1"),
        (
            ("1", "1"),
            [{"nu": [1], "c": "2", "lambda": "1/12"}],
            "T^{7/4}*y1^3 + T^{3/4}*y1^-1 + 2*T^{2/3}*y1^1",
        ),
    ],
    ids=["cancelling", "equal"],
)
def test_potential_sums_bulk_rows_of_one_sector(tmp_path, capsys, coeffs, same, rendered):
    def request(kind, rows):
        args = [kind, "--preset", "teardrop:3", "--u", "1/4"]
        if rows:
            path = tmp_path / f"bulk{len(list(tmp_path.iterdir()))}.json"
            path.write_text(json.dumps({"sectors": rows}))
            args += ["--bulk", str(path)]
        return run_json(capsys, *args)

    rows = [{"nu": [1], "c": c, "lambda": "1/12"} for c in coeffs]
    doc = request("potential", rows)
    assert doc == request("potential", same)
    assert doc["rendered"] == rendered
    assert [t["kind"] for t in doc["terms"]].count("sector") == len(same)
    # the polynomial was a sum before, so critical points do not move
    assert request("critical", rows) == request("critical", same)


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


@pytest.mark.parametrize(
    "key, value, readable",
    [
        ("nu", [0, -1], True),
        ("nu", ["0", "-1"], True),
        ("nu", [0.0, -1.0], True),
        ("nu", [0.9, -1.2], False),
        ("nu", [0, "-1/2"], False),
        ("facet", 2, True),
        ("facet", "2", True),
        ("facet", 2.0, True),
        ("facet", 1.7, False),
        ("facet", "1.5", False),
    ],
)
def test_bulk_file_integers_are_not_truncated(tmp_path, capsys, key, value, readable):
    sector = {"nu": [0, -1], "c": "1", "lambda": "1/2"}
    divisor = {"facet": 2, "c": "1", "lambda": "1/2"}
    if key == "nu":
        sector["nu"] = value
    else:
        divisor["facet"] = value
    path = tmp_path / "bulk.json"
    path.write_text(json.dumps({"sectors": [sector], "divisors": [divisor]}))
    args = ("potential", "--preset", "wp:1,3,5", "--u", "-1/10,1/100", "--bulk")
    code, out, err = run(capsys, *args, str(path))
    if readable:
        want = tmp_path / "want.json"
        want.write_text(json.dumps({"sectors": [dict(sector, nu=[0, -1])], "divisors": []}))
        assert code == 0 and out == run(capsys, *args, str(want))[1]
    else:
        where = "sectors[0].nu" if key == "nu" else "divisors[0].facet"
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "InputError" and f"bulk {where}: cannot read" in error["message"]


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
    # integer fields read 3, "3" and 3.0 alike
    model["dim"] = "1"
    model["facets"][0].update(normal=[1.0], label="3")
    model["facets"][1].update(normal=["-1"], label=1.0)
    path.write_text(json.dumps(model))
    assert run_json(capsys, "box", "--model", str(path)) == doc


SIMPLEX = {
    "dim": 2,
    "facets": [
        {"normal": [1, 0], "label": 1, "offset": "0"},
        {"normal": [0, 1], "label": 1, "offset": "0"},
        {"normal": [-1, -1], "label": 1, "offset": "-1"},
    ],
}


def with_facet(k, **fields):
    doc = json.loads(json.dumps(SIMPLEX))
    doc["facets"][k].update(fields)
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        ({**SIMPLEX, "facets": [*SIMPLEX["facets"][:2], {"label": 1, "offset": "-1"}]},
         "facets[2].normal: missing"),
        (with_facet(0, normal="ab"), "facets[0].normal"),
        (with_facet(1, label="x"), "facets[1].label"),
        ({**SIMPLEX, "dim": "two"}, "dim"),
        ({**SIMPLEX, "facets": 5}, "facets"),
        ({**SIMPLEX, "facets": [None]}, "facets[0]"),
        (with_facet(0, offset="1/0"), "facets[0].offset"),
        (with_facet(0, offset="abc"), "facets[0].offset"),
        ({"preset": "weighted_projective"}, "weights"),
        ({"preset": "weighted_projective", "weights": [1, 2.5]}, "weights: cannot read [1, 2.5]"),
        # int() would truncate these to a model nobody wrote
        (with_facet(0, normal=[1.5, 0]), "facets[0].normal"),
        ({**SIMPLEX, "dim": 2.5}, "dim"),
    ],
)
def test_malformed_model_files_fail_typed(tmp_path, capsys, doc, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "box", "--model", str(path))
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "InputError" and message in error["message"]


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


def test_region_svg_refuses_three_dimensional_models(tmp_path, capsys, monkeypatch):
    # a 3-d region has no faithful 800x800 picture; refused before the build
    def refuse(*args, **kwargs):
        raise AssertionError("the region was built before --svg was checked")

    monkeypatch.setattr(cli, "nondisplaceable_region", refuse)
    path = tmp_path / "pic.svg"
    code, out, err = run(capsys, "region", "--preset", "wp:1,2,3,5", "--svg", str(path))
    assert code == 2 and out == "" and not path.exists()
    error = json.loads(err)
    assert error["error"] == "InputError" and "dimension 1 or 2" in error["message"]


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


def subparsers(parser) -> dict:
    (action,) = parser._subparsers._group_actions
    return action.choices


@pytest.mark.parametrize("name", list(cli._SUBCOMMANDS))
def test_lazy_subparser_help_equals_the_full_parsers(name):
    lazy = subparsers(cli._build_parser([name]))
    full = subparsers(cli._build_parser([]))
    assert list(lazy) == [name] and list(full) == list(cli._SUBCOMMANDS)
    assert lazy[name].format_help() == full[name].format_help()


ARGV_BATTERY = [
    ["box", "--preset", "wp:1,3,5"],
    ["box", "--model", "m.json"],
    ["discs", "--preset", "wp:1,3,5", "--u", "-1/12,1/3", "--bulk", "b.json"],
    ["potential", "--model", "m.json", "--u=-1/12,-1/12"],
    ["potential", "--preset", "teardrop:3", "--u", "-1/12"],
    ["critical", "--preset", "x", "--u", "1/2", "--bulk", "b.json", "--t-value", "0.25", "--seed", "3"],
    ["critical", "--preset", "x", "--u", "1/2"],
    ["lte", "--preset", "x", "--u", "-1/12,-1/12", "--bulk", "b.json", "--seed", "7"],
    ["region", "--preset", "x", "--u", "-1/2,1/3", "--max-levels", "3", "--no-closure"],
    ["region", "--model", "m.json", "--closure", "--svg", "a.svg", "--grid", "4", "--seed", "2"],
    ["conebasis", "--cone", "-1,0;1,5"],
    ["reproduce", "--all"],
    ["reproduce", "p1aa-a2", "--write", "--seed", "4"],
]


@pytest.mark.parametrize("argv", ARGV_BATTERY, ids=lambda a: " ".join(a))
def test_lazy_parser_reads_every_flag_as_the_full_parser(argv):
    argv = cli._merge_dash_values(argv)
    lazy = cli._build_parser(argv).parse_args(argv)
    assert lazy == cli._build_parser([]).parse_args(argv)
    assert lazy.subcommand == argv[0]


@pytest.mark.parametrize(
    "argv",
    [["typo", "--preset", "x"], ["box", "--nope"], [], ["lte", "--seed", "x"], ["region", "--grid"]],
)
def test_lazy_parser_fails_as_the_full_parser(argv, capsys):
    def error_of(parser):
        with pytest.raises(SystemExit) as done:
            parser.parse_args(argv)
        return done.value.code, capsys.readouterr()

    lazy = error_of(cli._build_parser(argv))
    assert lazy == error_of(cli._build_parser([]))
    assert lazy[0] == 2 and json.loads(lazy[1].err)["error"] == "ArgumentError"


def test_a_request_builds_one_subparser(capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    code, out, _ = run(capsys, "lte", "--preset", "teardrop:3", "--u", "1/5")
    assert code == 0 and json.loads(out)["command"] == "lte"
    assert built == ["orbifloer", "orbifloer lte"]


@pytest.mark.parametrize(
    "argv",
    [
        ["critical", "--preset", "teardrop:3", "--u", "0"],
        ["lte", "--preset", "teardrop:3", "--u", "0"],
        ["region", "--preset", "wp:1,2,2"],
        ["reproduce", "p1aa-a2"],
    ],
    ids=lambda a: a[0],
)
def test_negative_seed_fails_before_any_model_is_built(argv, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before --seed was checked")

    for name in ("build_model", "run_reproduce", "nondisplaceable_region"):
        monkeypatch.setattr(cli, name, refuse)
    code, out, err = run(capsys, *argv, "--seed", "-5")
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "ArgumentError",
        "message": "argument --seed: must be a non-negative integer, got -5",
    }
    assert run(capsys, *argv[:1], "--seed", "abc")[2] == dump_json(
        {"error": "ArgumentError", "message": "argument --seed: invalid int value: 'abc'"}
    )
