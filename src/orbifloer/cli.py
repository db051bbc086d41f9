"""Command line front end: JSON, CSV and SVG views of the library.

Conventions shared by every subcommand: rationals are serialized as exact
"p/q" strings, never floats; complex certificate values appear as
{"re": .., "im": ..} pairs printed with 17 significant digits; all output
is deterministic given the input and --seed.  A ValidationError (and a
bad command line) exits with code 2, a reproduction mismatch with 3,
anything else with 1, and the error is mirrored as a JSON object on stderr.
"""

import argparse
import itertools
import json
import math
import os
import sys
import zlib
from fractions import Fraction
from pathlib import Path

from .disc import h2_generators
from .errors import InputError, ValidationError
from .lattice import SimplicialCone, cone_multiplicity, integral_basis_in_cone
from .ltsolver import build_lts, solve, stratify
from .potential import (
    BulkParam,
    bulk_leading_potential,
    critical_points,
    smooth_leading_potential,
)
from .region import (
    _piece_interval,
    interval_union,
    nondisplaceable_region,
    piece_geometry,
    query_point,
)
from .series import QC, render_poly
from .stacky import _integer, _integers, build_model, enumerate_box, sector_ell_form

REPRODUCE_DIR = Path(__file__).parent / "data" / "reproduce"


# ---------------------------------------------------------------------------
# serialization


def _qvec(v) -> list:
    return list(map(str, v))


def _c17(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


_str = json.encoder.encode_basestring_ascii


def dump_json(doc) -> str:
    """json.dumps(doc, indent=2) with every float as format(x, ".17g"), plus a newline.

    One recursive pass (_emit) writes the text; json's own indented encoder
    is a pure-Python generator, and it would print floats by repr.  A
    _Streamed value is written as a list, one element at a time: each
    element's fragments are joined as soon as it is written, so the
    fragment list holds at most one of them and a region document is held
    in memory one piece at a time.
    """
    out: list = []
    _emit(doc, "\n", out.append)
    out.append("\n")
    return "".join(out)


class _Streamed:
    """A sized, re-iterable list view whose elements are built only while written."""

    __slots__ = ("items", "build")

    def __init__(self, items, build):
        self.items, self.build = items, build

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return map(self.build, self.items)


def _emit(o, pad: str, put) -> None:
    # pad is the newline and indent of the line that closes o
    if isinstance(o, str):
        put(_str(o))
    elif o is None:
        put("null")
    elif o is True:
        put("true")
    elif o is False:
        put("false")
    elif isinstance(o, int):
        put(int.__repr__(o))
    elif isinstance(o, float):
        put(format(float(o), ".17g"))
    elif isinstance(o, dict):
        if not o:
            put("{}")
            return
        inner, sep = pad + "  ", "{"
        for k, v in o.items():
            # keys that are not strings are named as json.dumps names them
            put(sep + inner + _str(k if isinstance(k, str) else json.dumps(k)) + ": ")
            _emit(v, inner, put)
            sep = ","
        put(pad + "}")
    elif isinstance(o, (list, tuple, _Streamed)):
        if not len(o):
            put("[]")
            return
        inner, sep, streamed = pad + "  ", "[", isinstance(o, _Streamed)
        for v in o:
            put(sep + inner)
            if streamed:
                element: list = []
                _emit(v, inner, element.append)
                put("".join(element))
            else:
                _emit(v, inner, put)
            sep = ","
        put(pad + "]")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _coeff_doc(c) -> dict:
    if c.lin:
        raise InputError("cannot serialize symbolic coefficients")
    return {"re": str(c.const.q), "im": "0"}


def _model_doc(m) -> dict:
    return {
        "dim": m.dim,
        "facets": [
            {"normal": list(f.normal), "label": f.label, "offset": str(f.offset)}
            for f in m.facets
        ],
        "vertices": [_qvec(v) for v in m.vertices],
    }


def _verdict_doc(v) -> dict:
    doc = {"status": v.status.value, "certificate": None, "proof": v.proof}
    if v.certificate is not None:
        c = v.certificate
        doc["certificate"] = {
            "y": [_c17(z) for z in c.y],
            "symbols": {name: _c17(z) for name, z in c.symbol_values},
            "residual": c.residual,
            "exact": c.exact,
        }
    return doc


# ---------------------------------------------------------------------------
# input parsing


def _parse_u(text: str, dim: int) -> tuple:
    try:
        u = tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise InputError(f"--u must be comma-separated rationals, got {text!r}")
    if len(u) != dim:
        raise InputError(f"--u has {len(u)} coordinates, model has dimension {dim}")
    return u


def _read_json(path: str, what: str):
    """The parsed contents of a --model or --bulk file; InputError naming the file."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as e:
        raise InputError(f"cannot read {what} file: {e}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"{what} file is not valid JSON: {e}") from None


def _load_model(args):
    if (args.preset is None) == (args.model is None):
        raise InputError("exactly one of --preset and --model is required")
    return build_model(args.preset if args.model is None else _read_json(args.model, "model"))


def _load_bulk(path: str | None, m) -> BulkParam:
    if path is None:
        return BulkParam.zero()
    doc = _read_json(path, "bulk")
    if not isinstance(doc, dict) or not isinstance(doc.get("sectors"), list):
        raise InputError('bulk file must be an object with a "sectors" list')
    if not isinstance(doc.get("divisors", []), list):
        raise InputError('bulk file "divisors" must be a list')
    known = {s.nu for s in enumerate_box(m)}
    entries = []
    for k, row in enumerate(doc["sectors"]):
        where = f"sectors[{k}]"
        nu = _bulk_field(row, where, "nu", _integers)
        if nu not in known:
            raise InputError(f"bulk {where}.nu: {nu} is not a twisted sector of this model")
        entries.append((nu, *_bulk_term(row, where)))
    # divisor rows change no leading-order output; they are checked, not kept
    for k, row in enumerate(doc.get("divisors", [])):
        where = f"divisors[{k}]"
        facet = _bulk_field(row, where, "facet", _integer)
        if not 0 <= facet < len(m.facets):
            raise InputError(
                f"bulk {where}.facet: {facet} is not a facet index of this model"
                f" (it has {len(m.facets)} facets)"
            )
        _bulk_term(row, where)
    return BulkParam.of(entries)


def _bulk_field(row, where: str, key: str, parse):
    """Parsed field of one bulk-file row; InputError naming the row and field."""
    if not isinstance(row, dict) or key not in row:
        raise InputError(f'bulk {where}: missing field "{key}"')
    try:
        return parse(row[key])
    except (TypeError, ValueError, ZeroDivisionError):
        raise InputError(f"bulk {where}.{key}: cannot read {row[key]!r}") from None


def _bulk_term(row, where: str) -> tuple:
    """(coefficient, T-exponent) of one bulk-file row."""
    c, lam = (_bulk_field(row, where, key, lambda x: Fraction(str(x))) for key in ("c", "lambda"))
    return QC.of(c), lam


def _parse_cone(text: str) -> SimplicialCone:
    try:
        gens = [
            tuple(int(x) for x in part.strip().split(","))
            for part in text.split(";")
            if part.strip()
        ]
    except ValueError:
        raise InputError(f"--cone must look like 'a,b;c,d', got {text!r}")
    if not gens:
        raise InputError("--cone needs at least one generator")
    return SimplicialCone(tuple(gens))


# ---------------------------------------------------------------------------
# subcommand documents


def cmd_box(m) -> dict:
    sectors = []
    for i, s in enumerate(enumerate_box(m)):
        g, c = sector_ell_form(m, s)
        sectors.append(
            {
                "index": i,
                "nu": list(s.nu),
                "order": s.order,
                "iota": str(s.iota),
                "cone": s.cone_index,
                "support": list(s.support),
                "coeffs": {
                    str(j): str(q) for j, q in zip(s.facet_indices, s.coeffs) if q
                },
                "ell": {"gradient": _qvec(g), "constant": str(c)},
            }
        )
    return {"command": "box", "model": _model_doc(m), "sectors": sectors}


def cmd_discs(m, u) -> dict:
    classes = []
    for cls in h2_generators(m):
        row = {
            "kind": cls.kind,
            "index": cls.index,
            "boundary": list(cls.boundary),
            "maslov_desingularized": cls.mu_de,
            "maslov_cw": str(cls.mu_cw),
            "virtual_dim": cls.virtual_dim,
            "area": {"gradient": _qvec(cls.area_gradient), "constant": str(cls.area_constant)},
        }
        if u is not None:
            row["area_at_u"] = str(cls.area_at(u))
        classes.append(row)
    doc = {"command": "discs", "model": _model_doc(m), "classes": classes}
    if u is not None:
        doc["u"] = _qvec(u)
    return doc


def _potential_at(m, u, bp):
    if bp.is_zero():
        return smooth_leading_potential(m, u)
    return bulk_leading_potential(m, u, bp)


def cmd_potential(m, u, bp) -> dict:
    pot = _potential_at(m, u, bp)
    return {
        "command": "potential",
        "u": _qvec(u),
        "terms": [
            {
                "kind": t.kind,
                "index": t.index,
                "coeff": _coeff_doc(t.coeff),
                "t_exponent": str(t.t_exponent),
                "exponent": list(t.exponent),
            }
            for t in pot.terms
        ],
        "rendered": str(pot),
    }


def cmd_critical(m, u, bp, t_value, seed) -> dict:
    pot = _potential_at(m, u, bp)
    pts = critical_points(pot, t_value=t_value, seed=seed)
    return {
        "command": "critical",
        "u": _qvec(u),
        "t_value": t_value,
        "count": len(pts),
        "points": [
            {"y": [_c17(z) for z in p.y], "residual": p.residual} for p in pts
        ],
    }


def cmd_lte(m, u, bp, seed) -> dict:
    lts = build_lts(stratify(m, u, bp))
    verdict = solve(lts, seed=seed)
    return {
        "command": "lte",
        "u": _qvec(u),
        "adapted_basis": [list(row) for row in lts.basis],
        "symbols": list(lts.symbols),
        "levels": [
            {
                "energy": None if lv.energy is None else str(lv.energy),
                "poly": render_poly(lv.poly),
                "own_vars": list(lv.var_indices),
                "equations": [render_poly(e) for e in lv.equations],
            }
            for lv in lts.levels
        ],
        "verdict": _verdict_doc(verdict),
    }


def _interval_doc(lo, lo_closed, hi, hi_closed) -> dict:
    return {"lo": str(lo), "lo_closed": lo_closed, "hi": str(hi), "hi_closed": hi_closed}


def _geometry_doc(piece, r) -> dict | None:
    if r.model.dim == 1:
        return {"type": "interval", **_interval_doc(*_piece_interval(piece, r.closure))}
    if r.model.dim == 2:
        kind, data = piece_geometry(piece, 2)
        return {"type": kind, "points": [_qvec(p) for p in data]}
    return None


def _piece_doc(p, r) -> dict:
    return {
        "serial": p.scenario.serial,
        "scenario": p.scenario.describe(),
        "levels": [[list(tag) for tag in tags] for tags in p.scenario.levels],
        "excluded": [list(tag) for tag in p.scenario.excluded],
        "witness": _qvec(p.polyhedron.witness),
        "geometry": _geometry_doc(p, r),
        "verdict": _verdict_doc(p.verdict),
    }


def cmd_region(r, u=None) -> dict:
    """The region document; with a point u, also its membership query.

    Its "pieces" are a _Streamed view: dump_json builds each piece's
    document only while it writes it.
    """
    m = r.model
    doc = {
        "command": "region",
        "model": _model_doc(m),
        "max_levels": r.max_levels,
        "closure": r.closure,
        "piece_count": len(r.pieces),
        "pieces": _Streamed(r.pieces, lambda p: _piece_doc(p, r)),
    }
    if m.dim == 1:
        doc["interval_union"] = [_interval_doc(*iv) for iv in interval_union(r)]
    if u is not None:
        doc["query"] = _query_doc(r, u)
    return doc


def _query_doc(r, u) -> dict:
    rep = query_point(r, u)
    return {
        "u": _qvec(rep.u),
        "interior": rep.interior,
        "member": rep.member,
        "pieces": [p.scenario.serial for p in rep.matches],
    }


def region_grid_csv(r, n: int):
    """CSV membership samples on an n-per-axis grid over the vertex box, line by line.

    A row gives the point, whether it lies in the polytope's interior (the
    box holds points outside the polytope, which are never members) and
    whether it is a member.  Each row is yielded as soon as its point is
    answered.  No field holds a comma or a quote, so none is quoted.
    """
    m = r.model
    lo = [min(v[k] for v in m.vertices) for k in range(m.dim)]
    hi = [max(v[k] for v in m.vertices) for k in range(m.dim)]
    axes = [
        [lo[k] + Fraction(i + 1, n + 1) * (hi[k] - lo[k]) for i in range(n)]
        for k in range(m.dim)
    ]
    yield ",".join([f"u{k + 1}" for k in range(m.dim)] + ["interior", "member"]) + "\n"
    for u in itertools.product(*axes):
        rep = query_point(r, u)
        yield ",".join(_qvec(u) + [str(rep.interior).lower(), str(rep.member).lower()]) + "\n"


def cmd_conebasis(cone_text: str) -> dict:
    cone = _parse_cone(cone_text)
    trace: list = []
    basis = integral_basis_in_cone(cone, trace)
    return {
        "command": "conebasis",
        "generators": [list(g) for g in cone.generators],
        "multiplicity": cone_multiplicity(cone),
        "basis": [list(b) for b in basis],
        "multiplicity_trace": trace,
    }


# ---------------------------------------------------------------------------
# SVG rendering (presentational only, excluded from reproduction diffs)


def _color(serial: int) -> str:
    hue = zlib.crc32(str(serial).encode()) % 360
    return f"hsl({hue},70%,45%)"


def _svg_frame(xs, ys):
    # map rational data coordinates into the fixed 800x800 viewport
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, Fraction(1, 1000))
    scale = Fraction(720) / span

    def to_px(p) -> tuple:
        x = 40 + float((Fraction(p[0]) - lo_x) * scale)
        y = 760 - float((Fraction(p[1]) - lo_y) * scale)
        return f"{x:.2f}", f"{y:.2f}"

    return to_px


def render_svg(r) -> str:
    m = r.model
    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
        'viewBox="0 0 800 800">',
        '<rect width="800" height="800" fill="white"/>',
    ]
    if m.dim == 1:
        verts = sorted(v[0] for v in m.vertices)
        to_px = _svg_frame(verts, [Fraction(0)])
        for p in r.pieces:
            lo, _, hi, _ = _piece_interval(p, True)
            (x1, _), (x2, _) = to_px((lo, 0)), to_px((hi, 0))
            c = _color(p.scenario.serial)
            if lo == hi:
                out.append(f'<circle cx="{x1}" cy="400" r="7" fill="{c}"/>')
            else:
                out.append(
                    f'<line x1="{x1}" y1="400" x2="{x2}" y2="400" '
                    f'stroke="{c}" stroke-width="10" stroke-opacity="0.6"/>'
                )
        (x1, _), (x2, _) = to_px((verts[0], 0)), to_px((verts[-1], 0))
        out.append(f'<line x1="{x1}" y1="400" x2="{x2}" y2="400" stroke="black" stroke-width="2"/>')
    else:
        verts = list(m.vertices)
        to_px = _svg_frame([v[0] for v in verts], [v[1] for v in verts])
        cx = sum(v[0] for v in verts) / len(verts)
        cy = sum(v[1] for v in verts) / len(verts)
        ordered = sorted(
            verts, key=lambda v: math.atan2(float(v[1] - cy), float(v[0] - cx))
        )
        for p in r.pieces:
            kind, data = piece_geometry(p, m.dim)
            c = _color(p.scenario.serial)
            if kind == "polygon":
                pts = " ".join(",".join(to_px(q)) for q in data)
                out.append(f'<polygon points="{pts}" fill="{c}" fill-opacity="0.35" stroke="{c}"/>')
            elif kind == "segment":
                (x1, y1), (x2, y2) = map(to_px, data)
                out.append(
                    f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                    f'stroke="{c}" stroke-width="4" stroke-opacity="0.8"/>'
                )
            else:
                x, y = to_px(data[0])
                out.append(f'<circle cx="{x}" cy="{y}" r="6" fill="{c}"/>')
        boundary = " ".join(",".join(to_px(v)) for v in ordered)
        out.append(f'<polygon points="{boundary}" fill="none" stroke="black" stroke-width="2"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# reproduction suite


def _region_doc(m, seed, queries=()):
    r = nondisplaceable_region(m, seed=seed)
    return cmd_region(r), [_query_doc(r, u) for u in queries]


def _rep_teardrop_a3(seed) -> dict:
    m = build_model("teardrop:3")
    region, _ = _region_doc(m, seed)
    return {
        "box": cmd_box(m),
        "critical_at_center": cmd_critical(m, (Fraction(0),), BulkParam.zero(), 0.5, seed),
        "region": region,
    }


def _rep_wp135_box(seed) -> dict:
    m = build_model("wp:1,3,5")
    return {"box": cmd_box(m), "discs": cmd_discs(m, None)}


def _region_case(preset: str, *queries: str):
    """A reproduce case: the region of a preset and its queries, each written like --u."""

    def build(seed) -> dict:
        m = build_model(preset)
        region, docs = _region_doc(m, seed, [_parse_u(u, m.dim) for u in queries])
        return {"region": region, "queries": docs}

    return build


def _rep_allnon_demo(seed) -> dict:
    interval, iv_q = _region_doc(
        build_model("interval:2,2"), seed, [(Fraction(137, 1000),)]
    )
    sq = build_model("square:2,2,2,2")
    r = nondisplaceable_region(sq, seed=seed)
    sq_q = [
        _query_doc(r, u)
        for u in [(Fraction(1, 3), Fraction(1, 2)), (Fraction(5, 7), Fraction(1, 5))]
    ]
    return {
        "interval": interval,
        "interval_queries": iv_q,
        "square": {
            # the full piece list runs to four figures; a digest keeps the
            # committed expectation reviewable
            "model": _model_doc(sq),
            "piece_count": len(r.pieces),
            "exact_certificates": sum(
                1 for p in r.pieces if p.verdict.certificate.exact
            ),
        },
        "square_queries": sq_q,
    }


REPRODUCE = {
    "teardrop-a3": _rep_teardrop_a3,
    "wp-1-3-5-box": _rep_wp135_box,
    "p1aa-a2": _region_case("wp:1,2,2", "-1/12,-1/12", "-1/4,-1/4"),
    "p11a-a3": _region_case("wp:1,1,3", "-1/2,1/3"),
    "p135-region": _region_case("wp:1,3,5", "1/20,0", "-1/10,1/100", "0,-1/20", "1/2,1/10", "3/20,1/10"),
    "allnon-demo": _rep_allnon_demo,
}


def run_reproduce(name: str, write: bool = False, seed: int = 0) -> tuple:
    """(generated text, matches committed text).  write refreshes the file."""
    if name not in REPRODUCE:
        raise InputError(f"unknown reproduction {name!r}; known: {', '.join(REPRODUCE)}")
    text = dump_json({"name": name, **REPRODUCE[name](seed)})
    path = REPRODUCE_DIR / f"{name}.json"
    if write:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return text, True
    if not path.exists():
        return text, False
    return text, path.read_text() == text


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _fail(2, "ArgumentError", message)


def _fail(code: int, kind: str, message: str):
    sys.stderr.write(dump_json({"error": kind, "message": message}))
    raise SystemExit(code)


def _seed(text: str) -> int:
    """--seed: a non-negative integer, the seed of the multistart draws."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


def _model_flags(p) -> None:
    p.add_argument("--preset", help="model preset, e.g. wp:1,3,5 or teardrop:3")
    p.add_argument("--model", help="path to a model JSON file")


def _fiber_flags(p) -> None:
    p.add_argument("--u", help='interior fiber point "p/q,p/q"')


def _bulk_flag(p) -> None:
    p.add_argument("--bulk", help="path to a bulk deformation JSON file")


def _seed_flag(p) -> None:
    p.add_argument("--seed", type=_seed, default=0)


def _critical_flags(p) -> None:
    p.add_argument("--t-value", type=float, default=0.5)


def _region_flags(p) -> None:
    p.add_argument("--u", help="query point to test for membership")
    p.add_argument("--max-levels", type=int, default=2)
    p.add_argument("--closure", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--svg", help="write an 800x800 picture to this path")
    p.add_argument("--grid", type=int, help="emit a membership CSV on an NxN grid")


def _cone_flags(p) -> None:
    p.add_argument("--cone", required=True, help='generators "a,b;c,d"')


def _reproduce_flags(p) -> None:
    p.add_argument("name", nargs="?", help=f"one of: {', '.join(REPRODUCE)}")
    p.add_argument("--all", action="store_true", help="run the whole suite")
    p.add_argument("--write", action="store_true", help="refresh the committed expectation")


# each subcommand's flags, added in this order
_SUBCOMMANDS = {
    "box": (_model_flags,),
    "discs": (_model_flags, _fiber_flags),
    "potential": (_model_flags, _fiber_flags, _bulk_flag),
    "critical": (_model_flags, _fiber_flags, _bulk_flag, _seed_flag, _critical_flags),
    "lte": (_model_flags, _fiber_flags, _bulk_flag, _seed_flag),
    "region": (_model_flags, _seed_flag, _region_flags),
    "conebasis": (_cone_flags,),
    "reproduce": (_seed_flag, _reproduce_flags),
}


def _build_parser(argv: list) -> _Parser:
    """The parser for argv: only the subcommand that argv names first.

    The top-level parser takes no flag but -h, so a request that parses
    names its subcommand first.  Help, a missing subcommand or a typo get
    all eight subparsers, so their text and errors list every choice.
    """
    p = _Parser(prog="orbifloer", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="subcommand", required=True)
    names = argv[:1] if argv and argv[0] in _SUBCOMMANDS else _SUBCOMMANDS
    for name in names:
        s = sub.add_parser(name)
        for add_flags in _SUBCOMMANDS[name]:
            add_flags(s)
    return p


def _dispatch(args):
    """Yield the request's stdout in order: documents, which main serializes, or text."""
    if args.subcommand == "conebasis":
        yield cmd_conebasis(args.cone)
        return
    if args.subcommand == "reproduce":
        if args.all == bool(args.name):
            raise InputError("reproduce needs exactly one of a name and --all")
        names = list(REPRODUCE) if args.all else [args.name]
        failed = []
        for name in names:
            text, ok = run_reproduce(name, write=args.write, seed=args.seed)
            yield text
            if not ok:
                failed.append(name)
        if failed:
            _fail(3, "ReproduceMismatch", f"output differs from committed: {', '.join(failed)}")
        return

    m = _load_model(args)
    if args.subcommand == "box":
        yield cmd_box(m)
    elif args.subcommand == "region":
        u = _check_region_flags(m, args)
        r = nondisplaceable_region(
            m, max_levels=args.max_levels, closure=args.closure, seed=args.seed
        )
        if args.svg is not None:
            try:
                Path(args.svg).write_text(render_svg(r))
            except OSError as e:
                raise InputError(f"cannot write --svg file: {e}") from None
        if args.grid is None:
            yield cmd_region(r, u)
        else:
            yield from region_grid_csv(r, args.grid)
    else:
        yield _fiber_doc(m, args)


def _fiber_doc(m, args) -> dict:
    # the fiber-local subcommands; discs alone runs without --u
    u = None if args.u is None else _parse_u(args.u, m.dim)
    if u is not None:
        m.require_interior(u)
    if args.subcommand == "discs":
        return cmd_discs(m, u)
    if u is None:
        raise InputError(f"{args.subcommand} requires --u")
    bp = _load_bulk(args.bulk, m)
    if args.subcommand == "potential":
        return cmd_potential(m, u, bp)
    if args.subcommand == "critical":
        return cmd_critical(m, u, bp, args.t_value, args.seed)
    return cmd_lte(m, u, bp, args.seed)


def _check_region_flags(m, args) -> tuple | None:
    """Parsed --u (or None), before the region is built; InputError for a bad flag."""
    if args.u is not None and args.grid is not None:
        raise InputError("--grid writes a CSV and takes no --u query")
    u = None if args.u is None else _parse_u(args.u, m.dim)
    if args.grid is not None and args.grid < 1:
        raise InputError("--grid must be a positive integer")
    if args.svg is not None:
        if m.dim > 2:
            raise InputError(f"--svg draws models of dimension 1 or 2, not {m.dim}")
        if not Path(args.svg).parent.is_dir():
            raise InputError(f"--svg {args.svg!r} is not in an existing directory")
    return u


def _merge_dash_values(argv: list) -> list:
    # "--u -1/12,-1/12" would be read as two flags; fold into "--u=..."
    out = []
    i = 0
    while i < len(argv):
        a = argv[i]
        if a in ("--u", "--cone") and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{a}={argv[i + 1]}")
            i += 2
        else:
            out.append(a)
            i += 1
    return out


def main(argv=None) -> int:
    argv = _merge_dash_values(sys.argv[1:] if argv is None else list(argv))
    args = _build_parser(argv).parse_args(argv)
    try:
        for out in _dispatch(args):
            sys.stdout.write(out if isinstance(out, str) else dump_json(out))
        return 0
    except BrokenPipeError:
        # the reader closed stdout (say, head): stop quietly, and point
        # stdout at devnull so that the flush at exit raises nothing more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValidationError as e:
        _fail(2, type(e).__name__, str(e))
    except Exception as e:
        _fail(1, type(e).__name__, str(e))


if __name__ == "__main__":
    sys.exit(main())
