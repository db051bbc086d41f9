"""Command line front end: JSON, CSV and SVG views of the library.

Conventions shared by every subcommand: rationals are serialized as exact
"p/q" strings, never floats; complex certificate values appear as
{"re": .., "im": ..} pairs printed with 17 significant digits; all output
is deterministic given the input and --seed.  Validation problems exit
with code 2, a reproduction mismatch with 3, anything unexpected with 1,
and the error is mirrored as a JSON object on stderr.
"""

import argparse
import csv
import io
import json
import re
import sys
import zlib
from fractions import Fraction
from pathlib import Path

from .disc import basic_orbi_discs, basic_smooth_discs, h2_generators, virtual_dimension
from .errors import (
    DegenerateCone,
    EmptyInterior,
    InputError,
    NonPositiveBulkExponent,
    NonPrimitiveNormal,
    NotSimple,
    OrbifloerError,
    PointNotInterior,
    Unbounded,
    ZeroCoordinate,
)
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
from .stacky import build_model, enumerate_box, sector_ell_form

_VALIDATION_ERRORS = (
    InputError,
    NotSimple,
    Unbounded,
    NonPrimitiveNormal,
    EmptyInterior,
    PointNotInterior,
    NonPositiveBulkExponent,
    DegenerateCone,
    ZeroCoordinate,
)

REPRODUCE_DIR = Path(__file__).parent / "data" / "reproduce"


# ---------------------------------------------------------------------------
# serialization


def _q(x) -> str:
    return str(Fraction(x))


def _qvec(v) -> list:
    return [_q(x) for x in v]


class _F17(float):
    """Marker for floats that must be printed with 17 significant digits."""


def _c17(z: complex) -> dict:
    return {"re": _F17(z.real), "im": _F17(z.imag)}


# json.dumps of the placeholder "\x00f<k>\x00" that enc puts in for float k
_FLOAT_TOKEN = re.compile(r'"\\u0000f(\d+)\\u0000"')


def dump_json(doc) -> str:
    """json.dumps with the package float policy, trailing newline included."""
    floats = []

    def enc(o):
        if isinstance(o, float):
            floats.append(format(float(o), ".17g"))
            return f"\x00f{len(floats) - 1}\x00"
        if isinstance(o, dict):
            return {k: enc(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [enc(v) for v in o]
        return o

    text = json.dumps(enc(doc), indent=2)
    return _FLOAT_TOKEN.sub(lambda t: floats[int(t.group(1))], text) + "\n"


def _coeff_doc(c) -> dict:
    if not isinstance(c, QC):
        raise InputError("cannot serialize symbolic coefficients")
    return {"re": _q(c.re), "im": _q(c.im)}


def _model_doc(m) -> dict:
    return {
        "dim": m.dim,
        "facets": [
            {"normal": list(f.normal), "label": f.label, "offset": _q(f.offset)}
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
            "residual": _F17(c.residual),
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


def _load_model(args):
    if (args.preset is None) == (args.model is None):
        raise InputError("exactly one of --preset and --model is required")
    if args.preset is not None:
        return build_model(args.preset)
    try:
        text = Path(args.model).read_text()
    except OSError as e:
        raise InputError(f"cannot read model file: {e}")
    try:
        return build_model(json.loads(text))
    except json.JSONDecodeError as e:
        raise InputError(f"model file is not valid JSON: {e}")


def _load_bulk(path: str | None, m) -> BulkParam:
    if path is None:
        return BulkParam.zero()
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as e:
        raise InputError(f"cannot read bulk file: {e}")
    except json.JSONDecodeError as e:
        raise InputError(f"bulk file is not valid JSON: {e}")
    if not isinstance(doc, dict) or not isinstance(doc.get("sectors"), list):
        raise InputError('bulk file must be an object with a "sectors" list')
    if not isinstance(doc.get("divisors", []), list):
        raise InputError('bulk file "divisors" must be a list')
    known = {s.nu for s in enumerate_box(m)}
    entries = []
    for k, row in enumerate(doc["sectors"]):
        where = f"sectors[{k}]"
        nu = _bulk_field(row, where, "nu", lambda x: tuple(int(v) for v in x))
        if nu not in known:
            raise InputError(f"bulk {where}.nu: {nu} is not a twisted sector of this model")
        entries.append((nu, *_bulk_term(row, where)))
    # divisor rows change no leading-order output; they are checked, not kept
    for k, row in enumerate(doc.get("divisors", [])):
        where = f"divisors[{k}]"
        facet = _bulk_field(row, where, "facet", int)
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
                "iota": _q(s.iota),
                "cone": s.cone_index,
                "support": list(s.support),
                "coeffs": {
                    str(j): _q(q) for j, q in zip(s.facet_indices, s.coeffs) if q
                },
                "ell": {"gradient": _qvec(g), "constant": _q(c)},
            }
        )
    return {"command": "box", "model": _model_doc(m), "sectors": sectors}


def cmd_discs(m, u) -> dict:
    classes = []
    descriptors = basic_smooth_discs(m) + basic_orbi_discs(m)
    for cls, d in zip(h2_generators(m), descriptors):
        row = {
            "kind": cls.kind,
            "index": cls.index,
            "boundary": list(cls.boundary),
            "maslov_desingularized": cls.mu_de,
            "maslov_cw": _q(cls.mu_cw),
            "virtual_dim": virtual_dimension(m, d),
            "area": {"gradient": _qvec(cls.area_gradient), "constant": _q(cls.area_constant)},
        }
        if u is not None:
            row["area_at_u"] = _q(cls.area_at(u))
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
                "t_exponent": _q(t.t_exponent),
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
        "t_value": _F17(t_value),
        "count": len(pts),
        "points": [
            {"y": [_c17(z) for z in p.y], "residual": _F17(p.residual)} for p in pts
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
                "energy": None if lv.energy is None else _q(lv.energy),
                "poly": render_poly(lv.poly),
                "own_vars": list(lv.var_indices),
                "equations": [render_poly(e) for e in lv.equations],
            }
            for lv in lts.levels
        ],
        "verdict": _verdict_doc(verdict),
    }


def _geometry_doc(piece, r) -> dict | None:
    if r.model.dim == 1:
        lo, lo_c, hi, hi_c = _piece_interval(piece, r.closure)
        return {
            "type": "interval",
            "lo": _q(lo),
            "lo_closed": lo_c,
            "hi": _q(hi),
            "hi_closed": hi_c,
        }
    if r.model.dim == 2:
        kind, data = piece_geometry(piece, 2)
        pts = [data[0]] if kind == "point" else list(data)
        return {"type": kind, "points": [_qvec(p) for p in pts]}
    return None


def cmd_region(m, args, region=None) -> dict:
    r = region
    if r is None:
        r = nondisplaceable_region(
            m, max_levels=args.max_levels, closure=args.closure, seed=args.seed
        )
    pieces = []
    for p in r.pieces:
        pieces.append(
            {
                "serial": p.scenario.serial,
                "scenario": p.scenario.describe(),
                "levels": [[list(tag) for tag in tags] for tags in p.scenario.levels],
                "excluded": [list(tag) for tag in p.scenario.excluded],
                "witness": _qvec(p.polyhedron.witness),
                "geometry": _geometry_doc(p, r),
                "verdict": _verdict_doc(p.verdict),
            }
        )
    doc = {
        "command": "region",
        "model": _model_doc(m),
        "max_levels": r.max_levels,
        "closure": r.closure,
        "piece_count": len(pieces),
        "pieces": pieces,
    }
    if m.dim == 1:
        doc["interval_union"] = [
            {"lo": _q(lo), "lo_closed": lc, "hi": _q(hi), "hi_closed": hc}
            for lo, lc, hi, hc in interval_union(r)
        ]
    if args.u is not None:
        doc["query"] = _query_doc(r, _parse_u(args.u, m.dim))
    return doc


def _query_doc(r, u) -> dict:
    rep = query_point(r, u)
    return {
        "u": _qvec(rep.u),
        "interior": rep.interior,
        "member": rep.member,
        "pieces": [p.scenario.serial for p in rep.matches],
    }


def _check_grid(n: int) -> None:
    if n < 1:
        raise InputError("--grid must be a positive integer")


def region_grid_csv(r, n: int) -> str:
    """CSV membership samples on an n-per-axis grid over the vertex box."""
    _check_grid(n)
    m = r.model
    lo = [min(v[k] for v in m.vertices) for k in range(m.dim)]
    hi = [max(v[k] for v in m.vertices) for k in range(m.dim)]
    axes = [
        [lo[k] + Fraction(i + 1, n + 1) * (hi[k] - lo[k]) for i in range(n)]
        for k in range(m.dim)
    ]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow([f"u{k + 1}" for k in range(m.dim)] + ["member"])

    def rec(prefix):
        k = len(prefix)
        if k == m.dim:
            w.writerow(_qvec(prefix) + [str(query_point(r, prefix).member).lower()])
            return
        for x in axes[k]:
            rec(prefix + (x,))

    rec(())
    return buf.getvalue()


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

    def to_px(p):
        x = 40 + float((Fraction(p[0]) - lo_x) * scale)
        y = 760 - float((Fraction(p[1]) - lo_y) * scale)
        return f"{x:.2f},{y:.2f}"

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
        a, b = to_px((verts[0], 0)), to_px((verts[-1], 0))
        for p in r.pieces:
            lo, _, hi, _ = _piece_interval(p, True)
            c = _color(p.scenario.serial)
            if lo == hi:
                out.append(f'<circle cx="{to_px((lo, 0)).split(",")[0]}" cy="400" r="7" fill="{c}"/>')
            else:
                out.append(
                    f'<line x1="{to_px((lo, 0)).split(",")[0]}" y1="400" '
                    f'x2="{to_px((hi, 0)).split(",")[0]}" y2="400" '
                    f'stroke="{c}" stroke-width="10" stroke-opacity="0.6"/>'
                )
        out.append(
            f'<line x1="{a.split(",")[0]}" y1="400" x2="{b.split(",")[0]}" y2="400" '
            'stroke="black" stroke-width="2"/>'
        )
    else:
        verts = list(m.vertices)
        to_px = _svg_frame([v[0] for v in verts], [v[1] for v in verts])
        cx = sum(v[0] for v in verts) / len(verts)
        cy = sum(v[1] for v in verts) / len(verts)
        import math

        ordered = sorted(
            verts, key=lambda v: math.atan2(float(v[1] - cy), float(v[0] - cx))
        )
        for p in r.pieces:
            kind, data = piece_geometry(p, 2)
            c = _color(p.scenario.serial)
            if kind == "polygon":
                pts = " ".join(to_px(q) for q in data)
                out.append(f'<polygon points="{pts}" fill="{c}" fill-opacity="0.35" stroke="{c}"/>')
            elif kind == "segment":
                (x1, y1), (x2, y2) = (to_px(q).split(",") for q in data)
                out.append(
                    f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                    f'stroke="{c}" stroke-width="4" stroke-opacity="0.8"/>'
                )
            else:
                x, y = to_px(data[0]).split(",")
                out.append(f'<circle cx="{x}" cy="{y}" r="6" fill="{c}"/>')
        boundary = " ".join(to_px(v) for v in ordered)
        out.append(f'<polygon points="{boundary}" fill="none" stroke="black" stroke-width="2"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# reproduction suite


class _NS(argparse.Namespace):
    """Defaults mirroring the region subcommand for internal reuse."""

    max_levels = 2
    closure = True
    seed = 0
    u = None


def _region_doc(m, seed, queries=()):
    r = nondisplaceable_region(m, seed=seed)
    ns = _NS()
    ns.seed = seed
    doc = cmd_region(m, ns, region=r)
    return doc, [_query_doc(r, u) for u in queries]


def _rep_teardrop_a3(seed) -> dict:
    m = build_model("teardrop:3")
    region, _ = _region_doc(m, seed)
    return {
        "name": "teardrop-a3",
        "box": cmd_box(m),
        "critical_at_center": cmd_critical(m, (Fraction(0),), BulkParam.zero(), 0.5, seed),
        "region": region,
    }


def _rep_wp135_box(seed) -> dict:
    return {
        "name": "wp-1-3-5-box",
        "box": cmd_box(build_model("wp:1,3,5")),
        "discs": cmd_discs(build_model("wp:1,3,5"), None),
    }


def _rep_p1aa_a2(seed) -> dict:
    region, queries = _region_doc(
        build_model("wp:1,2,2"),
        seed,
        [(Fraction(-1, 12), Fraction(-1, 12)), (Fraction(-1, 4), Fraction(-1, 4))],
    )
    return {"name": "p1aa-a2", "region": region, "queries": queries}


def _rep_p11a_a3(seed) -> dict:
    region, queries = _region_doc(
        build_model("wp:1,1,3"), seed, [(Fraction(-1, 2), Fraction(1, 3))]
    )
    return {"name": "p11a-a3", "region": region, "queries": queries}


def _rep_p135_region(seed) -> dict:
    region, queries = _region_doc(
        build_model("wp:1,3,5"),
        seed,
        [
            (Fraction(1, 20), Fraction(0)),
            (Fraction(-1, 10), Fraction(1, 100)),
            (Fraction(0), Fraction(-1, 20)),
            (Fraction(1, 2), Fraction(1, 10)),
            (Fraction(3, 20), Fraction(1, 10)),
        ],
    )
    return {"name": "p135-region", "region": region, "queries": queries}


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
        "name": "allnon-demo",
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
    "p1aa-a2": _rep_p1aa_a2,
    "p11a-a3": _rep_p11a_a3,
    "p135-region": _rep_p135_region,
    "allnon-demo": _rep_allnon_demo,
}


def run_reproduce(name: str, write: bool = False, seed: int = 0) -> tuple:
    """(generated text, matches committed text).  write refreshes the file."""
    if name not in REPRODUCE:
        raise InputError(f"unknown reproduction {name!r}; known: {', '.join(REPRODUCE)}")
    text = dump_json(REPRODUCE[name](seed))
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


def _build_parser() -> _Parser:
    p = _Parser(prog="orbifloer", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="subcommand", required=True)

    model_flags = argparse.ArgumentParser(add_help=False)
    model_flags.add_argument("--preset", help="model preset, e.g. wp:1,3,5 or teardrop:3")
    model_flags.add_argument("--model", help="path to a model JSON file")

    fiber_flags = argparse.ArgumentParser(add_help=False)
    fiber_flags.add_argument("--u", help='interior fiber point "p/q,p/q"')
    fiber_flags.add_argument("--bulk", help="path to a bulk deformation JSON file")

    seed_flags = argparse.ArgumentParser(add_help=False)
    seed_flags.add_argument("--seed", type=int, default=0)

    sub.add_parser("box", parents=[model_flags])
    sub.add_parser("discs", parents=[model_flags, fiber_flags])
    sub.add_parser("potential", parents=[model_flags, fiber_flags])

    crit = sub.add_parser("critical", parents=[model_flags, fiber_flags, seed_flags])
    crit.add_argument("--t-value", type=float, default=0.5)

    sub.add_parser("lte", parents=[model_flags, fiber_flags, seed_flags])

    reg = sub.add_parser("region", parents=[model_flags, seed_flags])
    reg.add_argument("--u", help="query point to test for membership")
    reg.add_argument("--max-levels", type=int, default=2)
    reg.add_argument("--closure", action=argparse.BooleanOptionalAction, default=True)
    reg.add_argument("--svg", help="write an 800x800 picture to this path")
    reg.add_argument("--grid", type=int, help="emit a membership CSV on an NxN grid")

    cone = sub.add_parser("conebasis")
    cone.add_argument("--cone", required=True, help='generators "a,b;c,d"')

    rep = sub.add_parser("reproduce", parents=[seed_flags])
    rep.add_argument("name", nargs="?", help=f"one of: {', '.join(REPRODUCE)}")
    rep.add_argument("--all", action="store_true", help="run the whole suite")
    rep.add_argument("--write", action="store_true", help="refresh the committed expectation")
    return p


def _dispatch(args) -> int:
    if args.subcommand == "conebasis":
        sys.stdout.write(dump_json(cmd_conebasis(args.cone)))
        return 0
    if args.subcommand == "reproduce":
        names = list(REPRODUCE) if args.all else ([args.name] if args.name else [])
        if not names:
            raise InputError("reproduce needs a name or --all")
        failed = []
        for name in names:
            text, ok = run_reproduce(name, write=args.write, seed=args.seed)
            sys.stdout.write(text)
            if not ok:
                failed.append(name)
        if failed:
            _fail(3, "ReproduceMismatch", f"output differs from committed: {', '.join(failed)}")
        return 0

    m = _load_model(args)
    if args.subcommand == "box":
        sys.stdout.write(dump_json(cmd_box(m)))
        return 0
    if args.subcommand == "discs":
        u = None if args.u is None else _parse_u(args.u, m.dim)
        sys.stdout.write(dump_json(cmd_discs(m, u)))
        return 0

    if args.subcommand == "region":
        _check_region_flags(m, args)
        r = nondisplaceable_region(
            m, max_levels=args.max_levels, closure=args.closure, seed=args.seed
        )
        if args.svg is not None:
            try:
                Path(args.svg).write_text(render_svg(r))
            except OSError as e:
                raise InputError(f"cannot write --svg file: {e}") from None
        if args.grid is not None:
            sys.stdout.write(region_grid_csv(r, args.grid))
        else:
            sys.stdout.write(dump_json(cmd_region(m, args, region=r)))
        return 0

    # the remaining subcommands are fiber-local
    if args.u is None:
        raise InputError(f"{args.subcommand} requires --u")
    u = _parse_u(args.u, m.dim)
    m.require_interior(u)
    bp = _load_bulk(args.bulk, m)
    if args.subcommand == "potential":
        sys.stdout.write(dump_json(cmd_potential(m, u, bp)))
    elif args.subcommand == "critical":
        sys.stdout.write(dump_json(cmd_critical(m, u, bp, args.t_value, args.seed)))
    elif args.subcommand == "lte":
        sys.stdout.write(dump_json(cmd_lte(m, u, bp, args.seed)))
    return 0


def _check_region_flags(m, args) -> None:
    """InputError for a bad --u, --grid or --svg, before the region is built."""
    if args.u is not None:
        _parse_u(args.u, m.dim)
    if args.grid is not None:
        _check_grid(args.grid)
    if args.svg is not None and not Path(args.svg).parent.is_dir():
        raise InputError(f"--svg {args.svg!r} is not in an existing directory")


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
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_merge_dash_values(list(argv)))
    try:
        return _dispatch(args)
    except SystemExit:
        raise
    except _VALIDATION_ERRORS as e:
        _fail(2, type(e).__name__, str(e))
    except OrbifloerError as e:
        _fail(1, type(e).__name__, str(e))
    except Exception as e:  # pragma: no cover - defensive
        _fail(1, type(e).__name__, str(e))


if __name__ == "__main__":
    sys.exit(main())
