"""Correctness gate: every output of a pass is checked before it counts.

The checks recompute what they can from public functions and the committed
expectations, never from the objects the timed section produced:

* reproduce output is byte-compared with the committed file;
* every certified region piece is re-verified: its witness must satisfy the
  constraints rebuilt from its scenario, and its certificate must solve the
  leading term system rebuilt by ``region.scenario_lts`` to a residual
  below 1e-10 (``LaurentPoly.eval_complex``);
* membership answers are checked against the rebuilt piece constraints;
* fiber requests are checked against a fresh potential or leading term
  system at the same point (``potential.critical_residual`` for critical
  points).

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction

from orbifloer.ltsolver import build_lts, stratify
from orbifloer.potential import (
    BulkParam,
    bulk_leading_potential,
    critical_residual,
    smooth_leading_potential,
)
from orbifloer.region import Scenario, scenario_constraints, scenario_lts
from orbifloer.series import QC
from orbifloer.stacky import build_model, enumerate_box, sector_ell

RESIDUAL_TOL = 1e-10


def _complex(z) -> complex:
    return complex(z["re"], z["im"])


def certificate_residual(lts, y, symbols: dict) -> float:
    """Smallest residual of the system at y over relabelings of the symbols.

    A verdict shared through the signature cache carries the symbol names of
    the scenario that was solved first; the systems agree up to a renaming
    of their free coefficients, so any assignment of the certificate's
    values to this system's symbols that solves it is a valid witness.
    """
    if len(symbols) != len(lts.symbols):
        return math.inf
    if set(symbols) == set(lts.symbols):
        orders = [tuple(symbols[n] for n in lts.symbols)]
    else:
        orders = []
    orders = itertools.chain(orders, itertools.permutations(symbols.values()))
    best = math.inf
    for values in orders:
        env = dict(zip(lts.symbols, values))
        worst = 0.0
        for lv in lts.levels:
            for i, eq in zip(lv.var_indices, lv.equations):
                worst = max(worst, abs(y[i] * eq.eval_complex(y, 1.0, env)))
        best = min(best, worst)
        if best < RESIDUAL_TOL:
            break
    return best


def reproduce_problems(name: str, text: str, reproduce_dir) -> list:
    committed = (reproduce_dir / f"{name}.json").read_text()
    if text == committed:
        return []
    at = next((k for k, (a, b) in enumerate(zip(text, committed)) if a != b), min(len(text), len(committed)))
    return [f"reproduce {name}: output differs from committed file at character {at}"]


def _model_from_doc(doc):
    return build_model({"dim": doc["dim"], "facets": doc["facets"]})


def _ell(f, u) -> Fraction:
    # ell_j(u) = <u, label * normal> - offset, computed here from the facet
    return sum(Fraction(x) * f.label * a for x, a in zip(u, f.normal)) - f.offset


def _interior(m, u) -> bool:
    return all(_ell(f, u) > 0 for f in m.facets)


class RegionCheck:
    """Re-verifies a region document and answers membership independently."""

    def __init__(self, doc: dict):
        self.model = _model_from_doc(doc["model"])
        self.closure = doc["closure"]
        self.constraints: dict = {}
        self.problems: list = []
        if doc["piece_count"] != len(doc["pieces"]):
            self.problems.append("region: piece_count disagrees with the piece list")
        for piece in doc["pieces"]:
            self._check_piece(piece)

    def _check_piece(self, piece: dict):
        serial = piece["serial"]
        levels = tuple(tuple((k, int(i)) for k, i in tags) for tags in piece["levels"])
        excluded = tuple((k, int(i)) for k, i in piece["excluded"])
        scenario = Scenario(serial, levels, excluded, ())
        cons = scenario_constraints(self.model, scenario)
        self.constraints[serial] = cons
        w = tuple(Fraction(x) for x in piece["witness"])
        broken = [c.label for c in cons if not c.holds(w)]
        if broken:
            self.problems.append(f"piece {serial}: witness violates {broken[0]}")
        verdict = piece["verdict"]
        cert = verdict["certificate"]
        if verdict["status"] != "SolvableCertified" or cert is None:
            self.problems.append(f"piece {serial}: verdict is {verdict['status']}, not certified")
            return
        y = tuple(_complex(z) for z in cert["y"])
        symbols = {k: _complex(z) for k, z in cert["symbols"].items()}
        res = certificate_residual(scenario_lts(self.model, scenario), y, symbols)
        if not res < RESIDUAL_TOL:
            self.problems.append(f"piece {serial}: recomputed certificate residual {res:.3g}")

    def _contains(self, serial, u) -> bool:
        return all(c.holds(u, closed=self.closure) for c in self.constraints[serial])

    def query_problems(self, rep, u) -> list:
        out = []
        interior = _interior(self.model, u)
        if rep.interior != interior:
            out.append(f"query {u}: interior flag {rep.interior}, expected {interior}")
        serials = [p.scenario.serial for p in rep.matches]
        if rep.member != bool(serials):
            out.append(f"query {u}: member flag disagrees with its matches")
        for s in serials:
            if s not in self.constraints or not self._contains(s, u):
                out.append(f"query {u}: piece {s} does not contain the point")
        if interior and not serials:
            # a non-member answer is checked against every piece
            missed = [s for s in self.constraints if self._contains(s, u)]
            if missed:
                out.append(f"query {u}: piece {missed[0]} contains the point")
        return out


def query_doc(rep) -> dict:
    """The CLI's query document shape, built from a query report."""
    return {
        "u": [str(Fraction(x)) for x in rep.u],
        "interior": rep.interior,
        "member": rep.member,
        "pieces": [p.scenario.serial for p in rep.matches],
    }


def square_digest_problems(doc: dict, square_queries: list, committed: dict) -> list:
    """region-square against the digest committed in allnon-demo.json."""
    want = committed["square"]
    out = []
    if doc["piece_count"] != want["piece_count"]:
        out.append(f"square: {doc['piece_count']} pieces, committed {want['piece_count']}")
    exact = sum(1 for p in doc["pieces"] if (p["verdict"]["certificate"] or {}).get("exact"))
    if exact != want["exact_certificates"]:
        out.append(f"square: {exact} exact certificates, committed {want['exact_certificates']}")
    if square_queries != committed["square_queries"]:
        out.append("square: committed membership queries answered differently")
    return out


def _bulk(m, entries) -> BulkParam:
    box = enumerate_box(m)
    return BulkParam.of((box[i].nu, QC.of(Fraction(c)), Fraction(lam)) for i, c, lam in entries)


def _lte_problems(m, u, req, doc) -> list:
    lts = build_lts(stratify(m, u, _bulk(m, req["bulk"])))
    verdict = doc["verdict"]
    if len(doc["levels"]) != len(lts.levels):
        return [f"{len(doc['levels'])} levels, expected {len(lts.levels)}"]
    if verdict["status"] == "SolvableCertified":
        cert = verdict["certificate"]
        y = tuple(_complex(z) for z in cert["y"])
        symbols = {k: _complex(z) for k, z in cert["symbols"].items()}
        res = certificate_residual(lts, y, symbols)
        if not res < RESIDUAL_TOL:
            return [f"recomputed certificate residual {res:.3g}"]
    elif verdict["status"] == "UnsolvableProven":
        level = int(re.search(r"level (\d+)", verdict["proof"]).group(1))
        if len(lts.levels[level - 1].poly.terms()) != 1:
            return [f"proof cites level {level}, which is not a monomial"]
    return []


def _critical_problems(m, u, req, doc) -> list:
    if req["bulk"]:
        pot = bulk_leading_potential(m, u, _bulk(m, req["bulk"]))
    else:
        pot = smooth_leading_potential(m, u)
    if doc["count"] != len(doc["points"]):
        return ["count disagrees with the point list"]
    for p in doc["points"]:
        res = critical_residual(pot, [_complex(z) for z in p["y"]], 0.5)
        if not res < RESIDUAL_TOL:
            return [f"recomputed critical residual {res:.3g}"]
    return []


def _potential_problems(m, u, req, doc) -> list:
    box = enumerate_box(m)
    want = [_ell(f, u) for f in m.facets]
    want += [Fraction(lam) + sector_ell(m, box[i], u) for i, _, lam in req["bulk"]]
    got = [Fraction(t["t_exponent"]) for t in doc["terms"]]
    return [] if got == want else [f"term energies {got} differ from {want}"]


def _discs_problems(m, u, req, doc) -> list:
    for c in doc["classes"]:
        area = Fraction(c["area_at_u"])
        g = [Fraction(x) for x in c["area"]["gradient"]]
        if area != sum(a * x for a, x in zip(g, u)) + Fraction(c["area"]["constant"]) or area <= 0:
            return [f"{c['kind']} {c['index']} area {area} is wrong"]
    return []


FIBER_CHECKS = {
    "lte": _lte_problems,
    "critical": _critical_problems,
    "potential": _potential_problems,
    "discs": _discs_problems,
}


def fiber_problems(req: dict, text: str) -> list:
    """Check one fiber request's document against a fresh computation."""
    m = build_model(req["preset"])
    u = tuple(Fraction(x) for x in req["u"].split(","))
    where = f"{req['kind']} {req['preset']} at {req['u']}"
    return [f"{where}: {msg}" for msg in FIBER_CHECKS[req["kind"]](m, u, req, json.loads(text))]
