"""Command-line front end: run scenarios, print result tables.

Each subcommand is one entry of ``COMMANDS``: its runner, its help and
its own flags beside the ``COMMON`` ones; ``paper-suite`` runs the
``CRITERIA`` that ``tests/test_acceptance.py`` also runs. Every run
emits rows with the fixed column order

    scenario, family, protocol, fidelity, bound, expected, status, ms

as an aligned table, CSV, or JSON, floats at 12 significant digits. The
exit code is 0 iff every row passes.

A scenario JSON file holds the flags of the subcommand's ``COMMANDS``
entry and of ``COMMON`` as fields named without their dashes, except
that ``--scenario`` names the file, ``--label`` sets ``scenario`` and
``--family`` sets ``bounds_family`` (``FIELD_OF``); a ``family`` field
must match the subcommand. Flags override file fields:

    {"scenario": "my-run", "family": "ghz", "n": 4, "sizes": [2, 2], "format": "csv"}

A flag arrives as text, a file field as a JSON value; ``_field`` converts
and checks both, and the default seed from LOCCE_SEED, so a bad value
gets the same message from either. A default applies only when a field
is absent or null; a given value, zero included, is checked, and an
integer field refuses a fraction or a boolean.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .tensor import StateVector, apply_to_batch, bell_vectors, maximally_entangled
from .families import (
    Ensemble,
    Graph,
    PartyLayout,
    bell_basis,
    coarsen,
    ghz_basis,
    ghz_state,
    graph_state_basis,
    lattice_basis,
    parametric_basis,
    single_qubit_layout,
)
from .fidelity import (
    average_fidelity,
    computational_povm,
    entropy_bound_check,
    optimal_guess,
    separable_bound,
)
from .protocols import JointProblem, flatten_to_povm, relabel_parties, run_protocol
from .oneway import (
    ResourceSpectrum,
    _restart_bytes,
    feasibility_search,
    orthogonality_residual,
    teleportation_certificate,
    to_matrix_rep,
)
from .zoo import (
    computational_protocol,
    ghz_subset_bell_protocol,
    ghz_subset_family,
    graph_decode_protocol,
    graph_outcome_table,
    lattice_partial_teleport,
    partitioned_ghz_protocol,
    sequential_bell_protocol,
    standard_zoo,
    teleportation_protocol,
    vidal_then_fallback,
)

COLUMNS = ("scenario", "family", "protocol", "fidelity", "bound", "expected", "status", "ms")
ATOL = 1e-9
MAX_ROW_BYTES = 1 << 30  # largest member-row or one-way restart array a run may need

NAMED_GRAPHS = {
    "path2": lambda: Graph.path(2),
    "path3": lambda: Graph.path(3),
    "triangle": lambda: Graph.complete(3),
    "k3": lambda: Graph.complete(3),
    "star4": lambda: Graph.star(4),
    "cycle4": lambda: Graph.cycle(4),
}


def fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


@dataclass
class Row:
    scenario: str
    family: str
    protocol: str
    fidelity: str
    bound: str
    expected: str
    status: str
    ms: float

    def cells(self, timing: bool) -> tuple[str, ...]:
        ms = fmt(round(self.ms, 3)) if timing else "0"
        return (self.scenario, self.family, self.protocol, self.fidelity,
                self.bound, self.expected, self.status, ms)


def _row(scenario, family, protocol, value, bound, expected, ok, t0) -> Row:
    return Row(
        scenario=scenario, family=family, protocol=protocol,
        fidelity=fmt(value) if value is not None else "-",
        bound=bound, expected=expected,
        status="pass" if ok else "fail",
        ms=(time.perf_counter() - t0) * 1000.0,
    )


def emit(rows: list[Row], fmt_name: str, timing: bool = True) -> str:
    if fmt_name == "json":
        payload = [dict(zip(COLUMNS, r.cells(timing))) for r in rows]
        return json.dumps(payload, indent=2)
    table = [COLUMNS] + [r.cells(timing) for r in rows]
    if fmt_name == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(table)
        return buf.getvalue()[:-1]
    widths = [max(len(row[i]) for row in table) for i in range(len(COLUMNS))]
    lines = []
    for r, cells in enumerate(table):
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip())
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


class ScenarioError(Exception):
    pass


_REQUIRED = object()


def _field(params: dict, key: str, kind, family: str, default=_REQUIRED,
           minimum=None):
    """Field ``key`` converted by ``kind``; ``default`` only if absent or None."""
    value = params.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ScenarioError(f"{family}: missing required field '{key}'")
        return default
    try:
        value = kind(value)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{family}: bad value for field '{key}': {exc}") from exc
    if minimum is not None and value < minimum:
        raise ScenarioError(
            f"{family}: bad value for field '{key}': {value} is below {minimum}"
        )
    return value


def _int(value) -> int:
    """An integer field: a bool or a non-integral number is refused, not truncated."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _float(value) -> float:
    """A real field: a bool is refused, not read as 0 or 1."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _choice(*choices: str):
    """A field that must be one of ``choices``."""
    def convert(value) -> str:
        if str(value) not in choices:
            raise ValueError(repr(str(value)))
        return str(value)
    return convert


def _list(kind):
    """A list of ``kind``: comma-separated text (empty entries skipped) or a JSON list."""
    return lambda value: tuple(kind(v) for v in (
        [s for s in value.split(",") if s] if isinstance(value, str) else value))


def _parse_graph(params: dict) -> Graph:
    name = params.get("graph")
    if name is not None:
        for extra in ("edges", "vertices"):
            if params.get(extra) is not None:
                raise ScenarioError(f"graph: bad value for field '{extra}': "
                                    "not allowed beside field 'graph'")
        key = str(name).lower()
        if key not in NAMED_GRAPHS:
            raise ScenarioError(f"graph: bad value for field 'graph': unknown named graph "
                                f"'{name}' (choices: {sorted(NAMED_GRAPHS)})")
        return NAMED_GRAPHS[key]()
    edges_spec = params.get("edges")
    if not edges_spec:
        raise ScenarioError("graph: need field 'graph' (named) or 'edges'")
    n = _field(params, "vertices", _int, "graph", None, minimum=2)
    try:
        edges = []
        for part in str(edges_spec).split(","):
            a, b = part.split("-")
            edges.append((int(a), int(b)))
        n = n if n is not None else max(max(e) for e in edges) + 1
        return Graph(n, frozenset(edges))
    except (ValueError, KeyError) as exc:
        raise ScenarioError(f"graph: bad value for field 'edges': {exc}") from exc


def _check_size(family: str, field: str, members_log2: int, dim_log2: int) -> None:
    """Refuse, before anything is built, a run whose member rows would need
    more than MAX_ROW_BYTES. Both counts are powers of two and come in as
    exponents, so a huge field value allocates nothing here either."""
    need_log2 = members_log2 + dim_log2 + 4  # 16 B per complex amplitude
    if need_log2 > 0 and 1 << min(need_log2, 64) > MAX_ROW_BYTES:
        _refuse(family, field, f"2^{members_log2} members of joint dimension 2^{dim_log2} "
                               f"need 2^{need_log2} B")


def _refuse(family: str, field: str, need: str) -> None:
    raise ScenarioError(
        f"{family}: bad value for field {field}: {need}, above the limit of {MAX_ROW_BYTES} B"
    )


# -- family runners ----------------------------------------------------------

def run_ghz(params: dict) -> list[Row]:
    n = _field(params, "n", _int, "ghz", minimum=2)
    _check_size("ghz", "'n'", n, 2 * n)  # n unknown qubits and an n-qubit resource
    sizes = _field(params, "sizes", _list(_int), "ghz", (1,) * n)
    if len(sizes) < 2 or any(s < 1 for s in sizes) or sum(sizes) != n:
        raise ScenarioError(f"ghz: bad value for field 'sizes': party sizes {sizes} "
                            f"inconsistent with {n} qubits")
    label = _field(params, "scenario", str, "ghz",
                   f"ghz-n{n}-sizes{'.'.join(map(str, sizes))}")
    t0 = time.perf_counter()
    if all(s == 1 for s in sizes):
        problem, tree = sequential_bell_protocol(n)
        proto = "sequential-bell"
    else:
        problem, tree = partitioned_ghz_protocol(n, sizes)
        proto = "partitioned-ghz"
    res = run_protocol(problem, tree)
    # the first round leaves all 2^N members, each later round halves
    # them until four remain, and the last round pins the member
    sched_ok = all(
        res.survivors_after_measurement_round(j) == (2 ** (n - j + 1),)
        for j in range(1, n)
    ) and res.survivors_after_measurement_round(n) == (1,)
    return [_row(label, "ghz", proto, res.fidelity, "n/a (perfect)", fmt(1.0),
                 abs(res.fidelity - 1.0) <= ATOL and sched_ok, t0)]


def run_graph(params: dict) -> list[Row]:
    g = _parse_graph(params)
    field = next(f"'{k}'" for k in ("graph", "vertices", "edges") if params.get(k) is not None)
    _check_size("graph", field, g.vertex_count, 2 * g.vertex_count)
    label = _field(params, "scenario", str, "graph",
                   _field(params, "graph", str, "graph", f"graph-{g.vertex_count}v"))
    t0 = time.perf_counter()
    problem, tree = graph_decode_protocol(g)
    result = run_protocol(problem, tree)
    table = graph_outcome_table(g)
    n = g.vertex_count
    decoded = [b.guess_index for b in result.branches]
    ens, _resource, stabs = graph_state_basis(g)
    protocol_ok = (
        len(decoded) == 4 ** n
        and all(table[tuple(s.outcome for s in b.steps)] == b.guess_index
                for b in result.branches)
        and np.all(np.bincount(decoded, minlength=2 ** n) == 2 ** n)
        # member x is the (-1)^(bit a of x) eigenvector of stabilizer a
        and all(np.max(np.abs(stab.entries @ st.amps
                              - (-1) ** (x >> (n - 1 - a) & 1) * st.amps)) < ATOL
                for x, st in enumerate(ens.states) for a, stab in enumerate(stabs))
    )
    f = result.fidelity
    return [_row(label, "graph", "bell-orbit-decode", f, "n/a (perfect)",
                 fmt(1.0), abs(f - 1.0) <= ATOL and protocol_ok, t0)]


def run_lattice(params: dict) -> list[Row]:
    n = _field(params, "n", _int, "lattice", minimum=1)
    m = _field(params, "m", _int, "lattice")
    if not 1 <= m <= n:
        raise ScenarioError(f"lattice: bad value for field 'm': need 1 <= m <= n, "
                            f"got m={m}, n={n}")
    _check_size("lattice", "'n' (with 'm')", 2 * n, 2 * (n + m))
    label = _field(params, "scenario", str, "lattice", f"lattice-n{n}-m{m}")
    t0 = time.perf_counter()
    bound = separable_bound(lattice_basis(n))  # on the resource-free problem
    problem, tree = lattice_partial_teleport(n, m)
    f = run_protocol(problem, tree).fidelity
    expected = 1.0 / 2 ** (n - m)
    return [_row(label, "lattice", f"partial-teleport-m{m}", f, fmt(bound),
                 fmt(expected), abs(f - expected) <= ATOL, t0)]


def run_parametric(params: dict) -> list[Row]:
    alpha = _field(params, "alpha", _float, "parametric")
    gamma = _field(params, "gamma", _float, "parametric")
    label = _field(params, "scenario", str, "parametric",
                   f"parametric-a{fmt(alpha)}-g{fmt(gamma)}")
    rows = []
    t0 = time.perf_counter()
    ens = parametric_basis(alpha, gamma)
    expected = (alpha ** 2 + gamma ** 2) / 2
    _, f_local = optimal_guess(ens, computational_povm(ens.dims))
    rows.append(_row(label, "parametric", "computational+opt-guess", f_local,
                     "n/a", fmt(expected), abs(f_local - expected) <= ATOL, t0))
    t0 = time.perf_counter()
    problem, tree = teleportation_protocol(ens, "A", "B")
    f_tel = run_protocol(problem, tree).fidelity
    rows.append(_row(label, "parametric", "teleportation", f_tel, "n/a (perfect)",
                     fmt(1.0), abs(f_tel - 1.0) <= ATOL, t0))
    return rows


def run_example4(params: dict) -> list[Row]:
    label = _field(params, "scenario", str, "example4", "example4")
    rows = []
    t0 = time.perf_counter()
    problem, tree = ghz_subset_bell_protocol()
    f = run_protocol(problem, tree).fidelity
    # A measuring |+> maps member i to Bell state i on the unknown B, C pair
    plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
    bell = bell_vectors()
    mapping_ok = True
    joint = problem.joint
    for i, (_, member) in enumerate(joint.members):
        post = apply_to_batch(np.outer(plus, plus.conj()), (2,), member.amps, joint.dims)
        post = post / np.linalg.norm(post)
        expected = np.kron(np.kron(bell[0], plus), bell[i])
        mapping_ok &= abs(abs(np.vdot(expected, post)) - 1.0) < ATOL
    rows.append(_row(label, "example4", "plusminus+bell-pair", f, "n/a (perfect)",
                     fmt(1.0), abs(f - 1.0) <= ATOL and mapping_ok, t0))
    t0 = time.perf_counter()
    report = entropy_bound_check(
        StateVector((2, 2), maximally_entangled(2)),
        PartyLayout((("B", (0,)), ("C", (1,)))),
        ghz_subset_family(),
    )
    rows.append(_row(label, "example4", "entropy-bound", None,
                     "not-applicable" if not report.applicable else "applies",
                     "pass", report.passed, t0))
    return rows


def run_oneway(params: dict) -> list[Row]:
    lambdas = _field(params, "lambdas", _list(_float), "oneway", (1.0, 1.0))
    if len(lambdas) != 2:
        raise ScenarioError("oneway: field 'lambdas' must have length 2 (qubit ensembles)")
    outcomes = _field(params, "outcomes", _int, "oneway", 4, minimum=4)
    restarts = _field(params, "restarts", _int, "oneway", 20, minimum=1)
    seed = _field(params, "seed", _int, "oneway", 0)
    label = _field(params, "scenario", str, "oneway",
                   f"oneway-lam{','.join(fmt(x) for x in lambdas)}")
    try:
        spectrum = ResourceSpectrum(lambdas)
    except ValueError as exc:
        raise ScenarioError(f"oneway: bad value for field 'lambdas': {exc}") from exc
    rep = to_matrix_rep(bell_basis())
    # the restarts descend in lockstep, so every one of them is held at once
    if (need := _restart_bytes(rep.d, outcomes)) > MAX_ROW_BYTES:
        _refuse("oneway", "'outcomes'", f"{outcomes} outcomes need {need} B")
    if (need := restarts * need) > MAX_ROW_BYTES:
        _refuse("oneway", "'restarts'", f"{restarts} restarts of {outcomes} outcomes need {need} B")
    rows = []
    is_mes = bool(np.max(np.abs(np.asarray(lambdas) - 1.0)) <= 1e-12)
    if is_mes:
        t0 = time.perf_counter()
        res = orthogonality_residual(rep, spectrum, *teleportation_certificate(spectrum.d))
        rows.append(_row(label, "oneway", "explicit-certificate", res, "n/a",
                         "<1e-09", res < 1e-9, t0))
    t0 = time.perf_counter()
    result = feasibility_search(rep, spectrum, outcomes, restarts, seed)
    ok = result.best_residual < 1e-6 if is_mes else result.best_residual > 1e-2
    expected = "<1e-06" if is_mes else ">0.01 (evidence)"
    rows.append(_row(label, "oneway", f"search-K{outcomes}-R{restarts}",
                     result.best_residual, "n/a", expected, ok, t0))
    return rows


def run_bounds(params: dict) -> list[Row]:
    family = _field(params, "bounds_family", _choice("ghz", "lattice", "parametric"), "bounds", "ghz")
    if family == "parametric":
        alpha = _field(params, "alpha", _float, "bounds", 0.9)
        gamma = _field(params, "gamma", _float, "bounds", 0.8)
        label = _field(params, "scenario", str, "bounds", "bounds-parametric")
        t0 = time.perf_counter()
        ens = parametric_basis(alpha, gamma)
        _, achieved = optimal_guess(ens, computational_povm(ens.dims))
        expected = (alpha ** 2 + gamma ** 2) / 2
        return [_row(label, "bounds", "computational-opt-guess", achieved,
                     "n/a", fmt(expected), abs(achieved - expected) <= ATOL, t0)]
    ghz = family == "ghz"
    n = _field(params, "n", _int, "bounds", 3 if ghz else 2, minimum=2 if ghz else 1)
    qubits = n if ghz else 2 * n
    _check_size("bounds", "'n'", qubits, qubits)  # a complete basis of 2^qubits members
    # separable_bound lays the member rows out again for each bipartition
    cuts = 2 ** (n - 1) - 1 if ghz else 1
    if (need := cuts << (2 * qubits + 4)) > MAX_ROW_BYTES:
        _refuse("bounds", "'n'", f"{cuts} cuts of 2^{qubits} members of joint dimension "
                                 f"2^{qubits} need {need} B")
    label = _field(params, "scenario", str, "bounds", f"bounds-{family}-{n}")
    t0 = time.perf_counter()
    ens = ghz_basis(n, (1,) * n) if ghz else lattice_basis(n)
    problem, tree = computational_protocol(ens)
    achieved = run_protocol(problem, tree).fidelity
    bound = separable_bound(ens)
    proto = "computational-vs-sep-bound" if ghz else "computational-vs-mes-bound"
    return [_row(label, "bounds", proto, achieved, fmt(bound), fmt(bound),
                 abs(achieved - bound) <= ATOL, t0)]


# -- the full verification battery -------------------------------------------
#
# ``paper-suite`` prints the rows of every criterion in order, and
# tests/test_acceptance.py runs each criterion as one test. A check with no
# row of its own fails the row it belongs to.


class Criterion(NamedTuple):
    name: str
    detail: str
    run: Callable[[int], list[Row]]  # seed -> rows


def _each(runner: Callable[[dict], list[Row]], *scenarios: dict) -> Callable[[int], list[Row]]:
    """A criterion that hands each scenario dict, with the suite's seed, to ``runner``."""
    return lambda seed: [row for s in scenarios for row in runner({**s, "seed": seed})]


def _also(rows: list[Row], ok: bool) -> list[Row]:
    """Fail every row in ``rows`` unless ``ok``."""
    if not ok:
        for row in rows:
            row.status = "fail"
    return rows


def _lattice_values(seed: int) -> list[Row]:
    rows = run_lattice({"n": 2, "m": 1}) + run_lattice({"n": 2, "m": 2})
    t0 = time.perf_counter()
    ens = lattice_basis(2)
    problem, tree = computational_protocol(ens)
    achieved = run_protocol(problem, tree).fidelity
    bound = separable_bound(ens)
    rows.append(_row("lattice-resource-free", "lattice", "computational", achieved,
                     fmt(bound), fmt(bound),
                     abs(bound - 0.25) <= ATOL and abs(achieved - bound) <= ATOL, t0))
    return rows


def _ghz_bound_chain(seed: int) -> list[Row]:
    ens = ghz_basis(3, (1, 1, 1))
    _, guessed = optimal_guess(ens, computational_povm(ens.dims))
    cuts = []  # the bound across each cut alone, on the layout coarsened to that cut
    for side_a, side_b in ens.layout.bipartitions():
        grouping = {**dict.fromkeys(side_a, "A"), **dict.fromkeys(side_b, "B")}
        cuts.append(separable_bound(Ensemble(coarsen(ens.layout, grouping), ens.members)))
    rows = run_bounds({"bounds_family": "ghz", "n": 3, "scenario": "ghz-bound-chain"})
    return _also(rows, abs(guessed - 0.5) <= ATOL and all(abs(c - 0.5) <= ATOL for c in cuts))


def _parametric_grid(seed: int) -> list[Row]:
    t0 = time.perf_counter()
    grid = np.linspace(1 / math.sqrt(2), 1.0, 5)
    worst = 0.0
    tel_ok = True
    for a in grid:
        for g in grid:
            ens = parametric_basis(a, g)
            _, f_local = optimal_guess(ens, computational_povm(ens.dims))
            worst = max(worst, abs(f_local - (a * a + g * g) / 2))
            problem, tree = teleportation_protocol(ens, "A", "B")
            tel_ok &= abs(run_protocol(problem, tree).fidelity - 1.0) <= ATOL
    return [_row("parametric-grid-5x5", "parametric", "formula+teleport", worst,
                 "n/a", "err<1e-09", worst <= ATOL and tel_ok, t0)]


def _conversion_composition(seed: int) -> list[Row]:
    t0 = time.perf_counter()
    resource = StateVector((2, 2), [math.sqrt(0.8), 0, 0, math.sqrt(0.2)])
    _, fb_tree = computational_protocol(bell_basis())
    f = vidal_then_fallback(bell_basis(), resource, 2, fb_tree)
    # every partial resource strictly beats the fallback alone
    fallback = run_protocol(JointProblem(bell_basis()), fb_tree).fidelity
    rng = np.random.default_rng(71)
    helps = True
    for _ in range(10):
        lam = rng.uniform(0.02, 0.5)
        partial = StateVector((2, 2), [math.sqrt(1 - lam), 0, 0, math.sqrt(lam)])
        helps &= vidal_then_fallback(bell_basis(), partial, 2, fb_tree) > fallback + 1e-12
    return [_row("conversion-mix", "vidal", "convert-then-fallback", f, "n/a",
                 fmt(0.7), abs(f - 0.7) <= ATOL and helps, t0)]


def _entropy_bounds(seed: int) -> list[Row]:
    t0 = time.perf_counter()
    ok = True
    for n, sizes in ((3, (1, 1, 1)), (4, (2, 2)), (4, (1, 1, 1, 1))):
        m = len(sizes)
        report = entropy_bound_check(
            ghz_state(m), single_qubit_layout(m), ghz_basis(n, sizes),
        )
        ok &= report.applicable and report.passed and report.n_partite_ok and all(
            abs(r.mean_member_entropy - 1.0) <= ATOL
            and abs(r.resource_entropy - 1.0) <= ATOL
            for r in report.rows
        )
    for basis in (ghz_basis(3, (1, 1, 1)), bell_basis()):
        m = len(basis.layout.names)
        product = StateVector((2,) * m, np.eye(2 ** m)[0])
        layout = PartyLayout(tuple((name, (i,)) for i, name in enumerate(basis.layout.names)))
        ok &= not entropy_bound_check(product, layout, basis).passed
    return [_row("entropy-bounds", "entropy", "resource-vs-mean", None, "n/a",
                 "pass", ok, t0)]


def _cross_checks(seed: int) -> list[Row]:
    t0 = time.perf_counter()
    ok = True
    for entry in standard_zoo():
        res = run_protocol(entry.problem, entry.tree)
        povm, guess = flatten_to_povm(entry.tree, entry.problem)
        ok &= abs(average_fidelity(entry.problem.joint, povm, guess) - res.fidelity) <= ATOL
        joint = entry.problem.joint
        ok &= res.fidelity <= separable_bound(joint) + ATOL
        grouping = {name: "ALL" for name in joint.layout.names}
        merged = Ensemble(coarsen(joint.layout, grouping), joint.members)
        coarse_problem = JointProblem(merged)
        coarse_tree = relabel_parties(entry.tree, grouping)
        ok &= abs(run_protocol(coarse_problem, coarse_tree).fidelity - res.fidelity) <= ATOL
    return [_row("cross-checks", "zoo", "flatten+mes+coarsen", None, "n/a",
                 "pass", ok, t0)]


CRITERIA = (
    Criterion("01 sequential-bell-chain", "N=2..5 fidelity 1, halving schedule",
              _each(run_ghz, *({"n": n, "scenario": f"seq-bell-n{n}"} for n in range(2, 6)))),
    Criterion("02 partitioned-ghz", "four partitionings, fidelity 1",
              _each(run_ghz, *({"n": n, "sizes": sizes,
                                "scenario": f"partitioned-n{n}-{'.'.join(map(str, sizes))}"}
                               for n, sizes in ((3, (2, 1)), (4, (2, 2)), (4, (3, 1)),
                                                (5, (2, 2, 1)))))),
    Criterion("03 graph-decoding", "P3 K3 S4 C4: fidelity 1, 2^N multiplicity, stabilizers",
              _each(run_graph, *({"graph": name, "scenario": f"graph-{name}"}
                                 for name in ("path3", "triangle", "star4", "cycle4")))),
    Criterion("04 lattice-values", "1/2^(2-m), mes bound 0.25 saturated", _lattice_values),
    Criterion("05 ghz-bound-chain", "achieved 1/2 equals separable bound", _ghz_bound_chain),
    Criterion("06 subset-resource", "fidelity 1, entropy check, mapping table",
              _each(run_example4, {})),
    Criterion("07 parametric-grid", "5x5 grid: formula and teleportation exact",
              _parametric_grid),
    Criterion("08 conversion-composition", "0.7 exact; partial resources always help",
              _conversion_composition),
    Criterion("09 entropy-bounds", "equality at 1 ebit; product resources rejected",
              _entropy_bounds),
    Criterion("10 oneway-feasibility",
              "certificate < 1e-9, search < 1e-6; skew floors > 1e-2",
              _each(run_oneway,
                    {"lambdas": (1.0, 1.0), "outcomes": 4, "restarts": 10,
                     "scenario": "oneway-mes"},
                    *({"lambdas": (1.6, 0.4), "outcomes": k, "restarts": 50,
                       "scenario": f"oneway-skew-K{k}"} for k in (4, 8)))),
    Criterion("11 cross-checks", "flatten/run agree; separable bounds hold; coarsening inert",
              _cross_checks),
)


def run_paper_suite(params: dict) -> list[Row]:
    seed = _field(params, "seed", _int, "paper-suite", 0)
    return [row for criterion in CRITERIA for row in criterion.run(seed)]


class Command(NamedTuple):
    run: Callable[[dict], list[Row]]
    help: str
    flags: tuple[tuple[str, str], ...]  # (flag, help); --x sets field x unless in FIELD_OF


COMMON = (
    ("--scenario", "JSON scenario file; flags override its fields"),
    ("--label", "row label override"),
    ("--format", "table | csv | json (default table)"),
    ("--seed", "default from LOCCE_SEED, else 0"),
    ("--timing", "on | off; 'off' zeroes the ms column for byte-stable output"),
)
FIELD_OF = {"--scenario": "scenario_file", "--label": "scenario", "--family": "bounds_family"}

COMMANDS = {
    "ghz": Command(run_ghz, "GHZ basis discrimination with a GHZ resource", (
        ("--n", "total qubit count"), ("--sizes", "comma party sizes, e.g. 2,2"))),
    "graph": Command(run_graph, "graph-state basis with conjugate resource", (
        ("--graph", f"named graph: {sorted(NAMED_GRAPHS)}"),
        ("--edges", "edge list, e.g. 0-1,1-2"),
        ("--vertices", "vertex count, at least 2 (default: from the edges)"))),
    "lattice": Command(run_lattice, "Bell-product basis, partial teleportation", (
        ("--n", "number of Bell pairs"), ("--m", "pairs teleported"))),
    "parametric": Command(run_parametric, "two-qubit parametric basis", (
        ("--alpha", "amplitude alpha"), ("--gamma", "amplitude gamma"))),
    "example4": Command(run_example4, "four GHZ states, Bell resource on B,C", ()),
    "oneway": Command(run_oneway, "one-way feasibility probe", (
        ("--lambdas", "resource spectrum, e.g. 1.6,0.4 (default 1,1)"),
        ("--outcomes", "outcome count, at least 4 (default 4)"),
        ("--restarts", "restart count (default 20)"))),
    "bounds": Command(run_bounds, "bound chains per family", (
        ("--family", "ghz | lattice | parametric (default ghz)"),
        ("--n", "qubits (ghz, default 3) or Bell pairs (lattice, default 2)"),
        ("--alpha", "parametric alpha (default 0.9)"),
        ("--gamma", "parametric gamma (default 0.8)"))),
    "paper-suite": Command(run_paper_suite, "run the full verification battery", ()),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per ``COMMANDS`` entry, whose flags only collect text."""
    parser = argparse.ArgumentParser(
        prog="locce",
        description="Local state discrimination with entanglement resources: "
                    "exact protocol fidelities and bound checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, text in command.flags + COMMON:
            p.add_argument(flag, dest=FIELD_OF.get(flag), help=text)
    return parser


def load_scenario(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"scenario: cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("scenario: top level must be a JSON object")
    return data


def main(argv=None) -> int:
    flags = vars(build_parser().parse_args(argv))
    command, path = flags.pop("command"), flags.pop("scenario_file")
    try:
        params = load_scenario(path) if path else {}
        file_family = params.get("family")
        if file_family and file_family != command:
            raise ScenarioError(f"scenario: field 'family' is {file_family!r} but the "
                                f"subcommand is {command!r}")
        params.update((key, value) for key, value in flags.items() if value is not None)
        if params.get("seed") is None:
            params["seed"] = os.environ.get("LOCCE_SEED", "0")
        params["seed"] = _field(params, "seed", _int, "scenario", minimum=0)
        out_format = _field(params, "format", _choice("table", "csv", "json"), "scenario", "table")
        timing = _field(params, "timing", _choice("on", "off"), "scenario", "on")
        rows = COMMANDS[command].run(params)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {command}: {exc}", file=sys.stderr)
        return 2
    print(emit(rows, out_format, timing == "on"))
    return 0 if all(r.status == "pass" for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
