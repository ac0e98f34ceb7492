"""Acceptance battery: every headline quantity at its stated tolerance.

Each test runs one of ``locce.cli.CRITERIA``, the same checks that
``locce paper-suite`` prints as rows. Run with
``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Tolerances are pinned in the criteria; nothing is calibrated later. Every
row's ``bound`` cell is pinned here too, so a bound that moves fails a test.
"""

from locce import cli


PERFECT = "n/a (perfect)"


def run_criterion(name: str, scenarios: list[str], bounds: list[str]) -> list[cli.Row]:
    assert cli.ATOL == 1e-9
    criterion = next(c for c in cli.CRITERIA if c.name == name)
    rows = criterion.run(0)
    failing = [r for r in rows if r.status != "pass"]
    assert not failing, "\n" + cli.emit(failing, "table")
    assert [r.scenario for r in rows] == scenarios
    assert [r.bound for r in rows] == bounds
    print(f"ACCEPTANCE {criterion.name}: PASS ({criterion.detail})")
    return rows


def test_criterion_01_sequential_bell_exactness():
    run_criterion("01 sequential-bell-chain",
                  ["seq-bell-n2", "seq-bell-n3", "seq-bell-n4", "seq-bell-n5"],
                  [PERFECT] * 4)


def test_criterion_02_partitioned_ghz():
    run_criterion("02 partitioned-ghz",
                  ["partitioned-n3-2.1", "partitioned-n4-2.2", "partitioned-n4-3.1",
                   "partitioned-n5-2.2.1"],
                  [PERFECT] * 4)


def test_criterion_03_graph_decoding():
    run_criterion("03 graph-decoding",
                  ["graph-path3", "graph-triangle", "graph-star4", "graph-cycle4"],
                  [PERFECT] * 4)


def test_criterion_04_lattice_values():
    run_criterion("04 lattice-values",
                  ["lattice-n2-m1", "lattice-n2-m2", "lattice-resource-free"],
                  ["0.25", "0.25", "0.25"])


def test_criterion_05_ghz_bound_chain():
    run_criterion("05 ghz-bound-chain", ["ghz-bound-chain"], ["0.5"])


def test_criterion_06_bell_pair_on_two_of_three_parties():
    run_criterion("06 subset-resource", ["example4", "example4"],
                  [PERFECT, "not-applicable"])


def test_criterion_07_parametric_grid():
    run_criterion("07 parametric-grid", ["parametric-grid-5x5"], ["n/a"])


def test_criterion_08_conversion_composition():
    run_criterion("08 conversion-composition", ["conversion-mix"], ["n/a"])


def test_criterion_09_entropy_bounds():
    run_criterion("09 entropy-bounds", ["entropy-bounds"], ["n/a"])


def test_criterion_10_oneway_feasibility():
    rows = run_criterion("10 oneway-feasibility",
                         ["oneway-mes", "oneway-mes", "oneway-skew-K4", "oneway-skew-K8"],
                         ["n/a"] * 4)
    # the skewed-spectrum gates run 50 restarts at K in {4, 8}
    assert [r.protocol for r in rows] == [
        "explicit-certificate", "search-K4-R10", "search-K4-R50", "search-K8-R50",
    ]


def test_criterion_11_cross_checks():
    run_criterion("11 cross-checks", ["cross-checks"], ["n/a"])
