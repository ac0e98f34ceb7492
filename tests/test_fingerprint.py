"""tools/fingerprint.py: every protocol case fingerprints, and builds repeat."""

import importlib.util
import re
from pathlib import Path

from locce.protocols import tree_to_json
from locce.zoo import standard_zoo

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("fingerprint_tool", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_protocol_case_prints_one_well_formed_line():
    tool = _load_tool()
    sha256 = re.compile(r"[0-9a-f]{64}")
    names = []
    for name, problem, tree in tool.cases():  # the one-way searches are left out: too slow
        shape, probs, fidelity = tool.fingerprint(problem, tree)
        assert re.fullmatch(r"\S+", name) and sha256.fullmatch(shape) and sha256.fullmatch(probs)
        assert 0.0 < float.fromhex(fidelity) <= 1.0 + 1e-9, name  # 1e-9: the library tolerance
        names.append(name)
    assert len(names) == len(set(names)) == 31


def test_standard_zoo_builds_the_same_trees_twice():
    first, second = standard_zoo(), standard_zoo()
    assert [e.name for e in first] == [e.name for e in second]
    for a, b in zip(first, second):
        assert tree_to_json(a.tree) == tree_to_json(b.tree), a.name


def test_flattening_prints_one_line_per_case_up_to_dimension_256(monkeypatch, capsys):
    tool = _load_tool()
    monkeypatch.setattr(tool, "oneway_searches", lambda: ())  # too slow here
    tool.main()
    lines = capsys.readouterr().out.splitlines()
    flat = [re.fullmatch(r"flat-(\S+) rows=([0-9a-f]{64}) guesses=([0-9a-f]{64})", line)
            for line in lines[31:]]
    assert len(lines) == 31 + 22 and all(flat)
    names = [m[1] for m in flat]
    cases = {name: (problem, tree) for name, problem, tree in tool.cases()}
    assert names == [name for name, (problem, _) in cases.items() if problem.joint.dim <= 256]
    assert len(set(names) & {e.name for e in standard_zoo()}) == 16
    for m in flat[::7]:  # a second flattening gives the same bytes
        assert tool.flat_fingerprint(*cases[m[1]]) == (m[2], m[3])
