"""The output files match the stdlib's renderings byte for byte.

``rates.json``, ``certificates.json`` and saved instances are held against
``json.dumps(..., indent=2)``; ``trajectory.csv`` and ``measures.csv`` against
``csv.writer`` fed one formatted value at a time (``tests/oracles.py``).
"""

import functools
import hashlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from egtan import cli, measures, solvers
from egtan.cli import main
from egtan.instances import AffineOperator, VIInstance, instance_to_json, save_instance
from egtan.render import _render_json
from egtan.measures import write_measures_csv
from egtan.sets import Ball, Box, HalfspaceIntersection, NonnegativeOrthant, WholeSpace
from egtan.solvers import SolverConfig, Trajectory, write_trajectory_csv
from tests.oracles import json_by_stdlib, measures_csv_by_stdlib, trajectory_csv_by_stdlib

SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1.8e308, -1.8e308, 0.1)
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


@functools.cache
def instance(n: int) -> VIInstance:
    return VIInstance.create(AffineOperator.create(np.eye(n), np.zeros(n)), WholeSpace(n))


def rendered(write, *args) -> str:
    fh = io.StringIO(newline="")
    write(fh, *args)
    return fh.getvalue()


@pytest.mark.parametrize("T", [0, 1, 4])
@pytest.mark.parametrize("solver", ["eg", "pp"])
@given(data=st.data(), n=st.integers(1, 8))
def test_trajectory_csv_matches_csv_writer(solver, T, data, n):
    zs = data.draw(arrays(np.float64, (T + 1, n), elements=VALUES))
    halfs = data.draw(arrays(np.float64, (T, n), elements=VALUES)) if solver == "eg" else None
    traj = Trajectory(instance(n), SolverConfig(eta=0.1, T=T), zs, halfs, zs)
    assert rendered(write_trajectory_csv, traj) == trajectory_csv_by_stdlib(traj)


@pytest.mark.parametrize("T", [0, 1, 4])
@given(data=st.data())
def test_measures_csv_matches_csv_writer(T, data):
    # a column is None, as long as r_nat, shorter (the step distances) or longer
    columns = {"r_nat": data.draw(arrays(np.float64, T + 1, elements=VALUES))}
    sized = st.integers(0, T + 2).flatmap(lambda size: arrays(np.float64, size, elements=VALUES))
    for name in ("r_tan", "gap", "dist_half", "dist_full"):
        columns[name] = data.draw(st.none() | sized)
    assert rendered(write_measures_csv, columns) == measures_csv_by_stdlib(columns)


@pytest.mark.parametrize("obj", [
    {}, [], (), {"a": {}, "b": [], "c": [[], {}, [[]]]},
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.8e308],
    {"lhs": [1.0, 2.5], "rhs": [[0.1, 0.2], [1e-300, -3.0]]},
    [1, 2.5, 3], [2.5, 1], [1.0, True, 2.0], [0.5, None], [None, True, False],
    [np.float64(0.1), 0.2], (0.5, -1.5),
    ["héllo", 'say "hi"\\n', "tab\there", " ", "a, b"], [1.0, "x, y"],
    {"ζ-key": "non-ASCII ✓", "quote\"key": None, "": 0},
    {1: "int key", 2.5: "float key", None: "null key", False: "bool key"},
    1.5, math.nan, "plain", None, True, 7,
], ids=repr)
def test_json_renderer_matches_stdlib(obj):
    assert _render_json(obj) == json_by_stdlib(obj)


json_like = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), VALUES, st.text(max_size=5)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(VALUES, max_size=4),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
    ),
    max_leaves=20,
)


@given(json_like)
def test_json_renderer_matches_stdlib_on_drawn_documents(obj):
    assert _render_json(obj) == json_by_stdlib(obj)


SETS = {
    "box": Box(np.array([-1.0, -np.inf]), np.array([1.0, 2.0])),
    "orthant": NonnegativeOrthant(2),
    "rn": WholeSpace(2),
    "ball": Ball(np.array([0.5, 0.0]), 1.0),
    "halfspaces": HalfspaceIntersection(
        [(np.array([1.0, 1.0]), 0.5), (np.array([-1.0, 2.0]), -1.0)]
    ),
}


def write_instance(tmp_path, kind: str) -> tuple[str, VIInstance]:
    """Save a strongly monotone instance on ``SETS[kind]``."""
    op = AffineOperator.create(np.array([[0.5, -1.0], [1.0, 0.5]]), np.array([1.0, -0.5]))
    inst = VIInstance.create(op, SETS[kind])
    path = str(tmp_path / f"{kind}.json")
    save_instance(inst, path)
    return path, inst


def use_stdlib_writers(monkeypatch):
    # cli binds _render_json at import and reads the CSV writers from their modules per call
    monkeypatch.setattr(cli, "_render_json", json_by_stdlib)
    monkeypatch.setattr(solvers, "write_trajectory_csv",
                        lambda fh, traj: fh.write(trajectory_csv_by_stdlib(traj)))
    monkeypatch.setattr(measures, "write_measures_csv",
                        lambda fh, columns: fh.write(measures_csv_by_stdlib(columns)))


def read_outputs(out_dir) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("solver", ["eg", "pp"])
@pytest.mark.parametrize("kind", list(SETS))
def test_solve_writes_the_stdlib_bytes(kind, solver, tmp_path, monkeypatch):
    path, inst = write_instance(tmp_path, kind)
    with open(path) as fh:
        assert fh.read() == json_by_stdlib(instance_to_json(inst))
    argv = ["solve", "--instance", path, "--solver", solver, "--eta", "0.3", "--T", "12"]
    assert main([*argv, "--out", str(tmp_path / "fast")]) == 0
    use_stdlib_writers(monkeypatch)
    assert main([*argv, "--out", str(tmp_path / "stdlib")]) == 0
    fast, stdlib = read_outputs(tmp_path / "fast"), read_outputs(tmp_path / "stdlib")
    assert list(fast) == ["measures.csv", "rates.json", "trajectory.csv"]
    assert fast == stdlib


@pytest.mark.parametrize("mutate", [None, "sos-2"])
def test_verify_certificates_writes_the_stdlib_bytes(mutate, tmp_path, monkeypatch):
    argv = ["verify-certificates"] + (["--mutate", mutate] if mutate else [])
    code = main([*argv, "--out", str(tmp_path / "fast")])
    assert code == (2 if mutate else 0)
    use_stdlib_writers(monkeypatch)
    assert main([*argv, "--out", str(tmp_path / "stdlib")]) == code
    assert read_outputs(tmp_path / "fast") == read_outputs(tmp_path / "stdlib")


@pytest.mark.parametrize("solver", ["eg", "pp"])
def test_no_output_goes_through_the_pure_python_encoder(solver, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    path, _ = write_instance(tmp_path, "box")
    assert main(["solve", "--instance", path, "--solver", solver, "--eta", "0.3", "--T", "12",
                 "--out", str(tmp_path / "out")]) == 0
    assert json.loads((tmp_path / "out" / "rates.json").read_text())["passed"] is True


# SHA-256 of each certificates.json (keyed by --mutate; None is the clean run)
# and of the --report-table stdout, recorded when every coefficient was a
# Fraction: integer coefficients must not change a byte.
CERTIFICATE_SHA256 = {
    None: "d89a679ae2419c803a043d74463a335720589fb0fdaf2f4dbb64c7a2578a7dfc",
    "cons-1": "0f45af447c7c6dc4f3099af012bb89134f1e80f96d85c5c301d0ee2c1a8ab210",
    "cons-2": "6e8db9a2d0e281a7c7e32cd81592355be2d06f2bb1b25503de67709a0d751bbc",
    "cons-3": "0f45af447c7c6dc4f3099af012bb89134f1e80f96d85c5c301d0ee2c1a8ab210",
    "cons-4": "5cd9c8a4f2a7fb0c235875a1ebe331371de31e218a8412558b9878d54166f9e2",
    "cons-5": "a7e9cce683ff7da82a38f35a54ffdfa5feadf634c0f1e55aad6061e3f301d5d6",
    "cons-6": "50aa22c7f785227b0b9b4a85da3f1a1bfdaaeca5a7fa058ee4c41acc1470c388",
    "cons-7": "1b568d068a77e451fd02e22395587faa83bc66bb6a751b0a481d2a9f67b14992",
    "cons-8": "3a8d843f9de0c38ccac48e814fa2d1f82cb04e274ec4c1018f262b342acef280",
    "cons-9": "27aa91bdd2cdd142e25bfde6fd510aa51f6c0e7ec6d7fc47a9f6f67571ba9236",
    "sos-1": "cf36c745f065519f8a0016352f05e3adf01b2fc86ab5b61bd7841b427fadd249",
    "sos-2": "268a4d3d24db439808fc57a29be865b642fe3eb5f18cd35a0b0dbe1ec75a4b8e",
    "sos-3": "1b568d068a77e451fd02e22395587faa83bc66bb6a751b0a481d2a9f67b14992",
    "sos-4": "04af1a9147b3c72a8c6c97ee69f63e8faf160a8063b0b1fbd9d8421f27aafd5a",
    "sos-5": "740942b6cd5c4d0a708477c053430be8590a5f77bd2e192aa1e44b05bff38d13",
}
REPORT_TABLE_SHA256 = "e35186bbfd1ec1e23c30b918f96ca1a3a4ceb90e0192fc4f6b8159ff9ce9a3e9"


@pytest.mark.parametrize("mutate", list(CERTIFICATE_SHA256))
def test_certificates_json_bytes_are_pinned(mutate, tmp_path):
    argv = ["verify-certificates", "--out", str(tmp_path)] + (["--mutate", mutate] if mutate else [])
    assert main(argv) == (2 if mutate else 0)
    digest = hashlib.sha256((tmp_path / "certificates.json").read_bytes()).hexdigest()
    assert digest == CERTIFICATE_SHA256[mutate]


def test_report_table_stdout_is_pinned(capsys):
    assert main(["verify-certificates", "--report-table"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == REPORT_TABLE_SHA256
