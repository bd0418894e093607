import json

import numpy as np
import pytest

from monogate.cli import _render_text, _validate_args, build_parser, main
from monogate.fuchsian import PointsConnection, connection_to_json
from monogate.lappo_danilevski import RepresentationFamily, family_to_json
from monogate.matrices import matrix_from_json, matrix_to_json
from monogate.paths import LineSegment, PiecewisePath, generator_loop, loops_to_json, path_from_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def read_report(tmp_path, name):
    return json.loads((tmp_path / name).read_text())


def test_gate_command(capsys):
    code, out, _ = run(capsys, "gate", "--name", "X")
    assert code == 0
    report = json.loads(out)
    m = matrix_from_json(report["matrix"])
    assert np.array_equal(m, np.array([[0, 1], [1, 0]]))
    assert report["config"]["name"] == "X"


def test_gate_command_text_format(capsys):
    code, out, _ = run(capsys, "gate", "--name", "Z", "--format", "text")
    assert code == 0
    assert "command: gate" in out


def test_unknown_gate_is_input_error(capsys):
    code, _, err = run(capsys, "gate", "--name", "NOPE")
    assert code == 1
    assert "input error" in err


def test_bad_flag_is_input_error(capsys):
    code, _, _ = run(capsys, "gate", "--nonsense")
    assert code == 1


def test_one_parser_serves_every_call(capsys):
    assert build_parser() is build_parser()
    # a failed parse leaves nothing behind for the next command
    code, out, _ = run(capsys, "gate", "--name", "X")
    assert code == 0 and json.loads(out)["config"] == {"name": "X", "out": None, "format": "json"}
    assert run(capsys, "gate", "--name", "X", "--nonsense")[0] == 1
    code, out, _ = run(capsys, "paths", "braid", "--n", "3", "--i", "2")
    assert code == 0 and json.loads(out)["config"] == {"n": 3, "i": 2, "out": None, "format": "json"}
    assert run(capsys, "universality", "screen", "--maxlen", "0", "--names", "X,Z")[0] == 1
    code, out, _ = run(capsys, "gate", "--name", "Z", "--format", "text")
    assert code == 0 and "command: gate" in out


def test_paths_braid_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "path.json"
    code, _, _ = run(capsys, "paths", "braid", "--n", "3", "--i", "1", "--out", str(out_file))
    assert code == 0
    path = path_from_json(json.loads(out_file.read_text()))
    assert path.dimension == 3
    assert np.allclose(path.start, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("i", ["0", "-1"])
def test_paths_braid_index_below_one_is_input_error(capsys, i):
    # the path is sigma_i's: a negative index must not read as an inverse letter
    code, out, err = run(capsys, "paths", "braid", "--n", "3", "--i", i)
    assert code == 1
    assert out == ""
    assert "--i must be >= 1" in err


def test_paths_pure_braid(tmp_path, capsys):
    out_file = tmp_path / "tau.json"
    code, _, _ = run(
        capsys, "paths", "pure-braid", "--n", "3", "--i", "1", "--j", "3", "--out", str(out_file)
    )
    assert code == 0
    report = read_report(tmp_path, "tau.json")
    assert report["word"] == [2, 1, 1, -2]
    assert report["closed"]


def test_fuchsian_monodromy_scalar_example(tmp_path, capsys):
    # df = (a/z) f around a winding-1 loop must report e^{2 pi i a}
    a = 0.31 - 0.12j
    conn = PointsConnection((0.0,), (np.array([[a]]),))
    (tmp_path / "conn.json").write_text(json.dumps(connection_to_json(conn)))
    loops = [generator_loop(2.0, 0.0, 0.5)]
    (tmp_path / "loops.json").write_text(json.dumps(loops_to_json(loops)))
    code, _, _ = run(
        capsys,
        "fuchsian", "monodromy",
        "--conn", str(tmp_path / "conn.json"),
        "--loops", str(tmp_path / "loops.json"),
        "--tol", "1e-10",
        "--out", str(tmp_path / "rep.json"),
    )
    assert code == 0
    report = read_report(tmp_path, "rep.json")
    m = matrix_from_json(report["matrices"][0])
    assert abs(m[0, 0] - np.exp(2j * np.pi * a)) < 1e-9


def test_fuchsian_divisor_contact_is_numeric_error(tmp_path, capsys):
    conn = PointsConnection((0.0,), (np.eye(2) * 0.5,))
    (tmp_path / "conn.json").write_text(json.dumps(connection_to_json(conn)))
    bad_loops = {
        "paths": [
            {
                "dimension": 1,
                "closed": True,
                "segments": [
                    {"kind": "line", "start": [{"re": -1.0, "im": 0.0}], "end": [{"re": 1.0, "im": 0.0}]},
                    {"kind": "line", "start": [{"re": 1.0, "im": 0.0}], "end": [{"re": -1.0, "im": 0.0}]},
                ],
            }
        ]
    }
    (tmp_path / "loops.json").write_text(json.dumps(bad_loops))
    code, _, err = run(
        capsys,
        "fuchsian", "monodromy",
        "--conn", str(tmp_path / "conn.json"),
        "--loops", str(tmp_path / "loops.json"),
    )
    assert code == 2
    assert "numerical failure" in err


def test_fuchsian_monodromy_rejects_an_open_path(tmp_path, capsys):
    conn = PointsConnection((0.0,), (np.array([[0.25]]),))
    (tmp_path / "conn.json").write_text(json.dumps(connection_to_json(conn)))
    open_path = PiecewisePath((LineSegment(np.array([2.0 + 0j]), np.array([1.0 + 1.0j])),))
    (tmp_path / "loops.json").write_text(json.dumps(loops_to_json([open_path])))
    code, out, err = run(
        capsys,
        "fuchsian", "monodromy",
        "--conn", str(tmp_path / "conn.json"),
        "--loops", str(tmp_path / "loops.json"),
    )
    assert code == 1
    assert out == ""
    assert "gamma_1" in err


ONE = matrix_to_json(np.array([[0.25]]))
TWO = matrix_to_json(np.eye(2) * 0.25)
REJECTED_CONNECTIONS = {
    "pair i = j": {"variant": "configuration", "n": 3, "terms": [{"i": 2, "j": 2, "matrix": ONE}]},
    "pair j > n": {"variant": "configuration", "n": 3, "terms": [{"i": 1, "j": 4, "matrix": ONE}]},
    "pair i > j": {"variant": "configuration", "n": 3, "terms": [{"i": 2, "j": 1, "matrix": ONE}]},
    "n = 1": {"variant": "configuration", "n": 1, "terms": []},
    "2 poles 1 residue": {"variant": "points", "poles": [0.0, 1.0], "residues": [ONE]},
    "residue dims 1 and 2": {"variant": "points", "poles": [0.0, 1.0], "residues": [ONE, TWO]},
    "nan residue": {
        "variant": "points",
        "poles": [0.0],
        "residues": [{"dim": 1, "entries": [[{"re": float("nan"), "im": 0.0}]]}],
    },
    "2 points 1 coefficient": {"variant": "differences", "points": [0.0, 1.0], "reference": None,
                               "coefficients": [ONE]},
    "residue sum not zero": {"variant": "points", "poles": [0.0, 1.0], "residues": [ONE, ONE],
                             "regular_at_infinity": True},
}


@pytest.mark.parametrize("conn", REJECTED_CONNECTIONS.values(), ids=list(REJECTED_CONNECTIONS))
def test_fuchsian_monodromy_rejects_bad_connection_files(conn, tmp_path, capsys):
    (tmp_path / "conn.json").write_text(json.dumps(conn))
    (tmp_path / "loops.json").write_text(json.dumps(loops_to_json([generator_loop(2.0, 0.0, 0.5)])))
    code, out, _ = run(
        capsys,
        "fuchsian", "monodromy",
        "--conn", str(tmp_path / "conn.json"),
        "--loops", str(tmp_path / "loops.json"),
    )
    assert code == 1
    assert out == ""


def _synth_inputs(tmp_path) -> list[str]:
    from monogate.matrices import random_hermitian
    from monogate.paths import puncture_loops

    rng = np.random.default_rng(1)
    targets = RepresentationFamily.exponential_targets(
        [random_hermitian(2, rng), random_hermitian(2, rng)], 3
    )
    (tmp_path / "fam.json").write_text(json.dumps(family_to_json(targets)))
    loops = puncture_loops([0.0, 1.0], 0.5 - 1.5j, 0.3)
    (tmp_path / "loops.json").write_text(json.dumps(loops_to_json(loops)))
    return ["--targets", str(tmp_path / "fam.json"), "--loops", str(tmp_path / "loops.json"),
            "--points", "0", "1", "--order", "3"]


def test_synth_verify_roundtrip(tmp_path, capsys):
    args = [
        "synth", *_synth_inputs(tmp_path),
        "--lambda", "0.05",
        "--verify",
        "--out", str(tmp_path / "synth.json"),
    ]
    code, _, _ = run(capsys, *args)
    assert code == 0
    report = read_report(tmp_path, "synth.json")
    assert report["verdict"] == "verified"
    assert report["deviations"]["max_deviation"] < 1e-4
    # an unreachable verify tolerance flips the exit code to 3
    code, _, _ = run(capsys, *args, "--verify-tol", "1e-12")
    assert code == 3


def test_synth_loop_through_a_puncture_is_numeric_error(tmp_path, capsys):
    # the approach from 2 to the circle around 0 runs through the puncture at 1
    targets = RepresentationFamily.exponential_targets([np.zeros((1, 1))] * 2, 1)
    (tmp_path / "fam.json").write_text(json.dumps(family_to_json(targets)))
    loops = [generator_loop(2.0, 0.0, 0.3), generator_loop(2.0, 1.0, 0.3)]
    (tmp_path / "loops.json").write_text(json.dumps(loops_to_json(loops)))
    code, _, err = run(
        capsys, "synth",
        "--targets", str(tmp_path / "fam.json"),
        "--loops", str(tmp_path / "loops.json"),
        "--points", "0", "1",
        "--order", "1",
    )
    assert code == 2
    assert "numerical failure" in err


def test_synth_reference_on_a_point_names_the_flag_and_value(tmp_path, capsys):
    code, _, err = run(capsys, "synth", *_synth_inputs(tmp_path), "--reference", "1.0")
    assert code == 1
    assert "input error: --reference 1.0 is not separated from --points value 1" in err
    # points that coincide among themselves are still reported by the divisor
    code, _, err = run(capsys, "synth", *_synth_inputs(tmp_path)[:-5], "--points", "0", "0",
                       "--order", "3", "--reference", "1")
    assert code == 1
    assert "--reference" not in err and "not separated" in err


def test_kz_verify_exit_zero(capsys):
    code, out, _ = run(capsys, "kz", "verify", "--n", "3", "--lambda", "3")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "verified"
    assert report["radical_dim"] == 2
    assert max(report["deviations"]["braid_relations"]) <= 1e-6


def test_kz_braid_emits_gates(tmp_path, capsys):
    code, _, _ = run(
        capsys, "kz", "braid", "--n", "2", "--lambda", "3",
        "--out", str(tmp_path / "gates.json"),
    )
    assert code == 0
    report = read_report(tmp_path, "gates.json")
    assert len(report["gates"]) == 1
    m = matrix_from_json(report["gates"][0]["matrix"])
    assert np.linalg.norm(m.conj().T @ m - np.eye(4)) < 1e-8


def test_universality_screen_names(capsys):
    code, out, _ = run(capsys, "universality", "screen", "--names", "H_std,PHASE:0.25")
    assert code == 0
    assert json.loads(out)["verdict"] == "dense-likely"
    code, out, _ = run(capsys, "universality", "screen", "--names", "X,Z")
    assert json.loads(out)["verdict"] == "finite-suspect"


def test_universality_coverage_names(capsys):
    code, out, _ = run(
        capsys, "universality", "coverage", "--names", "H_std,PHASE:0.25",
        "--maxlen", "8", "--eps", "0.5", "--samples", "50", "--seed", "7",
    )
    assert code == 0
    report = json.loads(out)
    assert report["coverage"] >= 0.8
    assert report["config"]["seed"] == 7


def test_universality_gates_file(tmp_path, capsys):
    payload = {
        "gates": [
            {"label": "X", "matrix": matrix_to_json(np.array([[0, 1], [1, 0]], dtype=complex))},
            {"label": "Z", "matrix": matrix_to_json(np.diag([1.0, -1.0]).astype(complex))},
        ]
    }
    (tmp_path / "gates.json").write_text(json.dumps(payload))
    code, out, _ = run(capsys, "universality", "screen", "--gates", str(tmp_path / "gates.json"))
    assert code == 0
    assert json.loads(out)["verdict"] == "finite-suspect"


def test_universality_requires_input(capsys):
    code, _, err = run(capsys, "universality", "screen")
    assert code == 1
    assert "input error" in err


def test_pipeline_zero_targets(capsys):
    code, out, _ = run(capsys, "pipeline", "--seed", "3", "--zero-targets")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "trivially-consistent"
    assert report["screen"]["verdict"] == "abelian"
    assert report["deviations"]["max_deviation"] == 0.0


def test_pipeline_consistent_and_deterministic(tmp_path, capsys):
    args = ["pipeline", "--seed", "7", "--order", "4"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # bit-identical payloads for a fixed seed
    report = json.loads(out1)
    assert report["verdict"] == "consistent"
    assert report["screen"]["verdict"] == "dense-likely"


def test_pipeline_strict_tolerance_exits_three(capsys):
    code, out, _ = run(capsys, "pipeline", "--seed", "7", "--order", "2", "--verify-tol", "1e-13")
    assert code == 3
    assert json.loads(out)["verdict"] == "deviation-above-tolerance"


def test_nonpositive_tolerance_rejected(capsys):
    code, _, err = run(capsys, "kz", "verify", "--n", "2", "--lambda", "3", "--tol", "-1")
    assert code == 1
    assert "must be positive" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["fuchsian", "monodromy", "--conn", "c.json", "--loops", "l.json", "--tol", "nan"],
        ["kz", "braid", "--n", "3", "--lambda", "3", "--tol", "nan"],
        ["kz", "braid", "--n", "3", "--lambda", "inf"],
        ["kz", "verify", "--n", "3", "--lambda", "3", "--relation-tol", "nan"],
        ["universality", "coverage", "--names", "X,Z", "--eps", "nan"],
        ["pipeline", "--radius", "inf"],
        ["synth", "--targets", "t.json", "--loops", "l.json", "--points", "0", "--lambda=-inf"],
        ["pipeline", "--lambda", "nan"],
    ],
)
def test_non_finite_numbers_rejected(argv):
    # checked before any command runs: a NaN tolerance hangs transport, a NaN eps voids coverage
    with pytest.raises(ValueError, match="must be finite") as info:
        _validate_args(build_parser().parse_args(argv))
    # the message names the last option as typed: --lambda, not its destination lam
    typed = argv[-1].split("=")[0] if "=" in argv[-1] else argv[-2]
    assert str(info.value).startswith(f"{typed} must be finite")


def test_order_below_one_rejected(tmp_path, capsys):
    (tmp_path / "x.json").write_text("{}")
    code, _, err = run(
        capsys, "synth", "--targets", str(tmp_path / "x.json"),
        "--loops", str(tmp_path / "x.json"), "--points", "0", "--order", "0",
    )
    assert code == 1
    assert ">= 1" in err
    for dim in ("0", "-1"):
        code, _, err = run(capsys, "pipeline", "--dim", dim)
        assert code == 1
        assert "--dim must be >= 1" in err


def test_threads_env_ignored(capsys, monkeypatch):
    monkeypatch.delenv("MG_NUM_THREADS", raising=False)
    code, plain, _ = run(capsys, "gate", "--name", "X")
    assert code == 0
    assert "threads" not in json.loads(plain)["config"]
    for value in ("2", "bogus"):
        monkeypatch.setenv("MG_NUM_THREADS", value)
        code, out, _ = run(capsys, "gate", "--name", "X")
        assert code == 0
        assert out == plain


# The command name and config keys each report listed when they were written
# out by hand per subcommand; every config ends with the common --out and
# --format.
CONFIG_KEYS = [
    (["gate", "--name", "H"], "gate", ["name"]),
    (["paths", "braid", "--n", "3", "--i", "1"], "paths braid", ["n", "i"]),
    (
        ["paths", "pure-braid", "--n", "3", "--i", "1", "--j", "3"],
        "paths pure-braid",
        ["n", "i", "j"],
    ),
    (
        ["paths", "loop", "--basepoint", "2", "--puncture", "0", "--radius", "0.5"],
        "paths loop",
        ["basepoint", "puncture", "radius"],
    ),
    (
        ["paths", "loops", "--punctures", "0", "1", "--basepoint", "0.5-1.5j", "--radius", "0.3"],
        "paths loops",
        ["basepoint", "punctures", "radius"],
    ),
    (
        ["fuchsian", "monodromy", "--conn", "{dir}/conn.json", "--loops", "{dir}/loops.json"],
        "fuchsian monodromy",
        ["conn", "loops", "tol"],
    ),
    (
        ["synth", "--targets", "{dir}/fam.json", "--loops", "{dir}/loops.json", "--points", "0", "--order", "1"],
        "synth",
        ["targets", "loops", "points", "reference", "order", "lam", "tol", "verify", "verify_tol"],
    ),
    (["kz", "braid", "--n", "2", "--lambda", "3"], "kz braid", ["n", "spin", "lam", "tol", "unitarize"]),
    (["kz", "verify", "--n", "2", "--lambda", "3"], "kz verify", ["n", "spin", "lam", "tol", "relation_tol"]),
    (
        ["universality", "screen", "--names", "X,Z", "--maxlen", "3"],
        "universality screen",
        ["gates", "names", "maxlen", "budget"],
    ),
    (
        ["universality", "coverage", "--names", "X,Z", "--maxlen", "3", "--samples", "3"],
        "universality coverage",
        ["gates", "names", "maxlen", "eps", "samples", "seed", "budget"],
    ),
    (
        ["pipeline", "--order", "1", "--zero-targets", "--maxlen", "2", "--budget", "10"],
        "pipeline",
        ["seed", "generators", "dim", "order", "lam", "radius", "tol",
         "verify_tol", "maxlen", "budget", "zero_targets"],
    ),
]


@pytest.mark.parametrize(
    "argv, command, keys",
    CONFIG_KEYS,
    ids=[" ".join(w for w in argv[:2] if not w.startswith("-")) for argv, _, _ in CONFIG_KEYS],
)
def test_report_config_lists_the_subcommand_options(argv, command, keys, tmp_path, capsys):
    conn = PointsConnection((0.0,), (np.array([[0.25]]),))
    (tmp_path / "conn.json").write_text(json.dumps(connection_to_json(conn)))
    (tmp_path / "loops.json").write_text(json.dumps(loops_to_json([generator_loop(2.0, 0.0, 0.5)])))
    targets = RepresentationFamily.exponential_targets([np.zeros((1, 1))] * 1, 1)
    (tmp_path / "fam.json").write_text(json.dumps(family_to_json(targets)))
    argv = [w.format(dir=tmp_path) for w in argv]
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "report.json"))
    assert code == 0
    report = read_report(tmp_path, "report.json")
    # every report opens with the envelope `main` writes: command, then config
    assert list(report)[:2] == ["command", "config"]
    assert report["command"] == command
    assert list(report["config"]) == keys + ["out", "format"]
    code, out, _ = run(capsys, *argv, "--format", "text")
    assert code == 0
    top = [line for line in out.splitlines() if not line.startswith(" ")]
    assert top[:2] == [f"command: {command}", "config:"]
    assert len(top) == len(report)


@pytest.mark.parametrize(
    "argv, body",
    [
        (["synth", "--verify", "--verify-tol", "1e-14"],
         ["family", "radius_estimate", "deviations"]),
        (["kz", "verify", "--n", "3", "--lambda", "3", "--relation-tol", "1e-20"],
         ["deviations", "radical_dim", "quotient_dim"]),
        (["pipeline", "--seed", "7", "--order", "2", "--verify-tol", "1e-13"],
         ["deviations", "screen", "gates"]),
    ],
    ids=["synth", "kz verify", "pipeline"],
)
def test_verification_failure_still_prints_the_full_report(argv, body, tmp_path, capsys):
    if argv[0] == "synth":
        argv = argv + _synth_inputs(tmp_path)
    code, out, _ = run(capsys, *argv)
    assert code == 3
    report = json.loads(out)
    assert list(report) == ["command", "config"] + body + ["verdict"]
    assert report["verdict"] == "deviation-above-tolerance"
    code, out, _ = run(capsys, *argv, "--format", "text")
    assert code == 3
    assert out.splitlines()[-1] == "verdict: deviation-above-tolerance"


def test_text_writes_null_true_and_false_as_json_does(capsys):
    assert _render_text({"out": None, "saturated": True, "partial": False, "rows": [None, True]}) == "\n".join([
        "out: null",
        "saturated: true",
        "partial: false",
        "rows:",
        "  - null",
        "  - true",
    ])
    code, out, _ = run(capsys, "gate", "--name", "H", "--format", "text")
    assert code == 0
    assert "  out: null" in out.splitlines() and "None" not in out


def test_text_marks_every_list_item(capsys):
    assert _render_text({"rows": [[1, 2], [3]], "pts": [{"re": 1.0, "im": 0.0}], "none": [],
                         "sizes": (1, 2)}) == "\n".join([
        "rows:",
        "  - - 1",
        "    - 2",
        "  - - 3",
        "pts:",
        "  - re: 1.0",
        "    im: 0.0",
        "none: []",
        "sizes:",
        "  - 1",
        "  - 2",
    ])
    # the three segments of a loop no longer run together, nor do matrix rows
    code, out, _ = run(capsys, "paths", "loop", "--basepoint", "2", "--puncture", "0",
                       "--radius", "0.5", "--format", "text")
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("  - kind:")] == [
        "  - kind: line", "  - kind: arc", "  - kind: line",
    ]
    code, out, _ = run(capsys, "gate", "--name", "X", "--format", "text")
    assert "    - - re: 0.0" in out.splitlines()
    # an empty list is written on its key's line, with no blank line after it
    code, out, _ = run(capsys, "kz", "verify", "--n", "3", "--lambda", "3", "--format", "text")
    assert code == 0
    assert "  far_commutation: []" in out.splitlines()
    assert "" not in out.splitlines()
