"""CLI: subcommand behavior, exit codes, deterministic output."""

import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qa_fairsample as qf
import qa_fairsample.cli as cli
from qa_fairsample.data import toy_embedding_path, toy_source_path


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ solve


def test_solve_bundled_model(capsys):
    code, out, _ = run(capsys, "solve", "matsuda5")
    assert code == 0
    assert "E_0 = -4" in out
    assert "degeneracy = 6" in out
    assert "↑↑↑↑↑" in out  # the fully aligned state
    assert "11001" in out


def test_solve_two_spin_fixture(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text('{"num_spins": 2, "couplings": [[0, 1, 1.0]]}')
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0
    assert "E_0 = -1" in out
    assert "degeneracy = 2" in out
    assert "↑↑" in out and "↓↓" in out


def test_solve_truncated_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"num_spins": 2, "couplings": [[0, 1,')
    code, _, err = run(capsys, "solve", str(path))
    assert code == 2
    assert "line" in err and "column" in err


def test_solve_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "solve", str(tmp_path / "nope.json"))
    assert code == 2
    assert err


@pytest.mark.parametrize(
    "text",
    [
        '{"num_spins": true, "couplings": []}',
        '{"num_spins": 2, "couplings": [[0.5, 1, 1.0]]}',
        '{"num_spins": 2, "couplings": [[0, 1, NaN]]}',
        '{"num_spins": 2, "couplings": [[0, 1, 1e400]]}',
        '{"num_spins": 2, "couplings": [[0, 1, 1.0]], "fields": [NaN, 0.0]}',
        '{"num_spins": 2, "couplings": [[0, 1, 1.0]], "fields": [1e400, 0.0]}',
    ],
    ids=[
        "bool-num-spins",
        "fractional-index",
        "nan-coupling",
        "overflow-coupling",
        "nan-field",
        "overflow-field",
    ],
)
def test_solve_rejects_invalid_model_values(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    assert "must be" in err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["solve", "matsuda5", "--nope"])
    assert excinfo.value.code == 2


# One interpreter runs each command line through cli.main in turn and
# reports, per call, the exit code (argparse's SystemExit included), stdout
# and stderr; it also reports whether importing the CLI built its parser.
IN_ONE_PROCESS = """
import contextlib, io, json, sys
from qa_fairsample import cli
built_at_import = cli.build_parser.cache_info().currsize
calls = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    calls.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"built_at_import": built_at_import, "calls": calls}))
"""


def test_one_process_answers_as_separate_processes():
    pt = ["pt", "matsuda5", "--embedding", "matsuda5_embedded", "--jf", "0.5"]
    argvs = [pt, ["pt", "matsuda5", "--s-set", "9"], ["pt", "--bogus"], pt]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    shared = subprocess.run(
        [sys.executable, "-c", IN_ONE_PROCESS, json.dumps(argvs)],
        capture_output=True, text=True, env=env, check=True,
    )
    report = json.loads(shared.stdout)
    assert report["built_at_import"] == 0
    separate = [
        subprocess.run(
            [sys.executable, "-m", "qa_fairsample", *argv],
            capture_output=True, text=True, env=env,
        )
        for argv in argvs
    ]
    assert report["calls"] == [[p.returncode, p.stdout, p.stderr] for p in separate]
    assert [code for code, _, _ in report["calls"]] == [0, 2, 2, 0]
    assert "usage: qa-fairsample pt" in report["calls"][2][2]


# --------------------------------------------------------------- validate


def test_validate_bundled_files(capsys):
    code, out, _ = run(capsys, "validate")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 14  # 11 toy clauses + 3 embedding reports


def test_validate_prints_its_clauses_in_order(capsys):
    _, out, _ = run(capsys, "validate")
    names = [line.split()[1].rstrip(":") for line in out.splitlines()]
    per_jf = [
        f"{clause}[jf={jf}]"
        for jf in ("0.5", "1", "1.5")
        for clause in (
            "embedded_degeneracy_unbroken",
            "embedded_first_order_zero",
            "second_order_closed_form",
        )
    ]
    assert names == [
        "source_degeneracy",
        *per_jf,
        "source_first_order_nonzero",
        *(f"embedding_bijective[jf={jf}]" for jf in ("0.5", "1", "1.5")),
    ]


def test_validate_negative_chain_strength(capsys, tmp_path):
    data = json.loads(toy_embedding_path().read_text())
    data["chain_strength"] = -1.0
    bad = tmp_path / "neg.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, "validate", "--embedded", str(bad))
    assert code == 2
    assert "positive" in err


def test_validate_flipped_coupling_exits_3(capsys, tmp_path):
    data = json.loads(toy_source_path().read_text())
    data["couplings"][0][2] = -1.0
    bad = tmp_path / "flipped.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run(capsys, "validate", "--source", str(bad))
    assert code == 3
    assert "FAIL  source_degeneracy" in out


# ------------------------------------------------------------------ anneal


def test_anneal_tau_zero_uniform(capsys):
    code, out, _ = run(capsys, "anneal", "matsuda5", "--tau", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["tau"] == 0.0
    for p in payload["probabilities"].values():
        assert p == pytest.approx(1.0 / 32.0, abs=1e-12)
    for p in payload["folded"].values():
        assert p == pytest.approx(2.0 / 32.0, abs=1e-12)
    assert payload["ratio_PS_PC"] == pytest.approx(1.0, abs=1e-12)
    assert payload["excited_weight"] == pytest.approx(26.0 / 32.0, abs=1e-12)


def test_anneal_embedded_smoke(capsys):
    code, out, _ = run(
        capsys, "anneal", "matsuda5",
        "--embedding", "matsuda5_embedded", "--jf", "1.0", "--tau", "5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["norm_drift"] <= 1e-6
    assert payload["error_estimate"] <= 1e-6
    assert set(payload["folded"]) == {"00000", "11000", "00110"}
    total = sum(payload["folded"].values()) + payload["excited_weight"]
    assert total == pytest.approx(1.0, abs=1e-9)


def test_anneal_integration_failure_exits_4(capsys):
    # under-resolved for CFM4: the step-doubling estimate trips
    code, out, err = run(
        capsys, "anneal", "matsuda5", "--tau", "200", "--steps", "40"
    )
    assert code == 4
    assert out == ""
    assert "error estimate" in err and "drift" in err


def test_anneal_coarse_long_anneal_exits_4(capsys):
    # 100 steps over tau = 1000 once produced NaN probabilities with exit 0
    code, out, err = run(
        capsys, "anneal", "matsuda5", "--tau", "1000", "--steps", "100"
    )
    assert code == 4
    assert out == ""
    assert "budget" in err


@pytest.mark.parametrize("tau", ["inf", "nan", "-1"])
def test_anneal_rejects_bad_tau(capsys, tau):
    code, out, err = run(capsys, "anneal", "matsuda5", "--tau", tau)
    assert code == 2
    assert out == ""
    assert "tau" in err


@pytest.mark.parametrize(
    "argv", [("--tau", "1e9"), ("--tau", "20", "--steps", "10000000000")]
)
def test_anneal_over_the_cost_budget_exits_2(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, "anneal", "matsuda5", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "amplitude-steps" in err and "over the budget of 2e+09" in err


def test_anneal_tau_beyond_any_step_count_exits_2(capsys):
    # 2 * tau overflows to inf: refused before a step count is computed
    code, out, err = run(capsys, "anneal", "matsuda5", "--tau", "1e308")
    assert code == 2
    assert out == ""
    assert "default policy" in err and "over the budget of 2e+09" in err


def test_anneal_bad_model_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"num_spins": 2}')
    code, _, err = run(capsys, "anneal", str(path), "--tau", "1")
    assert code == 2


def test_anneal_no_renormalize_is_not_an_option(capsys):
    # the raw weights are the printed ones times norm_squared, which the
    # JSON already carries
    with pytest.raises(SystemExit) as exc:
        run(capsys, "anneal", "matsuda5", "--tau", "1", "--no-renormalize")
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-renormalize" in capsys.readouterr().err


def test_cli_probabilities_are_the_api_answers(capsys):
    # anneal keys the source ground configs and reads each at its lift; pt
    # keys the target ground configs and reads each at its own bits
    flags = ("--embedding", "matsuda5_embedded", "--jf", "0.5")
    source = qf.load_model(toy_source_path())
    embedding = qf.load_embedding(toy_embedding_path(), chain_strength=0.5)
    target = qf.apply_embedding(source, embedding).model

    code, out, _ = run(capsys, "anneal", "matsuda5", "--tau", "20", *flags)
    assert code == 0
    result = qf.evolve(target, qf.AnnealSchedule.for_tau(20.0))
    vector = result.final_probabilities.vector
    assert json.loads(out)["probabilities"] == {
        g.to_bitstring(): float(vector[qf.lift_state(g, embedding).bits])
        for g in qf.enumerate_ground_states(source).configs
    }

    code, out, _ = run(capsys, "pt", "matsuda5", *flags)
    assert code == 0
    setup = qf.PerturbationSetup.from_model(target)
    vector = qf.perturbative_probabilities(setup).probabilities.vector
    assert json.loads(out)["probabilities"] == {
        c.to_bitstring(): float(vector[c.bits]) for c in setup.manifold.configs
    }


# ---------------------------------------------------------------------- pt


def test_pt_embedded_dump_matrix(capsys):
    code, out, _ = run(
        capsys, "pt", "matsuda5",
        "--embedding", "matsuda5_embedded", "--jf", "1", "--dump-matrix",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["resolved_order"] == 2
    second = payload["second_order"]["entries"]
    assert len(second) == 6 and len(second[0]) == 6
    for i in range(6):
        assert -second[i][i] == pytest.approx(7.0 / 3.0, abs=1e-9)
    first = payload["first_order"]["entries"]
    assert all(v == 0.0 for row in first for v in row)
    for p in payload["folded"].values():
        assert p == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert payload["ratio_PS_PC"] == pytest.approx(1.0, abs=1e-9)


def test_pt_source_suppression(capsys):
    code, out, _ = run(capsys, "pt", "matsuda5")
    assert code == 0
    payload = json.loads(out)
    assert payload["resolved_order"] == 1
    assert payload["ratio_PS_PC"] == 0.0
    assert payload["probabilities"]["11111"] == 0.0


def test_pt_custom_partition(capsys):
    code, out, _ = run(capsys, "pt", "matsuda5", "--s-set", "1")
    assert code == 0
    payload = json.loads(out)
    # source PT folds to (0, 1/2, 1/2); S = second class, C = the others
    assert payload["ratio_PS_PC"] == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("partition", [("--s-set", "5"), ("--s-set", "-1")])
def test_pt_rejects_class_index_out_of_range(capsys, partition):
    code, out, err = run(capsys, "pt", "matsuda5", *partition)
    assert code == 2
    assert out == ""
    assert f"class index {partition[1]} is outside 0..2" in err


@pytest.mark.parametrize("command", ["pt", "anneal"])
def test_repeated_class_index_exits_2(capsys, command):
    # a repeat would weight class 1 twice in the S mean
    argv = [command, "matsuda5", "--s-set", "0", "1", "1"]
    if command == "anneal":
        argv += ["--tau", "1"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "partition set S repeats a member" in err


@pytest.mark.parametrize("command", ["pt", "anneal"])
def test_c_set_is_not_an_option(capsys, command):
    # C is always the complement of --s-set: folding lists every class, and
    # fairness_ratio refuses classes outside the partition
    tau = ("--tau", "1") if command == "anneal" else ()
    with pytest.raises(SystemExit) as exc:
        run(capsys, command, "matsuda5", *tau, "--s-set", "0", "--c-set", "1")
    assert exc.value.code == 2
    assert "unrecognized arguments: --c-set 1" in capsys.readouterr().err


FIELDED_PAIR_MODEL = (
    '{"num_spins": 4, "couplings": [[0, 1, 1], [1, 2, -1], [2, 3, 1], [0, 3, 1]], '
    '"fields": [0.5, 0, -0.25, 0]}'
)


@pytest.mark.parametrize("command", [("pt",), ("anneal", "--tau", "5")])
def test_fielded_model_whose_inversions_are_excited(capsys, tmp_path, command):
    # ground bits 3 and 11; the inversion 4 of 11 is excited and names its class
    path = tmp_path / "fielded.json"
    path.write_text(FIELDED_PAIR_MODEL)
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 0, err
    payload = json.loads(out)
    assert sorted(payload["folded"]) == ["0010", "1100"]
    assert math.isfinite(payload["ratio_PS_PC"])


@pytest.mark.parametrize(
    "command", [("pt",), ("anneal", "--tau", "5")], ids=["pt", "anneal"]
)
def test_chain_strength_without_embedding_exits_2(capsys, command):
    code, out, err = run(capsys, command[0], "matsuda5", "--jf", "0.3", *command[1:])
    assert code == 2
    assert out == ""
    assert "--jf needs --embedding" in err


def test_pt_reports_whether_it_resolved(capsys, tmp_path):
    code, out, _ = run(
        capsys, "pt", "matsuda5", "--embedding", "matsuda5_embedded", "--jf", "0.5"
    )
    assert code == 0
    assert json.loads(out)["resolved"] is True
    # two independent three-spin chains: a 4-fold minimum after second order
    path = tmp_path / "two_chains.json"
    path.write_text(
        '{"num_spins": 6, "couplings": [[0, 3, 1], [1, 3, -1], [2, 5, -1], [4, 5, 1]]}'
    )
    code, out, _ = run(capsys, "pt", str(path), "--s-set", "0")
    assert code == 0
    payload = json.loads(out)
    assert (payload["resolved_order"], payload["multiplicity"]) == (2, 4)
    assert payload["resolved"] is False


def test_pt_deterministic_output(capsys):
    _, first, _ = run(capsys, "pt", "matsuda5", "--dump-matrix")
    _, second, _ = run(capsys, "pt", "matsuda5", "--dump-matrix")
    assert first == second


# -------------------------------------------------------------------- embed


def test_embed_subcommand(capsys):
    code, out, _ = run(
        capsys, "embed", "matsuda5", "matsuda5_embedded", "--jf", "1.0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["model"]["num_spins"] == 6
    assert len(payload["model"]["couplings"]) == 9
    assert payload["report"]["bijective"] is True
    assert payload["report"]["embedded_energy"] == -5.0


@pytest.mark.parametrize("jf", ["nan", "inf"])
def test_embed_rejects_non_finite_chain_strength(capsys, jf):
    code, out, err = run(capsys, "embed", "matsuda5", "matsuda5_embedded", "--jf", jf)
    assert code == 2
    assert out == ""
    assert "chain strength must be positive and finite" in err


@pytest.mark.parametrize("stored", [True, "0.5"])
@pytest.mark.parametrize("override", [(), ("--jf", "1.0")], ids=["stored", "override"])
def test_embedding_file_non_numeric_chain_strength_exits_2(
    capsys, tmp_path, stored, override
):
    # the stored value is checked even when --jf replaces it
    data = json.loads(toy_embedding_path().read_text())
    data["chain_strength"] = stored
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run(capsys, "embed", "matsuda5", str(bad), *override)
    assert code == 2
    assert out == ""
    assert "chain strength must be positive and finite" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("chains", [[0], [1], [2], [3], [4, 5.7]]),
        ("chains", [[0], [1], [2], [3], [4, 5.0]]),
        ("num_logical", True),
        ("coupling_assignment", [[[0, 1], [0, 1.5]]]),
    ],
)
@pytest.mark.parametrize("command", ["embed", "anneal"])
def test_embedding_file_non_integer_index_exits_2(capsys, tmp_path, command, key, value):
    data = json.loads(toy_embedding_path().read_text())
    data[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    if command == "embed":
        argv = ("embed", "matsuda5", str(bad), "--jf", "1.0")
    else:
        argv = ("anneal", "matsuda5", "--embedding", str(bad), "--jf", "1.0", "--tau", "1")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be an integer" in err


PAIRS = "'coupling_assignment' must be a list of [[i, j], [p, q]] pairs"


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("chains", [0, 1, 2], "'chains' must be a list of lists"),
        ("coupling_assignment", [[0, 1]], PAIRS),
        ("coupling_assignment", [[[0, 1], [0, 1, 2]]], PAIRS),
        ("coupling_assignment", {"0": 1}, PAIRS),
    ],
    ids=["chain-not-a-list", "pair-not-a-list", "pair-of-three", "not-a-list"],
)
@pytest.mark.parametrize("command", ["embed", "pt", "anneal"])
def test_embedding_file_of_the_wrong_shape_exits_2(
    capsys, tmp_path, command, key, value, message
):
    # shapes are checked where the file enters, so no TypeError escapes
    data = json.loads(toy_embedding_path().read_text())
    data[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    argv = {
        "embed": ("embed", "matsuda5", str(bad), "--jf", "1.0"),
        "pt": ("pt", "matsuda5", "--embedding", str(bad), "--jf", "1.0"),
        "anneal": ("anneal", "matsuda5", "--embedding", str(bad), "--jf", "1.0",
                   "--tau", "1"),
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


# ---------------------------------------------------------------- reproduce


def test_reproduce_fig3b(capsys, tmp_path):
    out_path = tmp_path / "fig3b.csv"
    code, out, _ = run(capsys, "reproduce", "fig3b", "--out", str(out_path))
    assert code == 0
    assert "wrote" in out
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 41  # header + 40 PT rows
    header = lines[0].split(",")
    assert header[:4] == ["model", "parameter", "method", "P_1"]
    fair_row = next(l for l in lines[1:] if l.startswith("embedded[jf=1],"))
    cells = fair_row.split(",")
    p_values = [float(cells[i]) for i in (3, 4, 5)]
    for p in p_values:
        assert p == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert float(cells[7]) == pytest.approx(1.0)  # gap ratio at the fair point

    # byte-identical on rerun
    second_path = tmp_path / "fig3b_again.csv"
    run(capsys, "reproduce", "fig3b", "--out", str(second_path))
    assert out_path.read_bytes() == second_path.read_bytes()


def assert_matches_golden(out_path, name):
    """Compare a preset CSV with ``tests/data/<name>``, the committed output.

    Values may differ in the last bits only; the header, the model and
    method labels and the blank cells not at all.
    """
    golden_path = Path(__file__).parent / "data" / name
    with open(out_path, newline="") as got_fh, open(golden_path, newline="") as want_fh:
        got, want = list(csv.reader(got_fh)), list(csv.reader(want_fh))
    assert got[0] == want[0]
    assert len(got) == len(want)
    for got_row, want_row in zip(got[1:], want[1:]):
        assert len(got_row) == len(want_row)
        assert (got_row[0], got_row[2]) == (want_row[0], want_row[2])
        for i in (1, *range(3, len(want_row))):
            g, w = got_row[i], want_row[i]
            if w == "" or g == "":
                assert g == w, f"{want_row[0]} column {want[0][i]}"
            else:
                assert math.isclose(float(g), float(w), rel_tol=1e-12, abs_tol=0.0), (
                    f"{want_row[0]} column {want[0][i]}: {g} != {w}"
                )


def test_reproduce_fig3b_matches_the_golden_csv(capsys, tmp_path):
    out_path = tmp_path / "fig3b.csv"
    code, _, _ = run(capsys, "reproduce", "fig3b", "--out", str(out_path))
    assert code == 0
    assert_matches_golden(out_path, "fig3b.csv")


def test_reproduce_fig2_small_grid(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "fig2_tau_grid", lambda: [1.0, 2.0])
    out_path = tmp_path / "fig2.csv"
    code, _, _ = run(capsys, "reproduce", "fig2", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 9  # header + 2 taus x (original + 3 embeddings)
    assert lines[1].startswith("original,1,SE")
    assert lines[2].startswith("embedded[jf=0.5],1,SE")
    assert_matches_golden(out_path, "fig2_tau_1_2.csv")


def test_reproduce_fig3a_single_point(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "fig3_chain_grid", lambda: [1.0])
    out_path = tmp_path / "fig3a.csv"
    code, _, _ = run(capsys, "reproduce", "fig3a", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 3  # header + PT row + SE row
    pt_cells = lines[1].split(",")
    se_cells = lines[2].split(",")
    assert pt_cells[2] == "PT" and se_cells[2] == "SE"
    for i in (3, 4, 5):
        assert float(pt_cells[i]) == pytest.approx(float(se_cells[i]), abs=0.01)
    assert se_cells[-1] != ""  # SE rows report their norm drift
    assert float(se_cells[-1]) <= 1e-6
    assert_matches_golden(out_path, "fig3a_jf_1.csv")


def test_reproduce_aborts_on_validation_failure(capsys, tmp_path):
    data = json.loads(toy_source_path().read_text())
    data["couplings"][0][2] = -1.0
    bad = tmp_path / "flipped.json"
    bad.write_text(json.dumps(data))
    out_path = tmp_path / "never.csv"
    code, _, err = run(
        capsys, "reproduce", "fig3b", "--out", str(out_path), "--source", str(bad)
    )
    assert code == 3
    assert "FAIL" in err
    assert not out_path.exists()
