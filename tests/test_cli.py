"""CLI: subcommand behavior, exit codes, deterministic output."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qa_fairsample as qf
import qa_fairsample.cli as cli
from qa_fairsample.data import toy_embedding_path, toy_source_path

from conftest import count_calls, embedded_instances, forbid_integration


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


def test_each_subcommand_takes_exactly_these_options():
    # a flag added or removed is an edit here; validate and reproduce run
    # the bundled instance as defined, so they take no input overrides
    (subparsers,) = (
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    options = {
        name: [s for a in p._actions for s in a.option_strings if a.dest != "help"]
        for name, p in subparsers.choices.items()
    }
    assert options == {
        "solve": [],
        "anneal": ["--tau", "--steps", "--embedding", "--jf", "--s-set"],
        "embed": ["--jf"],
        "pt": ["--embedding", "--jf", "--s-set", "--dump-matrix"],
        "validate": [],
        "reproduce": ["--out"],
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--source", "x"],
        ["reproduce", "fig3b", "--out", "f", "--steps", "10"],
    ],
    ids=["validate-source", "reproduce-steps"],
)
def test_removed_overrides_are_usage_errors(tmp_path, argv):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "qa_fairsample", *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    usage, error = done.stderr.splitlines()
    assert usage.startswith("usage: qa-fairsample ")
    assert error == f"qa-fairsample: error: unrecognized arguments: {' '.join(argv[-2:])}"
    assert list(tmp_path.iterdir()) == []


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


def bundle(monkeypatch, tmp_path, name, edit):
    """Point the CLI's bundled-file path ``name`` at an edited copy."""
    path = getattr(cli, name)()
    data = json.loads(path.read_text())
    edit(data)
    copy = tmp_path / path.name
    copy.write_text(json.dumps(data))
    monkeypatch.setattr(cli, name, lambda: copy)


def test_validate_negative_chain_strength(capsys, tmp_path, monkeypatch):
    bundle(monkeypatch, tmp_path, "toy_embedding_path",
           lambda data: data.update(chain_strength=-1.0))
    code, _, err = run(capsys, "validate")
    assert code == 2
    assert "positive" in err


def flip_first_coupling(data):
    data["couplings"][0][2] = -1.0


def test_validate_flipped_coupling_exits_3(capsys, tmp_path, monkeypatch):
    bundle(monkeypatch, tmp_path, "toy_source_path", flip_first_coupling)
    code, out, _ = run(capsys, "validate")
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


FREE_PAIR = '{"num_spins": 2, "couplings": []}'


@pytest.mark.parametrize(
    "argv",
    [
        ("matsuda5", "--tau", "1e9"),
        ("matsuda5", "--tau", "20", "--steps", "10000000000"),
        # 50 steps, but about 2.5e297 Taylor substeps in each exponential
        ("matsuda5", "--embedding", "matsuda5_embedded", "--jf", "1e300", "--tau", "1"),
        # the rows need 8e6 amplitude-steps, but each exponential of the loop
        # takes up to 5001 Taylor substeps: this anneal once ran for 50 s
        ("matsuda5", "--embedding", "matsuda5_embedded", "--jf", "1e6", "--tau", "1"),
        # two 1-spin components of up to 6.25e7 Taylor substeps in each
        # exponential, which once ran for hours
        (FREE_PAIR, "--tau", "1e9", "--steps", "3"),
    ],
)
def test_anneal_over_the_cost_budget_exits_2(capsys, monkeypatch, tmp_path, argv):
    path = tmp_path / "free_pair.json"
    path.write_text(FREE_PAIR)
    argv = [str(path) if arg == FREE_PAIR else arg for arg in argv]
    forbid_integration(monkeypatch)
    start = time.perf_counter()
    code, out, err = run(capsys, "anneal", *argv)
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


OVERFLOWING_MODEL = {
    "num_spins": 4,
    "couplings": [[0, 1, 1], [0, 2, 1], [1, 2, -1], [0, 3, 1e308], [1, 3, 1e308]],
}


def test_anneal_with_overflowing_energies_exits_2(tmp_path):
    # finite couplings whose sums overflow: the energy table would hold
    # +-inf, and the Taylor substep count once ended in an OverflowError
    # traceback; the model is refused as it loads
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(OVERFLOWING_MODEL))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "qa_fairsample", "anneal", str(path), "--tau", "1"],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert "sum of |J| and |h| must be finite" in done.stderr


@pytest.mark.parametrize(
    "command", [["solve"], ["pt"], ["anneal", "--tau", "1"]], ids=["solve", "pt", "anneal"]
)
def test_models_whose_energies_overflow_exit_2(capsys, tmp_path, command):
    # solve once printed E_0 = -inf after a numpy RuntimeWarning, and pt
    # answered "resolved": true, both with exit 0
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(OVERFLOWING_MODEL))
    code, out, err = run(capsys, *command, str(path))
    assert code == 2
    assert out == ""
    assert "sum of |J| and |h| must be finite" in err


def test_anneal_step_count_too_large_for_a_float(capsys):
    # a 401-digit count once ended in an OverflowError traceback; at tau > 0
    # it is over the budget, at tau = 0 no step is taken
    steps = str(10**400 + 1)
    code, out, err = run(capsys, "anneal", "matsuda5", "--tau", "20", "--steps", steps)
    assert code == 2
    assert out == ""
    assert "more than 1000000000 steps" in err and "over the budget of 2e+09" in err
    code, out, _ = run(capsys, "anneal", "matsuda5", "--tau", "0", "--steps", steps)
    assert code == 0
    answer = json.loads(out)
    assert answer["steps"] == 10**400 + 1
    assert answer["error_estimate"] == 0.0
    assert set(answer["probabilities"].values()) == {1 / 32}


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


def pt_json_and_public_answer(source, template, jf):
    """``pt --embedding --jf`` on files of ``source`` and ``template``, as
    (exit code, stdout, stderr), and the public composition at that J_F:
    its answer cells after a JSON round trip, or what it raised."""
    with tempfile.TemporaryDirectory() as tmp:
        model_path, embedding_path = Path(tmp) / "model.json", Path(tmp) / "chains.json"
        model_path.write_text(json.dumps(source.to_dict()))
        embedding_path.write_text(json.dumps({
            "num_logical": template.num_logical,
            "chains": template.chains,
            "chain_strength": None,
            "coupling_assignment": template.coupling_assignment,
        }))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(
                ["pt", str(model_path), "--embedding", str(embedding_path),
                 "--jf", repr(jf)]
            )
    manifold = qf.enumerate_ground_states(source)
    embedding = template.with_chain_strength(jf)
    setup = qf.PerturbationSetup.from_model(qf.apply_embedding(source, embedding).model)
    try:
        pt = qf.perturbative_probabilities(setup)
        folded, _ = qf.project_and_fold(pt.probabilities, embedding, manifold)
        ratio = qf.fairness_ratio(folded, qf.default_partition(manifold))
    except (ValueError, qf.FairSamplingError) as exc:
        return (code, out.getvalue(), err.getvalue()), exc
    want = {
        "resolved_order": pt.resolved_order,
        "minimal_eigenvalue": pt.minimal_eigenvalue,
        "multiplicity": pt.multiplicity,
        "resolved": pt.resolved,
        "probabilities": {
            c.to_bitstring(): pt.probabilities[c] for c in setup.manifold.configs
        },
        "folded": {c.to_bitstring(): p for c, p in folded.items()},
        "ratio_PS_PC": ratio,
    }
    return (code, out.getvalue(), err.getvalue()), json.loads(json.dumps(want))


def assert_pt_is_the_public_composition(source, template, jf):
    (code, out, err), want = pt_json_and_public_answer(source, template, jf)
    if isinstance(want, Exception):
        assert (code, out, err) == (2, "", f"error: {want}\n")
        return
    assert (code, err) == (0, "")
    got = json.loads(out)
    assert {key: got[key] for key in want} == want


def two_classes(instance) -> bool:
    return len(qf.inversion_classes(qf.enumerate_ground_states(instance[0]))) > 1


# In one 150-example draw, ``pt`` answered 140 instances, and at 105 of them
# a chain-strength sweep refuses the same J_F at its gap analysis (no
# second-order connection, or a side without one).
@settings(max_examples=150, deadline=None)
@given(
    embedded_instances().filter(two_classes),
    st.sampled_from((0.05, 0.5, 1.0, 1.5, 3.0)),
)
def test_pt_is_the_public_composition_on_random_embedded_instances(instance, jf):
    assert_pt_is_the_public_composition(*instance, jf)


@pytest.mark.parametrize("jf", [0.5, 1.5])
def test_pt_answers_where_the_sweep_refuses_at_its_gap_analysis(jf):
    # logical spins 0-7 form a ferromagnetic chain and spin 8 is free: the
    # ground states differ by one flip or by nine, so no second-order
    # connection exists, yet PT decides at first order
    source = qf.IsingModel(9, tuple((k, k + 1, 1.0) for k in range(7)))
    chains = ((0, 9),) + tuple((k,) for k in range(1, 9))
    assignment = tuple(((k, k + 1), (9 if k == 0 else k, k + 1)) for k in range(7))
    template = qf.Embedding(9, chains, 1.0, assignment)
    with pytest.raises(ValueError, match="no second-order connections"):
        qf.sweep_chain_strength(source, template, (jf,), methods=("PT",))
    assert_pt_is_the_public_composition(source, template, jf)


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


def test_pt_refuses_an_oversized_manifold_before_any_d_by_d_array(
    capsys, tmp_path, monkeypatch
):
    # 15 free spins: d = 32,768, whose d x d matrices would take 8 GiB each
    built = []

    def spy(bits):
        built.append(len(bits))
        raise AssertionError(f"built a {len(bits)} x {len(bits)} first-order matrix")

    for module in ("pt", "cli"):
        monkeypatch.setattr(f"qa_fairsample.{module}._first_order_matrix", spy)
    path = tmp_path / "free.json"
    path.write_text('{"num_spins": 16, "couplings": [[0, 1, 1]]}')
    code, out, err = run(capsys, "pt", str(path))
    assert (code, out, built) == (2, "", [])
    assert err == (
        "error: 32768 ground states exceed the perturbation-theory guard of "
        f"{qf.pt.MAX_DEGENERACY}\n"
    )


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


@pytest.mark.parametrize("jf", ["3000000000000.5", "1e17"])
@pytest.mark.parametrize(
    "command",
    [["pt", "matsuda5", "--embedding", "matsuda5_embedded"],
     ["embed", "matsuda5", "matsuda5_embedded"]],
    ids=["pt", "embed"],
)
def test_chain_strength_that_swamps_the_source_exits_2(capsys, command, jf):
    # at this J_F the tie window relative to |E_0|, or float absorption,
    # merges lifts of excited source states into an all-intact manifold:
    # 14 and 32 ground states where exact arithmetic gives the 6 lifts
    code, out, err = run(capsys, *command, "--jf", jf)
    assert code == 2
    assert out == ""
    assert f"chain strength J_F = {float(jf)!r} swamps the source's levels" in err
    # 1e16 is still exact, and is answered
    code, out, _ = run(capsys, *command, "--jf", "1e16")
    assert code == 0 and out


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


@pytest.mark.parametrize("command", ["pt", "anneal"])
def test_an_embedded_command_lifts_the_source_manifold_once(
    capsys, monkeypatch, command
):
    # refusal and fold read one lift: one lift per source ground state
    manifolds = count_calls(monkeypatch, "_lift_manifold")
    configs = count_calls(monkeypatch, "_lift_bits")
    code, _, _ = run(capsys, *CLI_GOLDENS[f"cli_{command}_embedded.json"])
    assert code == 0
    assert (len(manifolds), len(configs)) == (1, 6)


def test_embed_enumerates_each_manifold_once(capsys, monkeypatch):
    calls = count_calls(monkeypatch, "enumerate_ground_states")
    code, _, _ = run(capsys, *CLI_GOLDENS["cli_embed.json"])
    assert code == 0
    assert sorted(model.num_spins for (model,) in calls) == [5, 6]


def _assert_close(got, want, where):
    """Equal keys, strings, types and lengths; floats equal at rel 1e-12."""
    if isinstance(want, float):
        assert type(got) is float, f"{where}: {got!r} is not a float"
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (
            f"{where}: {got!r} != {want!r}"
        )
    elif isinstance(want, dict):
        assert type(got) is dict and list(got) == list(want), f"{where}: keys differ"
        for key, value in want.items():
            _assert_close(got[key], value, f"{where}.{key}")
    elif isinstance(want, list):
        assert type(got) is list and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def assert_output_matches_golden(text, name):
    """Compare a command's standard output with ``tests/data/<name>``.

    A ``.json`` answer compares value by value as ``_assert_close`` does; a
    text answer, whose numbers are printed rounded, line for line.
    """
    want = (Path(__file__).parent / "data" / name).read_text(encoding="utf-8")
    if name.endswith(".json"):
        _assert_close(json.loads(text), json.loads(want), name)
    else:
        assert text.splitlines() == want.splitlines()


# the committed answers of the bundled instance
CLI_GOLDENS = {
    "cli_solve.txt": ["solve", "matsuda5"],
    "cli_validate.txt": ["validate"],
    "cli_pt.json": ["pt", "matsuda5"],
    "cli_pt_embedded.json": [
        "pt", "matsuda5", "--embedding", "matsuda5_embedded", "--jf", "1",
        "--dump-matrix",
    ],
    "cli_embed.json": ["embed", "matsuda5", "matsuda5_embedded", "--jf", "1"],
    "cli_anneal.json": ["anneal", "matsuda5", "--tau", "20"],
    "cli_anneal_embedded.json": [
        "anneal", "matsuda5", "--tau", "20", "--embedding", "matsuda5_embedded",
        "--jf", "1",
    ],
}


@pytest.mark.parametrize("name", CLI_GOLDENS)
def test_cli_answer_matches_its_golden(capsys, name):
    code, out, err = run(capsys, *CLI_GOLDENS[name])
    assert (code, err) == (0, "")
    assert_output_matches_golden(out, name)


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
    # a batch of one model writes the bytes of the full preset's J_F = 1 rows
    golden = (Path(__file__).parent / "data" / "fig3a.csv").read_bytes()
    header, *rows = golden.splitlines(keepends=True)
    want = [header, *(r for r in rows if r.startswith(b"embedded[jf=1],"))]
    assert out_path.read_bytes() == b"".join(want)


@pytest.mark.parametrize(
    "name, problem",
    [
        ("missing/fig3b.csv", "its directory does not exist"),
        # the atomic rename onto a directory would fail only after the work
        ("figures", "it is a directory"),
        (".", "it is a directory"),
    ],
    ids=["missing-directory", "existing-directory", "current-directory"],
)
def test_reproduce_into_a_missing_directory_exits_2_before_any_work(
    capsys, tmp_path, monkeypatch, name, problem
):
    def work(*args, **kwargs):
        raise AssertionError("the preset ran before --out was checked")

    monkeypatch.setattr(cli, "validate_toy_model", work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "figures").mkdir()
    code, out, err = run(capsys, "reproduce", "fig3b", "--out", name)
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write --out {name}: {problem}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["figures"]


def test_reproduce_aborts_on_validation_failure(capsys, tmp_path, monkeypatch):
    bundle(monkeypatch, tmp_path, "toy_source_path", flip_first_coupling)
    out_path = tmp_path / "never.csv"
    code, _, err = run(capsys, "reproduce", "fig3b", "--out", str(out_path))
    assert code == 3
    assert "FAIL" in err
    assert not out_path.exists()
