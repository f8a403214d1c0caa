"""Command-line harness: config validation, artifacts, determinism, exit codes."""

import json

import numpy as np
import pytest

from hwvqe import locate
from hwvqe.ansatz import circuit_from_text
from hwvqe.cli import ConfigError, load_config, main
from hwvqe.problem import (
    PortfolioProblem,
    ingest_csv,
    load_graph,
    load_portfolio,
    save_portfolio,
    synth_assets,
    synth_graph,
)


def _write_config(tmp_path, name="cfg.json", **overrides):
    doc = {
        "problem": {"kind": "synth-portfolio", "n": 10, "seed": 4, "q": 0.9, "budget": 5},
        "mode": "soft",
        "reorder": "by-return",
        "cvar": {"alpha_start": 0.05, "alpha_cap": 1.0, "shots": 512},
        "schedule": {"counts": [4, 1], "epochs": [12, 16], "rho_pi": [0.15, 0.1]},
        "seed": 3,
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


# ---------------------------------------------------------------------------
# configuration loading
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["portfolio12", "portfolio40", "bisection12"])
def test_bundled_configs_load(name):
    cfg = load_config(name)
    assert cfg.source_path == f"bundled:{name}.json"
    assert cfg.problem["kind"] in ("synth-portfolio", "synth-graph")


def test_missing_config_is_a_config_error():
    with pytest.raises(ConfigError):
        load_config("no-such-config-anywhere")


def test_invalid_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "problem": {,}\n}\n')
    rc = main(["solve", "--config", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{path}:2" in err and "invalid JSON" in err


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"mode": "warm"}, "mode"),
        ({"theta0_pi": 1.5}, "theta0_pi"),
        ({"schedule": {"counts": [4, 1], "epochs": [12], "rho_pi": [0.15, 0.1]}}, "schedule"),
        ({"cvar": {"alpha_start": 0.9, "alpha_cap": 0.1}}, "alpha_start"),
        ({"surprise": 1}, "surprise"),
        ({"problem": {"kind": "synth-portfolio"}}, "problem"),
        ({"problem": {"kind": "mystery", "n": 8, "seed": 1}}, "kind"),
        ({"cap": 0}, "cap"),
        ({"study": [0.1]}, "study"),
        ({"study": {"seeds": [0, 1]}}, "seeds"),
        ({"study": {"alphas": [0.5, 1.5]}}, "alphas"),
        ({"study": {"betas": [1, "8"]}}, "betas"),
        ({"curves": {"points": 4.5}}, "points"),
        # a graph problem holds no "seed" key, so the top-level one is the first
        (
            {
                "seed": 1.5,
                "problem": {"kind": "synth-graph", "n": 8, "p_edge": 0.5, "seed_graph": 1, "seed_weights": 2},
            },
            "seed",
        ),
        ({"cvar": {"alpha_start": [1]}}, "alpha_start"),
        ({"mode": "hard", "depth": "2"}, "depth"),
        ({"schedule": {"counts": 5, "epochs": [12, 16], "rho_pi": [0.15, 0.1]}}, "counts"),
        ({"schedule": {"counts": [4, 1], "epochs": [1.5, 16], "rho_pi": [0.15, 0.1]}}, "epochs"),
        ({"cvar": {"shots": "many"}}, "shots"),
        ({"cap": "x"}, "cap"),
        ({"theta0_pi": "a"}, "theta0_pi"),
        # a portfolio budget must leave both sides of the selection non-empty
        ({"problem": {"kind": "synth-portfolio", "n": 10, "seed": 4, "budget": 0}}, "budget"),
        ({"problem": {"kind": "synth-portfolio", "n": 10, "seed": 4, "budget": 10}}, "budget"),
        ({"problem": {"kind": "synth-portfolio", "n": 10, "seed": 4, "budget": -1}}, "budget"),
        ({"problem": {"kind": "synth-portfolio", "n": 10, "seed": 4, "budget": 11}}, "budget"),
        (
            {"problem": {"kind": "synth-portfolio", "n": 10, "seed": 4, "budget": 0}, "theta0_pi": 0.65},
            "budget",
        ),
    ],
)
def test_validation_errors_cite_the_offending_line(tmp_path, capsys, overrides, key):
    path = _write_config(tmp_path, **overrides)
    rc = main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(path) in err
    expected_line = next(
        i
        for i, line in enumerate(path.read_text().splitlines(), start=1)
        if f'"{key}"' in line
    )
    assert f":{expected_line}:" in err


@pytest.mark.parametrize(
    "last_line, key",
    [
        ('  "seed": 1.5', "seed"),  # problem.seed comes first
        ('  "study": {"shots": "x"}', "study shots"),  # cvar.shots comes first
    ],
    ids=["top-level-seed", "study-shots"],
)
def test_key_error_cites_the_line_of_its_own_key_path(tmp_path, capsys, last_line, key):
    path = tmp_path / "cfg.json"
    path.write_text(
        "{\n"
        '  "problem": {"kind": "synth-portfolio", "n": 8,\n'
        '              "seed": 4, "budget": 4},\n'
        '  "cvar": {"shots": 64},\n'
        f"{last_line}\n"
        "}\n"
    )
    rc = main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{path}:5: {key} must be" in err


@pytest.mark.parametrize("command", ["solve", "curves", "interpolate", "study", "bruteforce"])
def test_width_beyond_int64_packing_is_a_config_error(tmp_path, capsys, command):
    path = _write_config(
        tmp_path,
        problem={"kind": "synth-portfolio", "n": 64, "seed": 4, "budget": 32},
        mode="hard",
        depth=2,
    )
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    n_line = path.read_text().splitlines().index('    "n": 64,') + 1
    assert f"{path}:{n_line}:" in err
    assert "62-qubit limit of int64 bit packing" in err


def test_portfolio_file_budget_error_cites_the_path_line(tmp_path, capsys):
    instance = tmp_path / "p.json"
    p = synth_assets(8, 3)
    save_portfolio(PortfolioProblem(n=8, q=p.q, A=p.A, mu=p.mu, budget=8), instance)
    path = _write_config(tmp_path, problem={"kind": "portfolio-file", "path": str(instance)})
    rc = main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    path_line = next(i for i, line in enumerate(path.read_text().splitlines(), start=1) if '"path"' in line)
    assert f"{path}:{path_line}: portfolio budget 8 outside 1..7" in err


def test_negative_seed_override_names_the_flag(capsys):
    rc = main(["solve", "--config", "portfolio12", "--seed", "-1"])
    assert rc == 1
    assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err


def test_gen_data_writes_instances_beyond_int64_packing(tmp_path):
    path = _write_config(tmp_path, problem={"kind": "synth-graph", "n": 64, "p_edge": 0.1,
                                            "seed_graph": 1, "seed_weights": 2})
    assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "data")]) == 0
    assert load_graph(tmp_path / "data" / "graph.txt").n == 64


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_agrees_with_bruteforce(tmp_path):
    cfg = _write_config(tmp_path)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
    assert main(["bruteforce", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    sol = json.loads((tmp_path / "s" / "solution.json").read_text())
    brute = json.loads((tmp_path / "b" / "bruteforce.json").read_text())
    assert sol["solution"]["bits"] == brute["solution"]["bits"]
    assert sol["solution"]["energy"] == pytest.approx(brute["solution"]["energy"], abs=1e-12)
    assert sol["search_spec"] == {"n": 10, "k": 5}
    assert sol["version"]
    assert sol["config"]["seed"] == 3
    # the trace carries the provenance header
    trace = (tmp_path / "s" / "trace.csv").read_text().splitlines()
    assert trace[0].startswith("# hwvqe ")
    assert trace[1].startswith("# config {")
    assert trace[2].startswith("iteration,epoch,alpha,beta,")
    assert len(trace) == 3 + 12 + 16  # headers + one row per epoch


def test_solve_reruns_are_byte_identical(tmp_path):
    cfg = _write_config(tmp_path)
    main(["solve", "--config", str(cfg), "--out", str(tmp_path / "r1")])
    main(["solve", "--config", str(cfg), "--out", str(tmp_path / "r2")])
    for name in ("solution.json", "trace.csv", "locate.json"):
        a = (tmp_path / "r1" / name).read_bytes()
        b = (tmp_path / "r2" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_seed_override_changes_the_trace(tmp_path):
    cfg = _write_config(tmp_path)
    main(["solve", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["solve", "--config", str(cfg), "--seed", "99", "--out", str(tmp_path / "c")])
    assert (tmp_path / "a" / "trace.csv").read_text() != (tmp_path / "c" / "trace.csv").read_text()
    sol = json.loads((tmp_path / "c" / "solution.json").read_text())
    assert sol["config"]["seed"] == 99


def test_solve_fixed_top_bit_graph_lifts_solution(tmp_path):
    cfg = _write_config(
        tmp_path,
        problem={
            "kind": "synth-graph",
            "n": 10,
            "p_edge": 0.5,
            "seed_graph": 21,
            "seed_weights": 22,
            "offset": -4.0,
            "fixed_top_bit": True,
        },
        reorder="none",
        theta0_pi=0.75,
        seed=2,
    )
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "g")]) == 0
    assert main(["bruteforce", "--config", str(cfg), "--out", str(tmp_path / "gb")]) == 0
    sol = json.loads((tmp_path / "g" / "solution.json").read_text())
    brute = json.loads((tmp_path / "gb" / "bruteforce.json").read_text())
    assert sol["flags"]["locate_skipped"]  # reduced width 9 is odd
    assert len(sol["solution"]["bits"]) == 10
    assert sol["solution"]["bits"][0] == "1"  # the pinned node
    assert sol["solution"]["bits"] == brute["solution"]["bits"]
    assert sol["search_spec"] == {"n": 9, "k": 4}


def test_solve_mirrors_a_left_target_on_an_unpinned_graph(tmp_path):
    # a bisection costs a split and its complement the same, so its level-1
    # curve is symmetric and reversing the nodes reproduces the left target
    # (fitted vertex just under 3.5) that close_to_solution_theta refuses
    cfg = _write_config(
        tmp_path,
        problem={"kind": "synth-graph", "n": 14, "p_edge": 0.5, "seed_graph": 8, "seed_weights": 9},
        reorder="auto",
    )
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "m")]) == 0
    assert main(["bruteforce", "--config", str(cfg), "--out", str(tmp_path / "mb")]) == 0
    sol = json.loads((tmp_path / "m" / "solution.json").read_text())
    brute = json.loads((tmp_path / "mb" / "bruteforce.json").read_text())
    assert sol["flags"]["mirror_applied"] and "reversal_applied" not in sol["flags"]
    assert sol["predicted"] == "sa^1_[4]"  # the fitted cell 3, mirrored
    assert sol["solution"]["energy"] == pytest.approx(brute["solution"]["energy"], abs=1e-12)


def test_solve_odd_width_without_theta0_is_a_config_error(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        problem={
            "kind": "synth-graph",
            "n": 10,
            "p_edge": 0.5,
            "seed_graph": 21,
            "seed_weights": 22,
            "fixed_top_bit": True,
        },
        reorder="none",
    )
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "theta0_pi" in capsys.readouterr().err


def test_solve_flags_unreachable_cell_with_exit_2(tmp_path):
    # two return islands straddling the halves plant the optimum in the
    # largest middle cell, which the cap excludes from exact enumeration
    n = 24
    mu = np.zeros(n)
    mu[0:6] = 0.02
    mu[12:18] = 0.02
    planted = PortfolioProblem(n=n, q=0.9, A=np.eye(n) * 1e-6, mu=mu, budget=12)
    save_portfolio(planted, tmp_path / "planted.json")
    cfg = _write_config(
        tmp_path,
        problem={"kind": "portfolio-file", "path": str(tmp_path / "planted.json")},
        mode="hard",
        depth=1,
        reorder="none",
        cap=5000,
        schedule={"counts": [4, 1], "epochs": [30, 40], "rho_pi": [0.15, 0.1]},
        cvar={"alpha_start": 0.05, "alpha_cap": 1.0, "shots": 1024},
        seed=11,
    )
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "p")])
    assert rc == 2
    sol = json.loads((tmp_path / "p" / "solution.json").read_text())
    assert sol["flags"]["candidate_over_cap"]
    # the optimizer still recovers the planted optimum inside the flagged cell
    assert sol["solution"]["bits"] == "000000111111000000111111"


def test_dump_circuit_round_trips(tmp_path):
    cfg = _write_config(tmp_path)
    main(["solve", "--config", str(cfg), "--out", str(tmp_path / "d"), "--dump-circuit"])
    text = (tmp_path / "d" / "circuit.txt").read_text()
    circuit = circuit_from_text(text)
    assert circuit.num_qubits == 10
    assert text.splitlines()[0] == "10 5 folded"


# ---------------------------------------------------------------------------
# curves and interpolation
# ---------------------------------------------------------------------------


def test_curves_artifact(tmp_path):
    cfg = _write_config(
        tmp_path,
        problem={"kind": "synth-portfolio", "n": 8, "seed": 1, "q": 0.9, "budget": 4},
        curves={"points": 5},
    )
    assert main(["curves", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
    lines = (tmp_path / "c" / "curves.csv").read_text().splitlines()
    assert lines[0].startswith("# hwvqe ")
    assert lines[2] == "theta,delta_1,delta_2,delta_3,sigma_1,sigma_2,sigma_3"
    assert len(lines) == 3 + 5
    first = lines[3].split(",")
    assert float(first[0]) == 0.0
    # the initial state puts all mass on the balanced cell
    assert float(first[2]) == pytest.approx(1.0, abs=1e-12)
    assert float(first[1]) == pytest.approx(0.0, abs=1e-12)


def test_interpolate_artifact_full_polyline(tmp_path):
    cfg = _write_config(
        tmp_path,
        problem={"kind": "synth-portfolio", "n": 12, "seed": 2, "q": 0.9, "budget": 6},
    )
    assert main(["interpolate", "--config", str(cfg), "--out", str(tmp_path / "i")]) == 0
    lines = (tmp_path / "i" / "interpolate.csv").read_text().splitlines()
    assert lines[2] == "index,sampled_energy,fit_energy,true_energy"
    rows = [line.split(",") for line in lines[3:]]
    assert [int(r[0]) for r in rows] == list(range(7))
    sampled_at = [int(r[0]) for r in rows if r[1] != ""]
    assert sampled_at == [1, 2, 4, 5]
    assert all(r[2] != "" for r in rows)  # the fit is evaluated everywhere
    assert all(r[3] != "" for r in rows)  # every cell fits under the default cap
    meta = json.loads((tmp_path / "i" / "interpolate.json").read_text())
    assert meta["true_polyline_complete"]
    assert 0 <= meta["argmin"] <= 6
    # the fit really is the quadratic evaluated at the sampled points
    a, b, c = meta["fit"]
    for r in rows:
        if r[1]:
            t = int(r[0])
            assert float(r[2]) == pytest.approx(a * t * t + b * t + c, abs=1e-12)


def test_interpolate_costs_each_cell_once(tmp_path, monkeypatch):
    seen = []
    exact = locate.subspace_min

    def counted(sa, cost, cap):
        seen.append(sa)
        return exact(sa, cost, cap)

    monkeypatch.setattr(locate, "subspace_min", counted)
    cfg = _write_config(
        tmp_path,
        problem={"kind": "synth-portfolio", "n": 12, "seed": 2, "q": 0.9, "budget": 6},
    )
    assert main(["interpolate", "--config", str(cfg), "--out", str(tmp_path / "i")]) == 0
    assert len(seen) == len(set(seen)) == 7


def test_interpolate_partial_polyline_warns(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        problem={"kind": "synth-portfolio", "n": 16, "seed": 2, "q": 0.9, "budget": 8},
        cap=800,
    )
    assert main(["interpolate", "--config", str(cfg), "--out", str(tmp_path / "i")]) == 0
    assert "cap" in capsys.readouterr().err
    meta = json.loads((tmp_path / "i" / "interpolate.json").read_text())
    assert not meta["true_polyline_complete"]
    rows = [
        line.split(",")
        for line in (tmp_path / "i" / "interpolate.csv").read_text().splitlines()[3:]
    ]
    missing = [int(r[0]) for r in rows if r[3] == ""]
    assert missing == [3, 4, 5]  # the big middle cells exceed the 800-state cap


def test_interpolate_needs_three_cells_under_cap(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        problem={"kind": "synth-portfolio", "n": 16, "seed": 2, "q": 0.9, "budget": 8},
        cap=70,
    )
    rc = main(["interpolate", "--config", str(cfg), "--out", str(tmp_path / "i")])
    assert rc == 1
    assert "cap" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# study
# ---------------------------------------------------------------------------


def test_study_serial_and_parallel_agree(tmp_path):
    cfg = _write_config(
        tmp_path,
        problem={"kind": "synth-portfolio", "n": 8, "seed": 5, "q": 0.9, "budget": 4},
        theta0_pi=0.8,
        study={"alphas": [0.2], "betas": [1, 4], "seeds": 2, "epochs": 6, "shots": 128},
    )
    main(["study", "--config", str(cfg), "--out", str(tmp_path / "s1")])
    main(["study", "--config", str(cfg), "--jobs", "2", "--out", str(tmp_path / "s2")])
    assert (tmp_path / "s1" / "study.csv").read_bytes() == (tmp_path / "s2" / "study.csv").read_bytes()
    assert (
        (tmp_path / "s1" / "study_summary.csv").read_bytes()
        == (tmp_path / "s2" / "study_summary.csv").read_bytes()
    )
    lines = (tmp_path / "s1" / "study.csv").read_text().splitlines()
    assert lines[2] == "alpha,beta,seed,epoch,expectation"
    assert len(lines) == 3 + 1 * 2 * 2 * 6  # alphas * betas * seeds * epochs
    summary = (tmp_path / "s1" / "study_summary.csv").read_text().splitlines()
    assert summary[2] == "alpha,beta,plateau_median,epochs_to_plateau_median"
    assert len(summary) == 3 + 2


# ---------------------------------------------------------------------------
# bruteforce and gen-data
# ---------------------------------------------------------------------------


def test_bruteforce_over_cap_is_a_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, cap=10)
    rc = main(["bruteforce", "--config", str(cfg), "--out", str(tmp_path / "b")])
    assert rc == 1
    assert "cap" in capsys.readouterr().err


def test_gen_data_portfolio_round_trip(tmp_path):
    cfg = _write_config(tmp_path)
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "gd")]) == 0
    saved = load_portfolio(tmp_path / "gd" / "portfolio.json")
    direct = synth_assets(10, 4, q=0.9, budget=5)
    assert np.array_equal(saved.A, direct.A) and np.array_equal(saved.mu, direct.mu)
    # the price series reproduces the saved statistics through the CSV reader
    from_csv = ingest_csv(tmp_path / "gd" / "prices.csv", q=0.9, budget=5)
    assert np.allclose(from_csv.mu, saved.mu, rtol=1e-12, atol=0)
    assert np.allclose(from_csv.A, saved.A, rtol=1e-9, atol=0)


def test_gen_data_graph_round_trip(tmp_path):
    cfg = _write_config(
        tmp_path,
        problem={
            "kind": "synth-graph",
            "n": 8,
            "p_edge": 0.5,
            "seed_graph": 3,
            "seed_weights": 4,
            "offset": -2.0,
        },
    )
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "gd")]) == 0
    saved = load_graph(tmp_path / "gd" / "graph.txt")
    direct = synth_graph(8, 0.5, 3, 4, offset=-2.0)
    assert np.array_equal(saved.weights, direct.weights)
    assert saved.offset == direct.offset


# ---------------------------------------------------------------------------
# entry point plumbing
# ---------------------------------------------------------------------------


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("hwvqe ")


def test_reorder_policy_rejected_for_graphs(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        problem={"kind": "synth-graph", "n": 8, "p_edge": 0.5, "seed_graph": 1, "seed_weights": 2},
        reorder="by-return",
    )
    rc = main(["bruteforce", "--config", str(cfg), "--out", str(tmp_path / "b")])
    assert rc == 1
    assert "portfolio" in capsys.readouterr().err
