"""Command-line harness: config validation, artifacts, determinism, exit codes."""

import concurrent.futures
import contextlib
import io
import json
import re
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import reference_subspace_min
from hwvqe import cli, locate, vqe
from hwvqe.ansatz import DickeSpec, build_for, circuit_to_text
from hwvqe.cli import ConfigError, load_config, main
from hwvqe.partition import SubAnsatzId
from hwvqe.problem import (
    BisectionProblem,
    PortfolioProblem,
    ingest_csv,
    load_graph,
    load_portfolio,
    save_graph,
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
        # a JSON boolean, not a truthy value
        (
            {
                "problem": {"kind": "synth-graph", "n": 8, "p_edge": 0.5, "seed_graph": 1,
                            "seed_weights": 2, "fixed_top_bit": "no"},
            },
            "fixed_top_bit",
        ),
        # keys a section does not read, per section and per problem kind
        ({"cvar": {"shot": 3, "alpha_start": 0.5}}, "shot"),
        ({"study": {"epoch": 6}}, "epoch"),
        ({"curves": {"point": 5}}, "point"),
        ({"schedule": {"counts": [4, 1], "epochs": [12, 16], "rho_pi": [0.15, 0.1], "rho": [1, 1]}}, "rho"),
        ({"problem": {"kind": "synth-portfolio", "n": 10, "seed": 4, "fixed_top_bit": True}}, "fixed_top_bit"),
        ({"problem": {"kind": "portfolio-file", "path": "p.json", "budget": 4}}, "budget"),
        ({"problem": {"kind": "graph-file", "path": "g.txt", "offset": 1.0}}, "offset"),
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
    "section, doc, key, limit",
    [
        ("schedule", {"counts": [4, 1], "epochs": [12, None], "rho_pi": [0.15, 0.1]}, "epochs",
         cli._MAX_EVALS - 12),
        ("study", {"alphas": [0.1], "betas": [1], "seeds": 1, "epochs": None}, "epochs",
         cli._MAX_EVALS),
        # default alphas and betas (4 each): one seed's rows bound the epochs
        ("study", {"seeds": 1, "epochs": None}, "epochs",
         cli.qsim.MAX_ENGINE_BYTES // (cli._ROW_BYTES * 16)),
        # default alphas and betas and 80 epochs: 1280 rows per seed
        ("study", {"seeds": None}, "seeds", cli.qsim.MAX_ENGINE_BYTES // (cli._ROW_BYTES * 1280)),
        ("study", {"alphas": [0.1, 0.2], "betas": [1], "epochs": 7, "seeds": None}, "seeds",
         cli.qsim.MAX_ENGINE_BYTES // (cli._ROW_BYTES * 14)),
    ],
    ids=["schedule-epochs-sum", "study-epochs", "study-epochs-of-the-default-grid",
         "study-seeds", "study-seeds-of-a-small-grid"],
)
def test_evaluation_and_study_row_bounds_cite_their_line(tmp_path, section, doc, key, limit):
    """schedule.epochs (their sum), study.epochs and study.seeds are bounded by the
    bytes an evaluation or a study row holds, within the engine cap."""

    def config(value):
        filled = json.loads(json.dumps(doc).replace("null", str(value)))
        return _write_config(tmp_path, **{section: filled})

    load_config(config(limit))
    path = config(limit + 1)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    lines = path.read_text().splitlines()
    opens = next(i for i, text in enumerate(lines) if f'"{section}"' in text)
    line = next(i for i in range(opens, len(lines)) if f'"{key}"' in lines[i]) + 1
    assert str(err.value).startswith(f"{path}:{line}: {section} {key} must ")
    assert "MiB engine cap" in str(err.value)


def test_an_objective_evaluation_holds_at_most_the_shot_bound_per_shot():
    """One evaluation's peak traced bytes per shot, at 2**16 shots, on a cell costed
    per evaluation (np.unique over draws 87% distinct) and on a tabulated one."""
    shots = 1 << 16
    cases = [
        # D^8_4 x D^8_4 x D^8_4 x D^8_4: 24,010,000 states, past 2**16 draws
        (synth_assets(32, 3, budget=16), SubAnsatzId(DickeSpec(32, 16), ((8,), (4, 4)))),
        # D^10_10 x D^10_9 x D^10_1 x D^10_0: 100 states
        (synth_assets(40, 3, budget=20), SubAnsatzId(DickeSpec(40, 20), ((10,), (9, 0)))),
    ]
    for problem, target in cases:
        def run(count):
            return vqe.optimize(
                problem, mode="hard", target=target, theta0=0.5 * np.pi, seed=1,
                cvar_cfg=vqe.CVaRConfig(alpha=0.5, shots=count),
                schedule=vqe.CorrelationSchedule(counts=(1,), epochs=(1,), rho=(0.1,)),
            )

        run(64)  # the form's byte tables and the compiled circuits are built once
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run(shots)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak / shots <= cli._SHOT_BYTES, (str(target), peak / shots)


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


def test_readme_states_the_bounds_the_code_enforces():
    """Each figure README gives for a config bound is the one cli computes."""
    readme = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text().split())
    cap, keys = cli.qsim.MAX_ENGINE_BYTES, cli._CONFIG_KEYS
    grid = len(keys["study", "alphas"].default) * len(keys["study", "betas"].default)
    epochs = keys["study", "epochs"].default
    phrases = [
        f"`study.shots` may be at most {keys['cvar', 'shots'].most[0]:,}: one objective evaluation "
        f"holds {cli._SHOT_BYTES} bytes per shot",
        f"`schedule.epochs` may sum to at most {cli._MAX_EVALS:,}, and `study.epochs` may be at most "
        f"that: an evaluation holds {cli._EVAL_BYTES} bytes",
        f"A study holds {cli._ROW_BYTES} bytes per study row",
        f"({cap // (cli._ROW_BYTES * grid):,} with the default 4 × 4 grid)",
        f"({cap // (cli._ROW_BYTES * grid * epochs):,} with the default grid and {epochs} epochs)",
        f"`seed` may be at most {keys['seed',].most[0]:,}",
        f"at most {cap // cli._ROW_BYTES:,} of them, and a study row counts 20 digits for its seed",
        f"`curves.points` may be at most {keys['curves', 'points'].most[0]:,}: writing `curves.csv` "
        f"holds up to {cli._POINT_BYTES:,} bytes per grid point",
        f"`synth-portfolio` of at most {cli._MAX_GEN_WIDTH['synth-portfolio'][0]:,} assets and a "
        f"`synth-graph` of at most {cli._MAX_GEN_WIDTH['synth-graph'][0]:,} nodes: writing one holds "
        f"{cli._COV_ENTRY_BYTES} bytes per covariance entry plus {cli._PRICE_ASSET_BYTES:,} per asset "
        f"(its prices), or {cli._NODE_PAIR_BYTES} bytes per node pair",
        f"one message shape, such as `{keys['cvar', 'shots'].fault('cvar shots', 20_000_000)}`",
    ]
    assert [phrase for phrase in phrases if phrase not in readme] == []


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


@pytest.mark.parametrize(
    "command, overrides, key, message",
    [
        ("solve", {"cvar": {"alpha_cap": 0.005}}, "alpha_cap",
         "alpha_start 0.01 exceeds alpha_cap 0.005"),
        ("solve", {"mode": "hard", "depth": 100000}, "depth",
         "depth 100000 exceeds 3: its 2^depth fragments would outnumber the 10 qubits"),
        ("solve", {"problem": {"kind": "synth-portfolio", "n": 10**12, "seed": 4}}, "n",
         "1000000000000 qubits exceed the 62-qubit limit of int64 bit packing"),
        ("gen-data", {"problem": {"kind": "synth-portfolio", "n": 2530, "seed": 4}}, "n",
         "gen-data writes synth-portfolio instances of width at most 2529 (157 bytes per "
         "covariance entry and 27324 per asset within the 1024 MiB engine cap), got 2530"),
        ("gen-data", {"problem": {"kind": "synth-graph", "n": 10**12, "p_edge": 0.5, "seed_graph": 1,
                                  "seed_weights": 2}}, "n",
         "gen-data writes synth-graph instances of width at most 3564 (169 bytes per node pair"),
    ],
    ids=["alpha-cap-below-the-default-start", "depth-past-the-width", "solve-width",
         "gen-data-portfolio-width", "gen-data-graph-width"],
)
def test_values_checked_before_any_work_cite_their_line(tmp_path, capsys, command, overrides, key, message):
    """A value is checked at its own line before anything is computed from it:
    alpha_cap against a default alpha_start, a depth whose 2^depth fragments
    outnumber the qubits, and a generator's width before it generates."""
    path = _write_config(tmp_path, **overrides)
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    line = next(i for i, text in enumerate(path.read_text().splitlines(), start=1) if f'"{key}"' in text)
    assert f"error: {path}:{line}: {message}" in capsys.readouterr().err


def test_gen_data_holds_at_most_its_bytes_per_instance(tmp_path):
    """gen-data's traced peak stays within the bytes its width bound counts, on a
    portfolio and on a graph with every edge, and each bound is the widest width
    whose count fits the engine cap."""
    cases = [
        ({"kind": "synth-portfolio", "n": 400, "seed": 4},
         lambda n: cli._COV_ENTRY_BYTES * n * n + cli._PRICE_ASSET_BYTES * n),
        ({"kind": "synth-graph", "n": 400, "p_edge": 1.0, "seed_graph": 1, "seed_weights": 2},
         lambda n: cli._NODE_PAIR_BYTES * n * n // 2),
    ]
    for problem, held in cases:
        widest = cli._MAX_GEN_WIDTH[problem["kind"]][0]
        assert held(widest) <= cli.qsim.MAX_ENGINE_BYTES < held(widest + 1)

        def gen_data(n):
            path = _write_config(tmp_path, problem={**problem, "n": n}, reorder="none")
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "out")]) == 0

        gen_data(8)  # the config loader's and the writers' first-call allocations
        tracemalloc.start()
        try:
            gen_data(problem["n"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= held(problem["n"]), (problem["kind"], peak)


@pytest.mark.parametrize(
    "width, budget, theta0_pi, message",
    [
        # theta0 from the ratio curves, which are exact only up to 20 qubits
        (22, 11, None, "theta0 from the exact ratio curves needs at most 20 qubits, got 22"),
        # D^28_14: amplitudes plus partner tables above the engine's memory cap
        (28, 14, 0.65, "the weight-14 sector of 28 qubits has 40116600 states and needs"),
    ],
    ids=["curves-22", "engine-cap-28"],
)
def test_soft_width_limits_cite_the_problem_n_line(tmp_path, capsys, width, budget, theta0_pi, message):
    doc = json.loads(load_config("portfolio12").raw_text)
    doc["problem"].update(n=width, budget=budget)
    doc.pop("theta0_pi")
    if theta0_pi is not None:
        doc["theta0_pi"] = theta0_pi
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc, indent=2))
    rc = main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    n_line = path.read_text().splitlines().index(f'    "n": {width},') + 1
    assert f"{path}:{n_line}: {message}" in err
    assert not (tmp_path / "out" / "locate.json").exists()  # refused before location


@pytest.mark.parametrize("width, budget", [(22, 11), (11, 5)], ids=["wide", "odd"])
def test_curves_width_limits_cite_the_problem_n_line(tmp_path, capsys, width, budget):
    path = _write_config(tmp_path, problem={"kind": "synth-portfolio", "n": width, "seed": 4, "budget": budget})
    rc = main(["curves", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    n_line = path.read_text().splitlines().index(f'    "n": {width},') + 1
    err = capsys.readouterr().err
    assert f"{path}:{n_line}: ratio curves need an even width of at most 20 qubits, got {width}" in err


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


def _valid_portfolio_doc():
    p = synth_assets(4, 3)
    return {"n": 4, "q": p.q, "A": p.A.ravel().tolist(), "mu": p.mu.tolist(), "xi": 2}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: {k: v for k, v in doc.items() if k != "n"}, ": missing key 'n'"),
        (lambda doc: [doc], ": a portfolio file holds a JSON object, got a list"),
        (lambda doc: {**doc, "A": doc["A"][:-1]}, ": key 'A' has shape (15,); n = 4 needs 16 values"),
        (lambda doc: {**doc, "mu": [0.1, 0.2]}, ": key 'mu' has shape (2,); n = 4 needs 4 values"),
        (lambda doc: {**doc, "xi": 5}, ": key 'xi' = 5 outside 0..4"),
        (lambda doc: {**doc, "q": "high"}, ": key 'q': could not convert string to float: 'high'"),
    ],
)
def test_malformed_portfolio_file_names_the_file_and_key(tmp_path, capsys, edit, message):
    instance = tmp_path / "p.json"
    instance.write_text(json.dumps(edit(_valid_portfolio_doc())))
    path = _write_config(tmp_path, problem={"kind": "portfolio-file", "path": str(instance)})
    rc = main(["bruteforce", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"error: {instance}{message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("# nodes4\n0 1 0.5\n", ":1: malformed header token 'nodes4'"),
        ("# nodes=4 offset=x\n0 1 0.5\n", ":1: header needs nodes=<positive integer>"),
        ("# nodes=4\n0 1 0.5\n0 1\n", ":3: an edge line is 'u v weight', got 2 fields"),
        ("# nodes=4\n0 9 0.5\n", ":2: node index outside 0..3 in edge '0 9 0.5'"),
        ("# nodes=4\n2 2 0.5\n", ":2: self-loop on node 2"),
        ("# nodes=4\n0 one 0.5\n", ":2: edge '0 one 0.5' is not 'u v weight'"),
        ("# nodes=3\n0 1 0.5\n", ":1: bisection needs an even node count, got 3"),
    ],
)
def test_malformed_graph_file_names_the_file_and_line(tmp_path, capsys, text, message):
    instance = tmp_path / "g.txt"
    instance.write_text(text)
    path = _write_config(
        tmp_path, problem={"kind": "graph-file", "path": str(instance)}, reorder="none"
    )
    rc = main(["bruteforce", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"error: {instance}{message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "n, depth, cap, message",
    [
        # every level-2 diagonal cell probed holds 41,409,225 or more states
        (60, 2, None, "the smallest holds 41409225 states; raise 'cap' "
                      "(depth 3 needs n divisible by 8, got 60)"),
        (16, 2, 40, "the smallest holds 64 states; raise 'cap' or 'depth'"),
    ],
)
def test_hard_location_over_cap_names_the_smallest_cell(tmp_path, capsys, n, depth, cap, message):
    overrides = {"cap": cap} if cap else {}
    path = _write_config(
        tmp_path,
        problem={"kind": "synth-portfolio", "n": n, "seed": 4, "budget": n // 2},
        mode="hard",
        depth=depth,
        **overrides,
    )
    rc = main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    where = str(path)
    if cap:  # a cap the config sets is cited at its line
        lines = path.read_text().splitlines()
        where += ":" + str(next(i for i, line in enumerate(lines, start=1) if '"cap"' in line))
    assert f"error: {where}: every cell probed on the interpolation axis exceeds cap" in err
    assert message in err


@pytest.mark.parametrize(
    "command, problem, mode, message",
    [
        ("bruteforce", {"kind": "synth-portfolio", "n": 28, "seed": 4, "budget": 14}, "soft",
         "brute force over 40116600 states exceeds cap 10000000 ('cap' is not in the file; default 10000000)"),
        ("solve", {"kind": "synth-portfolio", "n": 6, "seed": 4}, "hard",
         "depth 2 needs n divisible by 4, got 6 ('depth' is not in the file; default 2)"),
    ],
    ids=["bruteforce-default-cap", "hard-default-depth"],
)
def test_error_about_an_absent_key_names_the_key_and_its_default(
    tmp_path, capsys, command, problem, mode, message
):
    path = _write_config(tmp_path, problem=problem, mode=mode)
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"error: {path}: {message}" in capsys.readouterr().err


def test_an_absent_section_key_reports_the_default_the_run_uses(tmp_path):
    doc = json.loads(_write_config(tmp_path).read_text())
    del doc["cvar"]
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(doc, indent=2))
    cfg = load_config(path)
    assert cfg.setting("cvar", "shots") == cfg.setting("study", "shots") == vqe.DEFAULT_SHOTS
    assert vqe.CVaRConfig(alpha=0.5).shots == vqe.DEFAULT_SHOTS
    with pytest.raises(ConfigError) as info:
        cfg.fail(("cvar", "shots"), "too many shots")
    assert str(info.value) == f"{path}: too many shots ('cvar.shots' is not in the file; default 1024)"


@pytest.mark.parametrize(
    "section, message",
    [
        ('"study": {"seed": 3}', "unknown key 'seed' in study; it reads alphas, betas, seeds, epochs, shots"),
        (
            '"problem": {"kind": "portfolio-file", "path": "p.json", "budget": 4}',
            "problem kind 'portfolio-file' takes no key 'budget'; a portfolio file sets its own budget as 'xi'",
        ),
    ],
    ids=["study-seed", "portfolio-file-budget"],
)
def test_unknown_section_keys_name_what_is_read_instead(tmp_path, capsys, section, message):
    path = tmp_path / "cfg.json"
    path.write_text(
        "{\n"
        '  "problem": {"kind": "synth-portfolio", "n": 8, "seed": 4},\n'
        '  "seed": 3,\n'
        f"  {section}\n"
        "}\n"
    )
    rc = main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"{path}:4: {message}" in capsys.readouterr().err


def test_negative_seed_override_names_the_flag(capsys):
    rc = main(["solve", "--config", "portfolio12", "--seed", "-1"])
    assert rc == 1
    assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err


def test_seed_keeps_every_study_seed_within_twenty_digits(tmp_path, capsys):
    """A study writes the seeds seed .. seed + study.seeds - 1, and a study row
    counts 20 digits for its seed: the largest seed keeps the last seed of the
    longest study within them, in a file at its line and as --seed alike."""
    most_seeds = cli.qsim.MAX_ENGINE_BYTES // cli._ROW_BYTES  # a study of one cell and one epoch
    study = {"alphas": [0.1], "betas": [1], "epochs": 1, "seeds": most_seeds}
    with pytest.raises(ConfigError, match="study seeds must be at most"):
        load_config(_write_config(tmp_path, study={**study, "seeds": most_seeds + 1}))
    limit = 10**20 - most_seeds
    assert len(str(limit + most_seeds - 1)) == 20
    load_config(_write_config(tmp_path, seed=limit, study=study))

    path = _write_config(tmp_path, seed=limit + 1, study=study)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    line = path.read_text().splitlines().index(f'  "seed": {limit + 1},') + 1
    prefix = f"{path}:{line}: seed must be a non-negative integer of at most {limit} ("
    assert str(err.value).startswith(prefix)
    assert main(["solve", "--config", "portfolio12", "--seed", str(limit + 1)]) == 1
    assert capsys.readouterr().err == f"error: --{str(err.value).removeprefix(f'{path}:{line}: ')}\n"


def test_zero_jobs_names_the_flag(capsys):
    rc = main(["study", "--config", "portfolio12", "--jobs", "0"])
    assert rc == 1
    assert "--jobs must be a positive integer, got 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag",
    [("solve", ["--jobs", "2"]), ("bruteforce", ["--dump-circuit"])],
    ids=["solve-jobs", "bruteforce-dump-circuit"],
)
def test_flags_of_other_subcommands_are_usage_errors(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", "portfolio12", *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "mode, budget, reorder, note",
    [
        ("soft", 2, "by-return", None),
        ("soft", 9, "by-return", None),
        ("hard", 8, "by-return", None),
        ("hard", 10, "by-return", None),
        ("hard", 1, "none", "theta0 defaulted to 0.8 pi (predicted cell 0 lies in the left half)"),
    ],
    ids=["soft-2", "soft-9", "hard-8", "hard-10", "hard-1-left-half"],
)
def test_solve_runs_unbalanced_budgets(tmp_path, mode, budget, reorder, note):
    # theta0 comes from the predicted cell's upper weight, or from 0.8 pi with a
    # note when hard mode (which never reverses) predicts a left-half cell
    cfg = _write_config(
        tmp_path,
        problem={"kind": "synth-portfolio", "n": 12, "seed": 4, "q": 0.9, "budget": budget},
        mode=mode,
        depth=1,
        reorder=reorder,
    )
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
    assert main(["bruteforce", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    sol = json.loads((tmp_path / "s" / "solution.json").read_text())
    brute = json.loads((tmp_path / "b" / "bruteforce.json").read_text())
    assert sol["solution"]["bits"] == brute["solution"]["bits"]
    assert sol["notes"] == ([note] if note else [])


def test_solve_takes_the_only_state_of_a_one_state_search_space(tmp_path):
    # two nodes, the top one pinned: the odd width 1 skips location, and the
    # weight-0 sector of one qubit has no parameters to optimize
    cfg = _write_config(
        tmp_path,
        problem={"kind": "synth-graph", "n": 2, "p_edge": 0.5, "seed_graph": 1, "seed_weights": 2,
                 "fixed_top_bit": True},
        reorder="none",
        theta0_pi=0.5,
    )
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "g")]) == 0
    sol = json.loads((tmp_path / "g" / "solution.json").read_text())
    assert sol["solution"]["bits"] == "10"
    assert sol["flags"]["locate_skipped"]


def test_solve_keeps_the_refined_state_when_the_candidate_only_ties_it(tmp_path):
    # a graph without edges costs every split the offset: location's candidate
    # (the smallest state of the cells it probed) ties the refined optimizer
    # state, which stands although it is the larger of the two
    save_graph(BisectionProblem(n=8, weights=np.zeros((8, 8)), offset=1.5), tmp_path / "g.txt")
    cfg = _write_config(
        tmp_path,
        problem={"kind": "graph-file", "path": str(tmp_path / "g.txt")},
        reorder="none",
        cvar={"alpha_start": 0.05, "alpha_cap": 1.0, "shots": 64},
        schedule={"counts": [1], "epochs": [10], "rho_pi": [0.1]},
        seed=2,
    )
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
    sol = json.loads((tmp_path / "t" / "solution.json").read_text())
    candidate = json.loads((tmp_path / "t" / "locate.json").read_text())["candidate"]
    assert candidate["energy"] == sol["solution"]["energy"] == sol["optimizer"]["best_sampled_energy"] == 1.5
    assert int(sol["solution"]["bits"], 2) > int(candidate["bits"], 2)
    assert sol["notes"] == []  # no "location candidate beat the optimizer"


def test_dump_circuit_writes_the_circuit_text_once(tmp_path):
    cfg = _write_config(tmp_path)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "d"), "--dump-circuit"]) == 0
    written = (tmp_path / "d" / "circuit.txt").read_bytes()
    assert written == circuit_to_text(build_for(DickeSpec(10, 5))).encode()


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


@pytest.mark.parametrize("n, seed", [(12, 1), (12, 2), (14, 3), (16, 4)])
@pytest.mark.parametrize("past_the_rule", [False, True])
def test_interpolate_screens_each_mirror_pair_of_a_graph_once(
    tmp_path, monkeypatch, n, seed, past_the_rule
):
    """Cell extent-1-t of an unpinned graph holds the complements of cell t, so
    one screen gives both; past the rule (``h`` moved off the row sums of
    ``W`` by the screen slack) each cell is screened on its own."""
    calls = []
    exact = locate.subspace_min

    def counted(sa, cost, cap, mirror=False):
        calls.append((sa.levels[0][0], mirror))
        return exact(sa, cost, cap, mirror)

    built = []
    build = cli.build_problem

    def building(cfg):
        prob = build(cfg)
        if past_the_rule:  # the cached form, replaced on this instance only
            form = prob.form
            vars(prob)["form"] = replace(form, h=form.h + form.screen_slack * (-1.0) ** np.arange(n))
        built.append(prob)
        return prob

    monkeypatch.setattr(locate, "subspace_min", counted)
    monkeypatch.setattr(cli, "build_problem", building)
    cfg = _write_config(
        tmp_path,
        problem={"kind": "synth-graph", "n": n, "p_edge": 0.5, "seed_graph": seed, "seed_weights": seed + 1},
        reorder="auto",
    )
    assert main(["interpolate", "--config", str(cfg), "--out", str(tmp_path / "i")]) == 0
    form = built[0].form
    extent = n // 2 + 1
    if past_the_rule:
        assert form.mirror_window is None and calls == [(t, False) for t in range(extent)]
    else:
        assert calls == [(t, 2 * t < extent - 1) for t in range((extent + 1) // 2)]
    rows = [line.split(",") for line in (tmp_path / "i" / "interpolate.csv").read_text().splitlines()[3:]]
    assert [int(r[0]) for r in rows] == list(range(extent))
    for t, _, _, true in rows:
        _, energy = reference_subspace_min(SubAnsatzId(form.spec, ((int(t),),)), form)
        assert true == repr(energy)


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


@pytest.mark.parametrize(
    "problem, key",
    [
        ({"kind": "synth-portfolio", "n": 12, "seed": 2, "budget": 1}, "budget"),
        ({"kind": "synth-portfolio", "n": 12, "seed": 2, "budget": 11}, "budget"),
        ({"kind": "synth-graph", "n": 2, "p_edge": 0.5, "seed_graph": 1, "seed_weights": 2}, "n"),
    ],
    ids=["budget-1", "budget-n-1", "two-nodes"],
)
def test_interpolate_on_a_two_cell_axis_cites_the_problem_line(tmp_path, capsys, problem, key):
    cfg = _write_config(tmp_path, problem=problem, reorder="none")
    rc = main(["interpolate", "--config", str(cfg), "--out", str(tmp_path / "i")])
    assert rc == 1
    line = next(i for i, text in enumerate(cfg.read_text().splitlines(), start=1) if f'"{key}"' in text)
    assert f"{cfg}:{line}: interpolation needs at least 3 cells on the level-1 axis" in capsys.readouterr().err


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


def test_study_starts_no_more_workers_than_cells(tmp_path, monkeypatch):
    """A process pool starts all its workers at once, so --jobs past the number
    of (alpha, beta) cells starts one per cell, and one cell runs in-process."""
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    for betas, pools in (([1], []), ([1, 2, 3], [3])):
        started.clear()
        cfg = _write_config(
            tmp_path,
            problem={"kind": "synth-portfolio", "n": 8, "seed": 5, "budget": 4},
            theta0_pi=0.8,
            study={"alphas": [0.2], "betas": betas, "seeds": 1, "epochs": 2, "shots": 32},
        )
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["study", "--config", str(cfg), "--jobs", "64", "--out", str(tmp_path / "s")]) == 0
        assert started == pools


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


def test_csv_portfolio_round_trip_matches_the_synthetic_instance(tmp_path):
    synth = _write_config(tmp_path)
    assert main(["gen-data", "--config", str(synth), "--out", str(tmp_path / "gd")]) == 0
    from_csv = _write_config(
        tmp_path,
        name="csv.json",
        problem={"kind": "csv-portfolio", "path": str(tmp_path / "gd" / "prices.csv"), "q": 0.9, "budget": 5},
    )
    assert main(["bruteforce", "--config", str(synth), "--out", str(tmp_path / "b")]) == 0
    assert main(["bruteforce", "--config", str(from_csv), "--out", str(tmp_path / "bc")]) == 0
    assert main(["solve", "--config", str(from_csv), "--out", str(tmp_path / "sc")]) == 0
    brute = json.loads((tmp_path / "b" / "bruteforce.json").read_text())["solution"]
    brute_csv = json.loads((tmp_path / "bc" / "bruteforce.json").read_text())["solution"]
    solved_csv = json.loads((tmp_path / "sc" / "solution.json").read_text())["solution"]
    # the CSV reproduces the statistics to about 1e-12, not bitwise
    assert brute_csv["bits"] == brute["bits"] == solved_csv["bits"]
    assert brute_csv["energy"] == pytest.approx(brute["energy"], rel=1e-9)
    assert solved_csv["energy"] == brute_csv["energy"]


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


# ---------------------------------------------------------------------------
# fuzzed inputs
# ---------------------------------------------------------------------------

_SECTION_KEYS = {
    "top": ("problem", "mode", "depth", "reorder", "theta0_pi", "cvar", "curves", "cap", "seed"),
    "problem": ("kind", "n", "seed", "q", "budget", "p_edge", "seed_graph", "seed_weights", "offset",
                "fixed_top_bit", "path"),
    "cvar": ("alpha_start", "alpha_cap", "shots"),
    "schedule": ("counts", "epochs", "rho_pi"),
    "curves": ("points",),
    "study": ("alphas", "betas", "seeds", "epochs", "shots"),
}
_KEYS = st.sampled_from([(section, key) for section, keys in _SECTION_KEYS.items() for key in keys])
_BAD_VALUES = st.sampled_from(["x", "", 1.5, -1, 0, 1, -0.5, 1e308, -1e308, True, None, [], [1, "a"], {}, {"a": 1}])
_EDITS = st.one_of(
    st.tuples(st.just("width"), st.integers(1, 64)),
    st.tuples(st.just("budget"), st.integers(0, 62)),  # taken mod n - 1: budgets 1..n-1
    st.tuples(st.just("mode"), st.sampled_from(["soft", "hard"]), st.integers(0, 4)),
    st.tuples(st.just("missing"), _KEYS),
    st.tuples(st.just("value"), _KEYS, _BAD_VALUES),
)
# truncate at, or drop, replace or duplicate the line at, a position taken mod the text's size
_GARBLES = st.none() | st.tuples(
    st.sampled_from(["truncate", "drop", "replace", "duplicate"]),
    st.integers(0, 1 << 16),
    st.text(alphabet="0123456789 .,-+e#=:\"{}[]abnodesxi_\t", max_size=24),
)
_COMMANDS = st.sampled_from(["solve", "interpolate", "bruteforce", "curves", "study", "gen-data"])


def _garble(text, garble):
    if garble is None:
        return text
    how, at, line = garble
    lines = text.splitlines()
    if how == "truncate" or not lines:
        return text[: at % (len(text) + 1)]
    i = at % len(lines)
    if how == "drop":
        del lines[i]
    elif how == "replace":
        lines[i] = line
    else:
        lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


def _edit(doc, edit):
    problem = doc["problem"] if isinstance(doc.get("problem"), dict) else {}
    if edit[0] == "width":
        problem["n"] = edit[1]
    elif edit[0] == "budget":
        n = problem.get("n")
        problem["budget"] = 1 + edit[1] % (n - 1) if isinstance(n, int) and n > 1 else 1
    elif edit[0] == "mode":
        doc.update(mode=edit[1], depth=edit[2])
    else:
        section, key = edit[1]
        within = doc if section == "top" else doc.setdefault(section, {})
        if isinstance(within, dict) and edit[0] == "missing":
            within.pop(key, None)
        elif isinstance(within, dict):
            within[key] = edit[2]


def _swap_in_instance(work, doc, instance):
    """Point the problem at a garbled copy of an instance file gen-data writes for it."""
    source = work / "synth.json"
    source.write_text(json.dumps(doc, indent=2))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        if main(["gen-data", "--config", str(source), "--out", str(work / "data")]) != 0:
            return None
    written = sorted((work / "data").iterdir())
    which, garble = instance
    path = written[which % len(written)]
    path.write_text(_garble(path.read_text(), garble))
    kind = {".json": "portfolio-file", ".csv": "csv-portfolio", ".txt": "graph-file"}[path.suffix]
    doc["problem"] = {"kind": kind, "path": str(path)}
    return path


@settings(derandomize=True, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    base=st.sampled_from(["portfolio12", "bisection12", "portfolio40"]),
    edits=st.lists(_EDITS, max_size=3),
    instance=st.none() | st.tuples(st.integers(0, 1), _GARBLES),
    config_garble=st.none() | _GARBLES,
    command=_COMMANDS,
)
# an unbalanced budget in soft and in hard mode, once each
@example(base="portfolio12", edits=[("budget", 2), ("missing", ("top", "theta0_pi"))],
         instance=None, config_garble=None, command="solve")
@example(base="portfolio12", edits=[("budget", 7), ("mode", "hard", 1), ("missing", ("top", "theta0_pi"))],
         instance=None, config_garble=None, command="solve")
# a one-state search space with location skipped, and a level-1 axis of 2 cells
@example(base="bisection12", edits=[("width", 2)], instance=None, config_garble=None, command="solve")
@example(base="portfolio12", edits=[("budget", 10)], instance=None, config_garble=None, command="interpolate")
# shot counts whose draws could never be allocated
@example(base="portfolio12", edits=[("value", ("cvar", "shots"), 2**62)], instance=None,
         config_garble=None, command="solve")
@example(base="portfolio12", edits=[("value", ("study", "shots"), 2**62)], instance=None,
         config_garble=None, command="study")
# a grid too long to hold in memory
@example(base="portfolio12", edits=[("value", ("curves", "points"), 10**12)], instance=None,
         config_garble=None, command="curves")
# traces and study tables too long to hold in memory
@example(base="portfolio12", edits=[("value", ("schedule", "epochs"), [3, 10**12])], instance=None,
         config_garble=None, command="solve")
@example(base="portfolio12", edits=[("value", ("study", "epochs"), 10**12)], instance=None,
         config_garble=None, command="study")
@example(base="portfolio12", edits=[("value", ("study", "seeds"), 10**12)], instance=None,
         config_garble=None, command="study")
# within the per-evaluation bound, but one seed's rows of a 4-cell grid do not fit
@example(base="portfolio12",
         edits=[("value", ("study", "betas"), [1, 10, 20, 40]), ("value", ("study", "epochs"), 10**6)],
         instance=None, config_garble=None, command="study")
# alpha_cap below the default alpha_start, a depth past the width, and widths
# whose instances could never be allocated, checked before anything is computed
@example(base="portfolio12", edits=[("missing", ("cvar", "alpha_start")), ("value", ("cvar", "alpha_cap"), 0.005)],
         instance=None, config_garble=None, command="solve")
@example(base="portfolio12", edits=[("mode", "hard", 100000)], instance=None, config_garble=None, command="solve")
@example(base="portfolio12", edits=[("width", 10**12)], instance=None, config_garble=None, command="solve")
@example(base="portfolio12", edits=[("width", 10**12)], instance=None, config_garble=None, command="gen-data")
def test_fuzzed_inputs_exit_cleanly_with_a_located_message(
    tmp_path, base, edits, instance, config_garble, command
):
    """Mutated bundled configs and garbled instance files end in exit 0, 1 or 2,
    never a traceback; an exit-1 message names the config or the instance file,
    with a line number for a non-empty file in a line-record format (graph text,
    price CSV). Config errors cite the line of every key the file holds; a
    portfolio JSON file's errors name the key at fault."""
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    doc = json.loads(load_config(base).raw_text)
    # small work sections keep each run short; edits may still change them
    doc.update(
        cvar={"alpha_start": 0.05, "alpha_cap": 1.0, "shots": 64},
        schedule={"counts": [2, 1], "epochs": [3, 3], "rho_pi": [0.15, 0.1]},
        curves={"points": 3},
        study={"alphas": [0.1], "betas": [1], "seeds": 1, "epochs": 3, "shots": 32},
    )
    for edit in edits:
        _edit(doc, edit)
    path = None if instance is None else _swap_in_instance(work, doc, instance)
    config = work / "cfg.json"
    config.write_text(_garble(json.dumps(doc, indent=2) + "\n", config_garble))

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([command, "--config", str(config), "--out", str(work / "out")])
    assert rc in (0, 1, 2)
    if rc == 1:
        message = err.getvalue()
        named = next((p for p in (config, path) if p and message.startswith(f"error: {p}")), None)
        assert named, message
        if named.suffix in (".txt", ".csv") and named.read_text():
            assert re.match(rf"error: {re.escape(str(named))}:\d+: ", message), message
