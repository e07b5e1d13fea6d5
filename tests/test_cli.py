import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crmgraph
from crmgraph import __version__
from crmgraph.cli import cli_dispatch, main
from crmgraph.diagnostics import ess
from crmgraph.graphio import read_trace_csv
from crmgraph.params import GgpParams
from crmgraph.simulate import SimConfig, sample_graph


def run(argv):
    return cli_dispatch(argv)


def first_line(path):
    return Path(path).read_text().splitlines()[0]


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2


def test_unknown_flag_exits_2(capsys):
    assert run(["sample", "--alpha", "1", "--sigma", "0.5", "--tau", "1",
                "--bogus"]) == 2


@pytest.mark.parametrize("value", ["nan", "-0.1", "0.1"],
                         ids=["rw-sd-nan", "rw-sd-negative", "rw-sd-valid"])
def test_rw_sd_flag_is_gone(tmp_path, capsys, value):
    # the hyper block adapts its own walk sd, so --rw-sd is an unknown flag
    assert run(["fit", str(tmp_path / "g.txt"), "--rw-sd", value]) == 2
    assert "--rw-sd" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--leapfrog-steps", "0"), ("--target-accept", "1")],
                         ids=["leapfrog-steps-0", "target-accept-1"])
def test_hmc_tuning_flags_are_gone(tmp_path, capsys, flag, value):
    # the leapfrog steps and the HMC target are constants, so both flags are unknown
    for command in ("fit", "test-sparsity"):
        assert run([command, str(tmp_path / "g.txt"), flag, value]) == 2
        assert flag in capsys.readouterr().err


def test_missing_file_exits_1(tmp_path, capsys):
    assert run(["fit", str(tmp_path / "nope.txt"), "--n-iter", "10"]) == 1
    assert "error" in capsys.readouterr().err


def test_invalid_params_exit_1(tmp_path, capsys):
    out = str(tmp_path / "g.txt")
    assert run(["sample", "--alpha", "10", "--sigma", "1.5", "--tau", "1",
                "--out", out]) == 1


def test_sample_past_numpy_poisson_limit_exits_1(tmp_path, capsys):
    # at eps = 1e-40 the CRM proposal count has a Poisson mean of about 3.4e22
    assert run(["sample", "--alpha", "300", "--sigma", "0.5", "--tau", "1", "--eps", "1e-40",
                "--out", str(tmp_path / "g.txt")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "Poisson mean" in err[0]
    assert not (tmp_path / "g.txt").exists()


def test_sample_past_the_proposal_cap_exits_1(tmp_path, capsys):
    # at eps = 1e-20 the draw expects about 3.4e12 CRM proposals, 24.6 TiB of doubles
    assert run(["sample", "--alpha", "300", "--sigma", "0.5", "--tau", "1", "--eps", "1e-20",
                "--out", str(tmp_path / "g.txt")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "MAX_EXPECTED_PROPOSALS" in err[0]
    assert not (tmp_path / "g.txt").exists()


def test_sample_kallenberg_past_the_atom_cap_exits_1(tmp_path, capsys):
    # eps = 1e-8 expects 3.4e6 atoms, each inverted by bisection
    assert run(["sample", "--alpha", "300", "--sigma", "0.5", "--tau", "1", "--eps", "1e-8",
                "--path", "kallenberg", "--out", str(tmp_path / "g.txt")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "MAX_KALLENBERG_ATOMS" in err[0]
    assert not (tmp_path / "g.txt").exists()


@pytest.mark.parametrize("argv", [
    ["test-sparsity", "{graph}", "--n-iter", "20", "--n-chains", "0"],
    ["fit", "{graph}", "--n-iter", "20", "--adapt-iters", "-5"],
    ["ppc", "{empty_trace}"],
    # alpha tau^sigma / -sigma jumps, 0.01 to 0.04 on average: the graphs are empty
    ["scaling", "--sigma", "-1", "--tau", "1", "--alpha-grid", "0.01", "0.02", "0.04"],
    # one distinct alpha: the log-log slope is undefined
    ["scaling", "--sigma", "0.5", "--tau", "1", "--alpha-grid", "2", "2", "2"],
    ["sample", "--alpha", "5", "--sigma", "0.5", "--tau", "1", "--seed", "-1", "--out", "x.txt"],
    ["fit", "{graph}", "--n-iter", "20", "--seed", "-1"],
    ["diag", "{bad_trace}"],
    ["fit", "{latin1_graph}", "--n-iter", "20"],
], ids=["n-chains-0", "negative-adapt-iters", "ppc-of-empty-trace", "scaling-empty-graphs",
        "scaling-one-distinct-alpha", "sample-negative-seed",
        "fit-negative-seed", "diag-non-numeric-trace", "fit-latin-1-id"])
def test_bad_run_settings_exit_1(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    graph = tmp_path / "g.txt"
    graph.write_text("0 1\n1 2\n2 0\n2 3\n")
    empty_trace = str(tmp_path / "empty.csv")
    assert run(["fit", str(graph), "--n-iter", "0", "--out", empty_trace]) == 0
    capsys.readouterr()
    bad_trace = tmp_path / "bad.csv"
    bad_trace.write_text("iteration,chain,alpha,sigma,tau,w_star,log_post\n"
                         "0,0,1.0,0.5,1.0,0.1,abc\n")
    # a Latin-1 comment is skipped; the Latin-1 byte in line 3's id is a ParseError
    latin1_graph = tmp_path / "latin1.txt"
    latin1_graph.write_bytes(b"# caf\xe9\n0 1\n1 \xe92\n")
    argv = [a.format(graph=graph, empty_trace=empty_trace, bad_trace=bad_trace,
                     latin1_graph=latin1_graph) for a in argv]
    assert run(argv) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "test-sparsity"])
def test_bad_setting_is_reported_before_the_missing_graph(tmp_path, capsys, command):
    assert run([command, str(tmp_path / "nope.txt"), "--n-chains", "0"]) == 1
    assert capsys.readouterr().err == "error: n_chains must be >= 1, got 0\n"


@pytest.mark.parametrize("argv,code", [(["--version"], 0), (["frobnicate"], 2)])
def test_main_exit_code(monkeypatch, capsys, argv, code):
    monkeypatch.setattr(sys, "argv", ["crmgraph", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == code


def test_sample_writes_graph_and_sidecar(tmp_path, capsys):
    out = str(tmp_path / "g.txt")
    code = run(["sample", "--alpha", "30", "--sigma", "0.5", "--tau", "1",
                "--eps", "1e-4", "--seed", "1", "--out", out])
    assert code == 0
    lines = [l for l in Path(out).read_text().splitlines() if not l.startswith("#")]
    assert len(lines) > 0
    sidecar = json.loads(Path(out + ".json").read_text())
    assert sidecar["alpha"] == 30 and sidecar["sigma"] == 0.5
    assert sidecar["n_edges"] == len(lines)
    assert "library_version" in sidecar and "timestamp" in sidecar


@pytest.mark.parametrize("path,sigma", [("urn", "0"), ("kallenberg", "-0.5")])
def test_sample_path_reaches_the_sampler(tmp_path, capsys, path, sigma):
    out = str(tmp_path / "g.txt")
    assert run(["sample", "--alpha", "20", "--sigma", sigma, "--tau", "1", "--seed", "4",
                "--path", path, "--out", out]) == 0
    sidecar = json.loads(Path(out + ".json").read_text())
    assert sidecar["path"] == path
    z = sample_graph(SimConfig(GgpParams(20.0, float(sigma), 1.0), seed=4, path=path))
    assert sidecar["n_edges"] == z.n_edges > 0
    assert sidecar["n_nodes"] == z.n_nodes


def test_sample_deterministic_golden(tmp_path):
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    for out in (a, b):
        assert run(["sample", "--alpha", "30", "--sigma", "0.5", "--tau", "1",
                    "--eps", "1e-4", "--seed", "7", "--out", out]) == 0
    assert Path(a).read_text() == Path(b).read_text()
    sa = json.loads(Path(a + ".json").read_text())
    sb = json.loads(Path(b + ".json").read_text())
    sa.pop("timestamp")
    sb.pop("timestamp")
    assert sa == sb


@pytest.mark.parametrize("module", ["crmgraph", "crmgraph.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    env = dict(os.environ)
    src = str(Path(crmgraph.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["sample", "--alpha", "20", "--sigma", "0.5", "--tau", "1", "--eps", "1e-3",
            "--seed", "6", "--out"]
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    done = subprocess.run([sys.executable, "-m", module, *argv, a], env=env, cwd=tmp_path,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("wrote ")
    assert run([*argv, b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()
    done = subprocess.run([sys.executable, "-m", module, "fit", a, "--n-chains", "0"],
                          env=env, cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stderr.startswith("error: n_chains must be >= 1")


def test_sample_no_self_loops(tmp_path, capsys):
    argv = ["sample", "--alpha", "20", "--sigma", "0.5", "--tau", "1", "--eps", "1e-3",
            "--seed", "6"]
    edges = {}
    for name, extra in [("all.txt", []), ("no_loops.txt", ["--no-self-loops"])]:
        out = str(tmp_path / name)
        assert run(argv + extra + ["--out", out]) == 0
        edges[name] = [l.split() for l in Path(out).read_text().splitlines()
                       if not l.startswith("#")]
        assert json.loads(Path(out + ".json").read_text())["include_self_loops"] == (not extra)
    # the default keeps self-loops, and this draw has some
    assert any(i == j for i, j in edges["all.txt"])
    assert edges["no_loops.txt"] and not any(i == j for i, j in edges["no_loops.txt"])


@pytest.fixture(scope="module")
def small_graph(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("data") / "g.txt")
    assert run(["sample", "--alpha", "30", "--sigma", "0.5", "--tau", "1",
                "--eps", "1e-3", "--seed", "3", "--out", path]) == 0
    return path


def test_fit_writes_trace(small_graph, tmp_path, capsys):
    out = str(tmp_path / "trace.csv")
    code = run(["fit", small_graph, "--n-iter", "200", "--n-chains", "2",
                "--seed", "0", "--out", out])
    assert code == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "iteration,chain,alpha,sigma,tau,w_star,log_post"
    n_rows = len(lines) - 1
    assert n_rows == 2 * 150  # burn-in of n_iter/4 discarded per chain


def test_fit_thin_keeps_every_third_draw(small_graph, tmp_path, capsys):
    out = str(tmp_path / "trace.csv")
    assert run(["fit", small_graph, "--n-iter", "101", "--n-chains", "2", "--thin", "3",
                "--seed", "0", "--out", out]) == 0
    traces = read_trace_csv(out)
    # 25 adapting iterations are dropped, then every third of the other 76
    assert [len(t) for t in traces] == [math.ceil((101 - 25) / 3)] * 2


@pytest.mark.parametrize("adapt,n_warnings", [(["--adapt-iters", "2"], 1), ([], 0)],
                         ids=["adapt-2", "adapt-default"])
def test_fit_warns_once_per_stalled_chain(tmp_path, capsys, adapt, n_warnings):
    # two adapting iterations freeze a stepsize at which HMC accepts nothing
    graph = str(tmp_path / "g.txt")
    assert run(["sample", "--alpha", "20", "--sigma", "0.5", "--tau", "1",
                "--eps", "1e-3", "--seed", "6", "--out", graph]) == 0
    assert run(["fit", graph, "--n-iter", "200", "--n-chains", "1", "--seed", "2", *adapt,
                "--out", str(tmp_path / "t.csv")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert sum(line.startswith("warning: chain 0: ") for line in err) == n_warnings
    assert len(err) == n_warnings


def test_fit_golden_reproducible(small_graph, tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out in (a, b):
        assert run(["fit", small_graph, "--n-iter", "100", "--n-chains", "1",
                    "--seed", "5", "--out", out]) == 0
    assert Path(a).read_text() == Path(b).read_text()


def test_test_sparsity_json(small_graph, tmp_path, capsys):
    out = str(tmp_path / "res.json")
    trace = str(tmp_path / "trace.csv")
    code = run(["test-sparsity", small_graph, "--n-iter", "400",
                "--n-chains", "2", "--seed", "0", "--out", out, "--trace-out", trace])
    assert code == 0
    assert first_line(trace) == "iteration,chain,alpha,sigma,tau,w_star,log_post"
    doc = json.loads(Path(out).read_text())
    for key in ("p_sparse", "ci_sigma", "max_psrf", "ess_sigma", "mcse_p_sparse", "runtime"):
        assert key in doc
    assert doc["schema_version"] == 1 and doc["library_version"] == __version__
    assert list(doc) == sorted(doc)
    assert 0.0 <= doc["p_sparse"] <= 1.0
    assert doc["ci_sigma"][0] <= doc["ci_sigma"][1]
    assert doc["ess_sigma"] > 0.0
    # post-adapt HMC acceptance, one rate per chain, beside its target
    assert doc["target_accept"] == 0.6
    assert len(doc["hmc_accept_post_adapt"]) == 2
    assert all(0.3 < rate <= 1.0 for rate in doc["hmc_accept_post_adapt"])
    # the hyper block's post-adapt acceptance and frozen walk sd, one per chain
    assert len(doc["hyper_accept_post_adapt"]) == len(doc["hyper_walk_sd"]) == 2
    assert all(0.0 < rate < 1.0 for rate in doc["hyper_accept_post_adapt"])
    assert all(sd > 0.0 for sd in doc["hyper_walk_sd"])


def test_diag_and_ppc_from_trace(small_graph, tmp_path, capsys):
    trace = str(tmp_path / "trace.csv")
    assert run(["fit", small_graph, "--n-iter", "200", "--n-chains", "2",
                "--seed", "1", "--out", trace]) == 0

    psrf_out = str(tmp_path / "psrf.csv")
    assert run(["diag", trace, "--out", psrf_out]) == 0
    captured = capsys.readouterr().out
    assert "max_psrf=" in captured
    assert first_line(psrf_out) == "param,psrf"
    # after the intervals, each parameter's ESS summed over the chains
    lines = captured.splitlines()
    ci = [l for l in lines if l.startswith("ci[")]
    traces = read_trace_csv(trace)
    expected = [f"ess[{k}]={sum(ess(t[k]) for t in traces):.1f}"
                for k in ("alpha", "sigma", "tau", "w_star")]
    assert lines[lines.index(ci[-1]) + 1:] == expected
    assert all(float(l.split("=")[1]) > 0.0 for l in expected)

    ppc_out = str(tmp_path / "ppc.csv")
    assert run(["ppc", trace, "--graph", small_graph, "--n-draws", "20",
                "--eps", "1e-3", "--out", ppc_out]) == 0
    assert first_line(ppc_out) == "degree_bin,lo,median,hi,observed"


def test_diag_level_narrows_the_intervals(small_graph, tmp_path, capsys):
    trace = str(tmp_path / "trace.csv")
    assert run(["fit", small_graph, "--n-iter", "200", "--n-chains", "2",
                "--seed", "1", "--out", trace]) == 0
    intervals = {}
    for level in ("0.95", "0.5"):
        capsys.readouterr()
        assert run(["diag", trace, "--level", level]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("ci[")]
        intervals[level] = {name: tuple(map(float, bounds.strip("()").split(", ")))
                            for name, bounds in (l.split("=") for l in lines)}
    assert intervals["0.5"].keys() == intervals["0.95"].keys() and len(intervals["0.5"]) == 4
    for name, (lo, hi) in intervals["0.5"].items():
        wide_lo, wide_hi = intervals["0.95"][name]
        assert wide_lo <= lo < hi <= wide_hi


def test_scaling_cli(tmp_path, capsys):
    out = str(tmp_path / "scaling.csv")
    code = run(["scaling", "--sigma", "-1", "--tau", "1",
                "--alpha-grid", "10", "20", "40", "--seeds", "0", "1", "2",
                "--eps", "1e-3", "--out", out])
    assert code == 0
    assert "slope=" in capsys.readouterr().out
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "alpha,seed,n_nodes,n_edges"
    assert len(lines) == 10
