import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from dunkl import cli, spherical, stable
from dunkl.cli import main, read_csv_report


def run_cli(args):
    return main(args)


def test_eval_spherical_example(capsys):
    assert run_cli(["eval", "spherical", "--n", "1", "--k", "1",
                    "--lambda", "1,0", "--X", "1,0"]) == 0
    out = capsys.readouterr().out
    vals = {ln.split(" = ")[0]: float(ln.split(" = ")[1])
            for ln in out.strip().splitlines()}
    assert abs(vals["value"] - (math.e - 1.0)) < 1e-6
    assert abs(vals["envelope"] - math.e / 2.0) < 1e-6
    assert abs(vals["ratio"] - 1.2642411) < 1e-5


def test_eval_lambda_zero(capsys):
    assert run_cli(["eval", "spherical", "--n", "2", "--k", "0.5",
                    "--lambda", "0,0,0", "--X", "1,0,-1"]) == 0
    out = capsys.readouterr().out
    assert abs(float(out.splitlines()[0].split(" = ")[1]) - 1.0) < 1e-6


@pytest.mark.parametrize("n,k,X", [(2, "0.25", "1.3,0,-1.3"),
                                   (3, "0.5", "1.5,0.6,-0.2,-1.1")])
def test_eval_lambda_zero_is_exactly_one(n, k, X, capsys):
    assert run_cli(["eval", "spherical", "--n", str(n), "--k", k,
                    "--lambda", ",".join(["0"] * (n + 1)), "--X", X]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "value = 1"


def test_eval_malformed_vector_exits_2(capsys):
    assert run_cli(["eval", "spherical", "--n", "1", "--k", "1",
                    "--lambda", "1,0", "--X", "1,zz"]) == 2


def test_eval_domain_error_exits_2(capsys):
    # X not in the chamber
    assert run_cli(["eval", "spherical", "--n", "1", "--k", "1",
                    "--lambda", "1,0", "--X", "0,1"]) == 2


def test_certify_csv_roundtrip(tmp_path, capsys):
    out = tmp_path / "rep.csv"
    rc = run_cli(["certify", "spherical", "--n", "1", "--k", "1",
                  "--num", "7", "--out", str(out)])
    assert rc == 0
    rows, summary = read_csv_report(str(out))
    assert len(rows) == 7
    ratios = np.array([r["ratio"] for r in rows])
    assert summary["min_ratio"] == ratios.min()
    assert summary["max_ratio"] == ratios.max()
    assert summary["spread"] == float(ratios.max()) / float(ratios.min())
    assert summary["count"] == 7
    header = out.read_text().splitlines()[0].split(",")
    assert header[-4:] == ["exact", "envelope", "ratio", "err_indicator"]


def test_certify_reports_are_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert run_cli(["certify", "heat", "--n", "1", "--k", "0.5",
                        "--num", "5", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_certify_json_embeds_config(tmp_path):
    out = tmp_path / "rep.json"
    assert run_cli(["certify", "spherical", "--n", "1", "--k", "1",
                    "--num", "5", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["kernel"] == "spherical"
    assert doc["config"]["num"] == 5
    assert doc["config"]["version"]
    assert len(doc["rows"]) == 5
    assert doc["summary"]["count"] == 5


def test_certify_workers_match_serial(tmp_path):
    a = tmp_path / "serial.csv"
    b = tmp_path / "pool.csv"
    base = ["certify", "newton", "--n", "1", "--k", "1", "--d", "3", "--num", "5"]
    assert run_cli(base + ["--out", str(a)]) == 0
    assert run_cli(base + ["--workers", "2", "--out", str(b)]) == 0
    ra, _ = read_csv_report(str(a))
    rb, _ = read_csv_report(str(b))
    assert ra == rb


#: a chunked A_3 point in a parent that has built the chunk pool, then the
#: same point in a forked child, which must build its own, and a chunked
#: certification sweep run serially and on a --workers pool
FORK_SCRIPT = """
import multiprocessing, sys
from dunkl import cli, spherical
from dunkl.rootsys import rootsystem

rs = rootsystem(3, 1.0)
lam, X = spherical.pairing_sweep_grid(rs, num=3)[1]
spherical._cpus = lambda: 2  # pooled chunks on any machine

def point(_):
    return spherical.spherical_log(rs, lam, X)

parent = point(None)
assert spherical._pool is not None
with multiprocessing.get_context("fork").Pool(1) as pool:
    assert pool.map_async(point, [0]).get(timeout=60) == [parent]
base = ["certify", "spherical", "--n", "3", "--num", "3", "--out"]
assert cli.main(base + [sys.argv[1]]) == 0
assert cli.main(base + [sys.argv[2], "--workers", "2"]) == 0
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_children_after_pooled_chunks(tmp_path):
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pool.csv"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", FORK_SCRIPT, str(serial), str(pooled)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # the reports differ only in the workers field of their config line
    assert pooled.read_bytes().replace(b'"workers": 2', b'"workers": 1') == serial.read_bytes()


def test_workers_run_their_chunks_serially():
    # each --workers process holds a CPU already, so its chunks take one thread
    mapper, pool = cli._mapper(2)
    try:
        assert list(mapper(spherical._chunk_width, [6, 6])) == [1, 1]
    finally:
        pool.close()
        pool.join()


def test_certify_failure_exit_code():
    # an impossible spread bound must fail with exit 1
    assert run_cli(["certify", "spherical", "--n", "1", "--k", "2.5",
                    "--num", "7", "--spread-bound", "1.0001"]) == 1


def test_certify_budget_refusal(monkeypatch):
    monkeypatch.setenv("DUNKL_BUDGET", "1000")
    assert run_cli(["certify", "spherical", "--n", "3", "--k", "1",
                    "--num", "7"]) == 3


def test_nan_budget_is_a_usage_error(monkeypatch):
    monkeypatch.setenv("DUNKL_BUDGET", "nan")
    assert run_cli(["certify", "spherical", "--n", "3", "--k", "1",
                    "--num", "7"]) == 2


def test_certify_empty_grid_usage_error():
    assert run_cli(["certify", "spherical", "--n", "1", "--k", "1",
                    "--num", "0"]) == 2


def test_lemma_command(capsys):
    assert run_cli(["lemma", "lemma_A"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS lemma_A")


def test_selftest_command(capsys):
    assert run_cli(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "heat-mass-identity" in out
    assert "selftest: PASS" in out


def test_selftest_fault_injection(capsys, monkeypatch):
    # a corrupted normalization constant must fail on the mass-identity line
    import dunkl.heatkernel as hk
    log_c = hk.log_mehta_selberg
    monkeypatch.setattr(hk, "log_mehta_selberg", lambda rs: log_c(rs) + math.log(1.05))
    assert run_cli(["selftest"]) == 1
    out = capsys.readouterr().out
    assert any(ln.startswith("FAIL heat-mass-identity") for ln in out.splitlines())


def test_selftest_fault_injection_under_optimize():
    # python -O strips assert statements; the selftest's checks must still fail
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = ("import math, sys\n"
              "import dunkl.heatkernel as hk\n"
              "from dunkl.cli import main\n"
              "log_c = hk.log_mehta_selberg\n"
              "hk.log_mehta_selberg = lambda rs: log_c(rs) + math.log(1.05)\n"
              "sys.exit(main(['selftest']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert any(ln.startswith("FAIL heat-mass-identity") for ln in lines)
    assert "selftest: FAIL" in lines


def test_console_script_entrypoint():
    # the subprocess imports the dunkl this test imported, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "dunkl.cli", "eval",
                           "spherical", "--n", "1", "--k", "1",
                           "--lambda", "0,0", "--X", "1,0"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0
    assert proc.stdout.startswith("value = 1")


def test_all_lemma_claims_pass(capsys):
    from dunkl.asymlab import CLAIM_IDS
    for claim in CLAIM_IDS:
        assert run_cli(["lemma", claim]) == 0, claim
    out = capsys.readouterr().out
    assert out.count("PASS") == len(CLAIM_IDS)


def test_eval_heat_and_missing_y():
    assert run_cli(["eval", "heat", "--n", "1", "--k", "1", "--t", "0.5",
                    "--X", "1,0", "--Y", "0.5,0.1"]) == 0
    assert run_cli(["eval", "heat", "--n", "1", "--k", "1", "--t", "0.5",
                    "--X", "1,0"]) == 2


@pytest.mark.parametrize("n,k,X,Y", [
    # A_3 needs no chamber integral: the constant is a closed form
    ("3", "1", "1.5,0.8,0.1,-0.7", "1.0,0.2,-0.3,-0.9"),
    # Gamma(1 + 3k) overflows a float at k = 150, its logarithm does not
    ("2", "150", "1.1,0.2,-0.5", "0.9,0,-0.3"),
])
def test_eval_heat_closed_form_constant(n, k, X, Y, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["eval", "heat", "--n", n, "--k", k, "--t", "0.8",
                        "--X", X, "--Y", Y]) == 0
    vals = dict(ln.split(" = ") for ln in capsys.readouterr().out.splitlines())
    assert math.isfinite(float(vals["log_value"]))


def test_certify_plan_and_tspan_overrides(tmp_path):
    out = tmp_path / "rep.csv"
    assert run_cli(["certify", "heat", "--n", "1", "--k", "1", "--num", "5",
                    "--t-span-lo", "0.1", "--t-span-hi", "10",
                    "--plan", "24", "--out", str(out)]) == 0
    rows, _ = read_csv_report(str(out))
    ts = sorted({r["t"] for r in rows})
    assert abs(ts[0] - 0.1) < 1e-12 and abs(ts[-1] - 10.0) < 1e-12
    assert run_cli(["certify", "heat", "--n", "1", "--k", "1",
                    "--plan", "24,zz"]) == 2


EVAL_ARGS = {
    "spherical": ["--n", "1", "--k", "1", "--lambda", "1,0", "--X", "1,0"],
    "heat": ["--n", "1", "--k", "1", "--t", "0.5", "--X", "1,0", "--Y", "0.5,0.1"],
    "newton": ["--n", "1", "--k", "1", "--d", "3", "--X", "1.4,0.2,0.3",
               "--Y", "1.0,0.0,0.1"],
    "stable": ["--n", "1", "--k", "1", "--s", "1.5", "--X", "1,0", "--Y", "0.5,0.1"],
}

CERTIFY_ARGS = {
    "spherical": ["--n", "1", "--k", "1"],
    "heat": ["--n", "1", "--k", "0.5"],
    "newton": ["--n", "1", "--k", "1", "--d", "3"],
    "stable": ["--n", "1", "--k", "1", "--s", "1.5"],
}


@pytest.mark.parametrize("kernel", sorted(cli.KERNELS))
def test_eval_every_kernel(kernel, capsys):
    assert run_cli(["eval", kernel] + EVAL_ARGS[kernel]) == 0
    vals = {ln.split(" = ")[0]: float(ln.split(" = ")[1])
            for ln in capsys.readouterr().out.strip().splitlines()}
    assert all(math.isfinite(v) for v in vals.values())


@pytest.mark.parametrize("kernel", sorted(cli.KERNELS))
def test_certify_every_kernel_footer_reproduces(kernel, tmp_path):
    out = tmp_path / "rep.csv"
    assert run_cli(["certify", kernel] + CERTIFY_ARGS[kernel]
                   + ["--num", "3", "--out", str(out)]) == 0
    rows, summary = read_csv_report(str(out))
    ratios = np.array([r["ratio"] for r in rows])
    assert summary["count"] == len(rows)
    assert summary["min_ratio"] == ratios.min()
    assert summary["max_ratio"] == ratios.max()
    assert summary["spread"] == float(ratios.max()) / float(ratios.min())


@pytest.mark.parametrize("kernel", sorted(cli.KERNELS))
def test_budget_prices_the_evaluations_a_sweep_makes(kernel, monkeypatch):
    config = cli.SweepConfig(kernel=kernel, n=1, k=(1.0, 0.5), s=(1.5, 1.0), num=3,
                             d=3 if kernel == "newton" else None)
    seen = []
    predicted = spherical._predicted_evals

    def counting(m, plan, batch=1):
        seen.append(predicted(m, plan, batch))
        return seen[-1]

    priced = config.predicted_evals()
    monkeypatch.setattr(config, "validate_budget", lambda: None)
    monkeypatch.setattr(spherical, "_predicted_evals", counting)
    cli.run_certify(config)
    assert priced == sum(seen)


def test_stable_budget_counts_every_heat_time(monkeypatch):
    # 11 rows of 504 heat times at 48 nodes: ~2.7e5 evaluations
    monkeypatch.setenv("DUNKL_BUDGET", "1e5")
    assert run_cli(["certify", "stable", "--n", "1", "--k", "1", "--s", "1.5",
                    "--num", "11"]) == 3


def test_eval_non_finite_kernel_value_exits_2(capsys):
    # the Kanter subordinator path overflows as s -> 2
    with np.errstate(all="ignore"):
        assert run_cli(["eval", "stable", "--s", "1.99", "--X", "1,0",
                        "--Y", "0.5,0"]) == 2
    assert "value =" not in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["heat", "--X", "inf,0", "--Y", "0.5,0"],
    ["heat", "--X", "1,0", "--Y", "0.5,nan"],
    ["spherical", "--lambda", "1,-inf", "--X", "1,0"],
    ["heat", "--t", "inf", "--X", "1,0", "--Y", "0.5,0"],
    ["stable", "--s", "nan", "--X", "1,0", "--Y", "0.5,0"],
    ["spherical", "--k", "inf", "--lambda", "1,0", "--X", "1,0"],
])
def test_eval_non_finite_input_rejected_at_parse_time(args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["eval"] + args) == 2


def test_certify_non_finite_s_rejected_at_parse_time():
    assert run_cli(["certify", "stable", "--s", "1.5,inf", "--num", "3"]) == 2


@pytest.mark.parametrize("option", ["--k", "--span-lo", "--span-hi", "--t-span-lo",
                                    "--t-span-hi", "--spread-bound"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_certify_non_finite_option_rejected_at_parse_time(option, value, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["certify", "spherical", option, value, "--num", "3"]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_eval_takes_exactly_one_k(capsys):
    assert run_cli(["eval", "spherical", "--k", "1,2", "--lambda", "1,0",
                    "--X", "1,0"]) == 2
    assert "exactly one --k" in capsys.readouterr().err


def test_certify_non_finite_stable_row_exits_2(capsys):
    # a non-finite stable row is a typed error, not a NaN handed to the report;
    # the Kanter overflow raises no warning first, so this holds under
    # python -W error too.  A cold cache makes the run evaluate the density.
    stable._scale_free_rule.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["certify", "stable", "--s", "1.99", "--num", "3"]) == 2
    assert "non-finite stable value" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["spherical", "--span-lo", "-1"], "span must satisfy 0 < lo < hi"),
    (["spherical", "--span-lo", "0"], "span must satisfy 0 < lo < hi"),
    (["spherical", "--span-lo", "10", "--span-hi", "1"], "span must satisfy 0 < lo < hi"),
    (["heat", "--t-span-lo", "0"], "t_span must satisfy 0 < lo < hi"),
    (["heat", "--t-span-lo", "5", "--t-span-hi", "5"], "t_span must satisfy 0 < lo < hi"),
    (["heat", "--plan", "0"], "node plan entries must be integers >= 1"),
    (["spherical", "--plan", "-2"], "node plan entries must be integers >= 1"),
    (["spherical", "--n", "2", "--plan", "8,0"], "node plan entries must be integers >= 1"),
])
def test_certify_span_and_plan_validated(args, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["certify"] + args + ["--num", "3"]) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["heat", "--X", "1e200,0", "--Y", "0.5,0"], "heat kernel argument overflows"),
    (["heat", "--X", "1e5,0", "--Y", "1e5,0", "--t", "1e-300"],
     "heat kernel argument overflows"),
    (["heat", "--X", "1,0", "--Y", "0.5,0", "--t", "1e-320"],
     "heat kernel argument overflows"),
    (["newton", "--d", "3", "--X", "1e200,0,0", "--Y", "0.5,0,0"],
     "|X-Y|^2 is not finite"),
    (["spherical", "--lambda", "1,0", "--X", "1e200,0"], "chamber point overflows"),
    (["spherical", "--n", "2", "--lambda", "1e300,0,0", "--X", "1e10,0,0"],
     "lambda and X overflow"),
    (["spherical", "--n", "1", "--lambda", "1e300,0", "--X", "1e10,0"],
     "lambda and X overflow"),
    (["spherical", "--lambda", "2e300,1e300", "--X", "1e10,9999999999"],
     "lambda and X overflow"),
    (["spherical", "--lambda", "1e300,1e300", "--X", "1e10,0"],
     "lambda and X overflow"),
])
def test_eval_overflowing_arguments_exit_2(args, message, capsys):
    # a typed error before numpy overflows, so this holds under python -W error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["eval"] + args) == 2
    assert f"error: {message}" in capsys.readouterr().err
