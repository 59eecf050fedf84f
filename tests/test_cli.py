import json
import os
import re
import shlex
import subprocess
import sys

import pytest

import kronlab
from kronlab import cli

BASE = [sys.executable, "-m", "kronlab"]
# the CLI child imports the same kronlab as the tests, installed or not
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(kronlab.__file__)))
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])),
)


def run(*args, **env):
    proc = subprocess.run(
        BASE + list(args), capture_output=True, text=True, env=dict(ENV, **env), timeout=600
    )
    return proc


def test_expand_jet(tmp_path):
    out = tmp_path / "jet.json"
    proc = run("expand", "--level", "1", "--char", "trivial", "--qprec", "12",
               "--deg", "6", "--out", str(out))
    assert proc.returncode == 0
    data = json.loads(out.read_text())
    assert data["object"] == "KroneckerJet"
    assert data["data"]["polar_u"] == "1/1"
    assert "u1_v0" in data["data"]["entries"]
    assert data["config"]["level"] == 1


def test_expand_product(tmp_path):
    out = tmp_path / "tri.json"
    proc = run("expand", "--level", "5", "--char", "1", "--product",
               "--kmax", "6", "--qprec", "10", "--out", str(out))
    assert proc.returncode == 0
    data = json.loads(out.read_text())
    assert data["object"] == "TriGen"
    assert data["data"]["principal"] is None
    assert "4" in data["data"]["weights"]
    assert any(key.startswith("X") for key in data["data"]["weights"]["4"]["monomials"])


def test_expand_parity_error():
    proc = run("expand", "--level", "6", "--char", "1", "--qprec", "8", "--deg", "4")
    assert proc.returncode == 2
    assert "even primitive" in proc.stderr


def test_bad_character_index():
    proc = run("expand", "--level", "5", "--char", "9")
    assert proc.returncode == 2


def test_verify_identity_level5(tmp_path):
    out = tmp_path / "verify.json"
    proc = run("verify", "--level", "5", "--char", "1", "--suite", "identity",
               "--kmax", "4", "--qprec", "28", "--out", str(out))
    assert proc.returncode == 0
    data = json.loads(out.read_text())
    assert data["passed"] is True
    assert data["suite"] == "identity"


def test_verify_expansions_level1(tmp_path):
    out = tmp_path / "exp.json"
    proc = run("verify", "--level", "1", "--suite", "expansions", "--out", str(out))
    assert proc.returncode == 0
    assert json.loads(out.read_text())["passed"] is True


def test_verify_unknown_suite_is_config_error():
    proc = run("verify", "--level", "1", "--suite", "nonsense")
    assert proc.returncode == 2


def test_periods_eis_twisted(tmp_path):
    out = tmp_path / "per.json"
    proc = run("periods", "--level", "5", "--weight", "4", "--form", "eis",
               "--eps", "-1", "--twisted", "--out", str(out))
    assert proc.returncode == 0
    data = json.loads(out.read_text())["data"]
    assert data["even"] == {}
    assert "1" in data["odd"]


def test_periods_eis_level1(tmp_path):
    out = tmp_path / "per1.json"
    proc = run("periods", "--level", "1", "--weight", "4", "--form", "eis",
               "--out", str(out))
    assert proc.returncode == 0
    data = json.loads(out.read_text())["data"]
    assert data["even_unit"] == "omega_plus"
    assert data["odd"] == {"-1": "1/720", "1": "-1/144", "3": "1/720"}


def test_periods_cusp0(tmp_path):
    out = tmp_path / "cusp.json"
    proc = run("periods", "--level", "5", "--weight", "4", "--form", "cusp0",
               "--twisted", "--qprec", "30", "--out", str(out))
    assert proc.returncode == 0
    data = json.loads(out.read_text())
    assert len(data["periods"]) == 3
    assert data["checks"]["functional_eq_residual"] <= 1e-8
    assert data["checks"]["twisted_functional_eq_residual"] <= 1e-8


def test_verify_modular_sampled_report(tmp_path):
    out = tmp_path / "mod.json"
    proc = run("verify", "--level", "5", "--char", "1", "--suite", "modular",
               "--out", str(out))
    assert proc.returncode == 0
    data = json.loads(out.read_text())
    entry = data["checks"][0]
    for key in ("point", "lhs", "rhs", "abs_err", "rel_err", "tolerance", "pass"):
        assert key in entry


def test_deterministic_output_modulo_timestamp(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = run("expand", "--level", "5", "--char", "1", "--qprec", "10",
                   "--deg", "4", "--out", str(out))
        assert proc.returncode == 0
        data = json.loads(out.read_text())
        data.pop("timestamp")
        data["config"].pop("out")
        outs.append(json.dumps(data, sort_keys=True))
    assert outs[0] == outs[1]


def test_env_override(tmp_path):
    out = tmp_path / "env.json"
    env = dict(ENV, KRONLAB_LEVEL="5")
    proc = subprocess.run(
        BASE + ["expand", "--char", "1", "--qprec", "8", "--deg", "4",
                "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text())["config"]["level"] == 5


@pytest.mark.parametrize(
    "env, args",
    [
        ({}, ["verify", "--level", "13", "--suite", "periods"]),
        ({"KRONLAB_LEVEL": "abc"}, ["expand"]),
        ({}, ["verify", "--level", "1", "--suite", "identity", "--qprec", "3"]),
        ({}, ["verify", "--level", "1", "--suite", "periods", "--qprec", "3"]),
        ({}, ["verify", "--level", "1", "--suite", "expansions", "--qprec", "0"]),
        ({}, ["expand", "--level", "1", "--product", "--qprec", "0"]),
        ({}, ["periods", "--level", "1", "--form", "eis", "--weight", "1"]),
        ({}, ["periods", "--level", "1", "--form", "eis", "--weight", "3"]),
        ({}, ["periods", "--level", "5", "--form", "eis", "--weight", "5"]),
        ({}, ["verify", "--level", "5", "--suite", "periods", "--qprec", "5"]),
        ({}, ["periods", "--level", "5", "--char", "1", "--form", "cusp0", "--weight", "4",
              "--qprec", "5"]),
        ({}, ["verify", "--level", "1", "--suite", "identity", "--kmax", "0"]),
        ({}, ["expand", "--deg", "-1"]),
        ({}, ["expand", "--product", "--kmax", "-2"]),
    ],
)
def test_bad_input_is_config_error(env, args):
    proc = run(*args, **env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("suite", list(cli.SUITES))
def test_every_suite_passes_small(suite, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--level", "5", "--char", "1", "--suite", suite,
                     "--kmax", "4", "--qprec", "30", "--out", str(out)])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads(out.read_text())["passed"] is True


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_examples_run(capsys):
    text = open(README).read()
    lines = [
        shlex.split(line, comments=True)
        for block in re.findall(r"```sh\n(.*?)```", text, re.S)
        for line in block.splitlines()
        if line.startswith("kronlab ")
    ]
    assert lines
    for argv in lines:
        assert cli.main(argv[1:]) == 0, argv
    capsys.readouterr()
    suites = re.findall(r"^\| `([a-z0-9-]+)` \|", text, re.M)
    assert suites == list(cli.SUITES)
