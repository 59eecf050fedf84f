import json
import os
import re
import shlex
import subprocess
import sys

import pytest

import kronlab
from kronlab import checks, cli
from kronlab.arith import scalar_to_json

BASE = [sys.executable, "-m", "kronlab"]
# the CLI child imports the same kronlab as the tests, installed or not
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(kronlab.__file__)))
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])),
)


def run(*args):
    return subprocess.run(BASE + list(args), capture_output=True, text=True, env=ENV, timeout=600)


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


@pytest.mark.parametrize("twisted", [[], ["--twisted"]])
def test_periods_cusp0_level7(twisted, tmp_path):
    # the level-7 eigenform (auto-selected order-3 character) holds its
    # Atkin-Lehner coefficient a_7 = -7 as a Cyclotomic; the twist by that
    # non-real character is checked against the periods of its conjugate twist
    out = tmp_path / "cusp7.json"
    proc = run("periods", "--level", "7", "--weight", "4", "--form", "cusp0",
               *twisted, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    data = json.loads(out.read_text())
    assert data["checks"]["functional_eq_residual"] <= 1e-12
    if twisted:
        assert data["checks"]["twisted_functional_eq_residual"] <= 1e-12


def test_verify_modular_sampled_report(tmp_path):
    out = tmp_path / "mod.json"
    proc = run("verify", "--level", "5", "--char", "1", "--suite", "modular",
               "--out", str(out))
    assert proc.returncode == 0
    data = json.loads(out.read_text())
    entry = data["checks"][0]
    for key in ("point", "lhs", "rhs", "abs_err", "rel_err", "tolerance", "pass"):
        assert key in entry
    # written only when some point could not be evaluated
    assert "unsupported" not in data and "certified" not in data


@pytest.mark.parametrize("suite", ["modular", "elliptic"])
def test_default_law_reports_sample_the_suites_default_points(suite, capsys):
    # --seed defaults to the modular suite's seed, and elliptic draws from
    # the next one, as suite_elliptic does by default
    assert cli.main(["verify", "--level", "5", "--char", "1", "--suite", suite]) == 0
    got = json.loads(capsys.readouterr().out)["checks"]
    chi = checks.quadratic_character(5)
    want = getattr(checks, f"suite_{suite}")(5, chi)["checks"]
    want = json.loads(json.dumps(want, default=scalar_to_json))
    assert [(c["name"], c["point"]) for c in got] == [(c["name"], c["point"]) for c in want]


@pytest.mark.parametrize("suite, nchecks", [("modular", 40), ("elliptic", 20)])
def test_level13_laws_list_unsupported_points(suite, nchecks, tmp_path):
    # |q| >= 0.92 at the modular images and q^(-169) in the elliptic multiplier
    # are outside double precision: those points are listed, not raised
    data = _law_report_with_unsupported("13", suite, nchecks, tmp_path)
    assert data["passed"] == all(c["pass"] for c in data["checks"])


def test_level7_elliptic_lists_points_outside_the_double_range(tmp_path):
    # at pt10 and pt11 the shifted theta values overflow a double
    data = _law_report_with_unsupported("7", "elliptic", 20, tmp_path)
    assert data["certified"] == 18
    assert [e["name"] for e in data["unsupported"]] == [
        "elliptic_pt10_m1n1", "elliptic_pt11_m-1n-1"]


def test_cusp_limits_lists_the_slash_points_outside_double_precision(tmp_path):
    # from level 175 on the second slash point's image under W_N has
    # |q| >= 0.95, where eval_qseries does not converge; at the first one
    # the claimed truncation bound exceeds the tolerance
    out = tmp_path / "cusp.json"
    proc = run("verify", "--level", "177", "--char", "auto", "--suite", "cusp-limits",
               "--out", str(out))
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    data = json.loads(out.read_text())
    assert [(e["name"], e["reason"].split(":")[0]) for e in data["unsupported"]] == [
        ("G2_slash_pointwise_0", "precision"), ("G2_slash_pointwise_1", "ConvergenceError"),
        ("G4_slash_pointwise_0", "precision"), ("G4_slash_pointwise_1", "ConvergenceError")]
    assert data["certified"] == len(data["checks"]) == 8


@pytest.mark.parametrize("level, points", [
    ("13", ["G2_slash_pointwise_1", "G4_slash_pointwise_1"]),
    ("17", ["G2_slash_pointwise_1", "G4_slash_pointwise_1"]),
    ("101", ["G2_slash_pointwise_0", "G2_slash_pointwise_1",
             "G4_slash_pointwise_0", "G4_slash_pointwise_1"]),
])
def test_cusp_limits_lists_slash_points_whose_claimed_bound_exceeds_tol(level, points, tmp_path):
    # the slash points whose truncation bound (B_lhs + |N^(r/2)/W(chi)| B_rhs)/|rhs|
    # exceeds tol are neither passed nor failed
    out = tmp_path / "cusp.json"
    proc = run("verify", "--level", level, "--char", "auto", "--suite", "cusp-limits",
               "--out", str(out))
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    data = json.loads(out.read_text())
    assert [e["name"] for e in data["unsupported"]] == points
    assert all(e["reason"].startswith("precision: claimed relative bound") for e in data["unsupported"])
    assert data["certified"] == len(data["checks"]) == 12 - len(points)


def _law_report_with_unsupported(level: str, suite: str, nchecks: int, tmp_path) -> dict:
    """A law report with unsupported points: exit 0 without a traceback, and
    every check either certified or listed."""
    out = tmp_path / "law.json"
    proc = run("verify", "--level", level, "--char", "auto", "--suite", suite,
               "--out", str(out))
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    data = json.loads(out.read_text())
    unsupported = data["unsupported"]
    assert unsupported
    assert data["certified"] == len(data["checks"])
    assert data["certified"] + len(unsupported) == nchecks
    assert all(set(e) == {"name", "point", "reason"} for e in unsupported)
    return data


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


BAD_INPUT = [
    ["verify", "--level", "13", "--suite", "periods"],
    ["expand", "--level", "abc"],
    ["verify", "--level", "1", "--suite", "identity", "--qprec", "3"],
    ["verify", "--level", "1", "--suite", "periods", "--qprec", "3"],
    ["verify", "--level", "1", "--suite", "expansions", "--qprec", "0"],
    ["expand", "--level", "1", "--product", "--qprec", "0"],
    ["periods", "--level", "1", "--form", "eis", "--weight", "1"],
    ["periods", "--level", "1", "--form", "eis", "--weight", "3"],
    ["periods", "--level", "5", "--form", "eis", "--weight", "5"],
    ["verify", "--level", "5", "--char", "1", "--suite", "periods", "--qprec", "5"],
    ["periods", "--level", "5", "--char", "1", "--form", "cusp0", "--weight", "4", "--qprec", "5"],
    ["verify", "--level", "1", "--suite", "identity", "--kmax", "0"],
    ["expand", "--deg", "-1"],
    ["expand", "--product", "--kmax", "-2"],
    ["verify", "--level", "5", "--char", "1", "--suite", "modular", "--bigfloat"],
    # periods and prop22 run one character each; another --char is refused
    ["verify", "--level", "5", "--suite", "periods"],
    ["verify", "--level", "5", "--char", "2", "--suite", "periods"],
    ["verify", "--level", "5", "--char", "0", "--suite", "prop22"],
    ["verify", "--level", "13", "--char", "6", "--suite", "prop22"],
    ["verify", "--level", "1", "--char", "quadratic", "--suite", "periods"],
    # --kmax has no other spelling
    ["expand", "--product", "--tmax", "4"],
    # the charsum-vs-jet points lie too close to level 59's poles for a
    # jet of degree <= 60
    ["verify", "--level", "59", "--char", "auto", "--suite", "charsum-vs-jet"],
    # rank-one remainders that mix eigenforms fail the Hecke certificate
    ["periods", "--level", "11", "--form", "cusp0", "--weight", "4"],
    ["periods", "--level", "13", "--form", "cusp0", "--weight", "4"],
    # an odd character has no identity workflow
    ["periods", "--level", "5", "--char", "2", "--form", "cusp0", "--weight", "4"],
    # a tolerance that is not finite, or is negative, would pass or fail every check
    ["verify", "--level", "5", "--char", "1", "--suite", "modular", "--tol", "modular=inf"],
    ["verify", "--level", "5", "--char", "1", "--suite", "modular", "--tol", "modular=nan"],
    ["verify", "--level", "5", "--char", "1", "--suite", "modular", "--tol", "modular=-1"],
    # the Hecke certificate reads T_3 f to precision qprec // 3, which
    # checks nothing below 9
    ["verify", "--level", "1", "--suite", "periods", "--qprec", "8"],
    ["verify", "--level", "0", "--suite", "identity"],
    ["periods", "--level", "0", "--form", "eis"],
]


# the ids are these cases' established names, kept so that runs compare by name
@pytest.mark.parametrize("args", BAD_INPUT, ids=[f"env{i}-args{i}" for i in range(len(BAD_INPUT))])
def test_bad_input_is_config_error(args):
    proc = run(*args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


CONFIG_ERRORS = [
    (["verify", "--level", "0", "--suite", "identity"], "--level must be at least 1, not 0"),
    (["periods", "--level", "0", "--form", "eis"], "--level must be at least 1, not 0"),
    (["verify", "--level", "1", "--suite", "periods", "--qprec", "8"],
     "the Hecke certificate needs qprec >= 9, not 8"),
    # a workflow on the identity's side names the command that was run
    (["verify", "--level", "4", "--suite", "modular"],
     "verify --suite modular needs a square-free level, not 4"),
    (["expand", "--level", "3", "--product"],
     "expand --product needs an even primitive character mod 3, not --char trivial"),
    (["expand", "--level", "12"], "expand needs a square-free level, not 12"),
    (["periods", "--level", "5", "--char", "2", "--form", "cusp0"],
     "periods --form cusp0 needs an even primitive character mod 5, not --char 2"),
    (["periods", "--level", "5", "--char", "2", "--form", "eis", "--twisted"],
     "periods --form eis --twisted needs an even primitive character mod 5, not --char 2"),
    # periods checks its own level and weight before any sign character or G_k is built
    (["periods", "--form", "eis", "--level", "4", "--weight", "4"],
     "periods --form eis needs a square-free level, not 4"),
    (["periods", "--form", "eis", "--level", "4", "--weight", "4", "--twisted"],
     "periods --form eis --twisted needs a square-free level, not 4"),
    (["periods", "--form", "cusp0", "--level", "1", "--weight", "3"],
     "periods --form cusp0 needs an even --weight >= 2, not 3"),
    (["periods", "--form", "eis", "--level", "4", "--weight", "3"],
     "periods --form eis needs an even weight >= 2, not 3"),
    # a weight outside the rank-one scope: the command and the weight
    (["verify", "--level", "13", "--char", "6", "--suite", "identity", "--kmax", "6"],
     "verify --suite identity at weight 6: cusp remainder has rank 3 > 1"),
    (["periods", "--form", "cusp0", "--level", "1", "--weight", "40"],
     "periods --form cusp0 at weight 40: cusp remainder has rank 3 > 1"),
    # G_2^eps exists only for a nontrivial eps
    (["periods", "--form", "eis", "--level", "1", "--weight", "2"],
     "periods --form eis needs a nontrivial sign character at weight 2 "
     "(--eps -1 at a level above 1), not --eps 1 at level 1"),
    (["periods", "--form", "eis", "--level", "5", "--weight", "2", "--eps", "1"],
     "periods --form eis needs a nontrivial sign character at weight 2 "
     "(--eps -1 at a level above 1), not --eps 1 at level 5"),
    # and so its twist is not asked for either
    (["periods", "--form", "eis", "--level", "1", "--weight", "2", "--twisted"],
     "periods --form eis needs a nontrivial sign character at weight 2 "
     "(--eps -1 at a level above 1), not --eps 1 at level 1"),
    (["periods", "--form", "eis", "--level", "5", "--weight", "2", "--eps", "1", "--twisted"],
     "periods --form eis needs a nontrivial sign character at weight 2 "
     "(--eps -1 at a level above 1), not --eps 1 at level 5"),
    # a character selector that selects nothing: the command and the selector's error
    (["verify", "--level", "6", "--char", "auto", "--suite", "identity"],
     "verify --suite identity: no even primitive character mod 6"),
    (["verify", "--level", "13", "--char", "99", "--suite", "identity"],
     "verify --suite identity: character index 99 out of range for N=13"),
    (["verify", "--level", "13", "--char", "abc", "--suite", "identity"],
     "verify --suite identity: bad character selector 'abc'"),
    (["verify", "--level", "1", "--suite", "prop22"], "verify --suite prop22: no quadratic character mod 1"),
    (["expand", "--level", "6", "--char", "auto", "--product"],
     "expand --product: no even primitive character mod 6"),
    (["periods", "--level", "13", "--char", "99", "--form", "cusp0"],
     "periods --form cusp0: character index 99 out of range for N=13"),
]


# established ids, as for test_bad_input_is_config_error
@pytest.mark.parametrize("argv, message", CONFIG_ERRORS,
                         ids=[f"env{i}-argv{i}-{m}" for i, (_, m) in enumerate(CONFIG_ERRORS)])
def test_config_error_message(argv, message, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("suite", list(cli.SUITES))
def test_every_suite_passes_small(suite, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--level", "5", "--char", "1", "--suite", suite,
                     "--kmax", "4", "--qprec", "30", "--out", str(out)])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads(out.read_text())["passed"] is True


def test_charsum_vs_jet_degree_follows_the_level(tmp_path, capsys):
    # at degree 10 the jet's truncation error at level 17 is about 5.6e-9,
    # above the 1e-9 tolerance; the degree rule takes it to 1e-12
    assert [checks._jet_degree(N) for N in (1, 5, 7, 13, 17, 19, 29, 41)] == [
        10, 10, 10, 14, 16, 18, 24, 36]
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--level", "17", "--char", "auto", "--suite", "charsum-vs-jet",
                     "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True and report["max_abs_err"] < 1e-11


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_examples_run(capsys):
    with open(README) as fh:
        text = fh.read()
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


def test_refused_char_names_a_selector_that_works(capsys):
    assert cli.main(["verify", "--level", "1", "--char", "quadratic", "--suite", "periods"]) == 2
    assert "runs --char trivial" in capsys.readouterr().err
    assert cli.main(["verify", "--level", "5", "--suite", "prop22"]) == 2
    assert "runs --char quadratic" in capsys.readouterr().err
    assert cli.main(["verify", "--level", "5", "--char", "quadratic", "--suite", "prop22"]) == 0


def test_misspelled_tol_name_is_config_error(capsys):
    argv = ["verify", "--level", "5", "--char", "1", "--suite", "modular"]
    assert cli.main(argv + ["--tol", "modulr=1e-30"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'modulr'" in captured.err
    assert all(name in captured.err for name in cli.TOLERANCES)
    args = cli.build_parser().parse_args(argv + ["--tol", "modular=1e-30"])
    assert cli._config_from_args(args).tol == {"modular": 1e-30}


@pytest.mark.parametrize(
    "argv, reads",
    [
        (["verify", "--level", "1", "--suite", "expansions", "--tol", "modular=1e-30"],
         "verify --suite expansions reads no --tol"),
        (["verify", "--level", "5", "--char", "1", "--suite", "modular", "--tol", "elliptic=1"],
         "verify --suite modular reads only --tol modular"),
        (["periods", "--level", "1", "--form", "eis", "--tol", "modular=1"], "periods reads no --tol"),
        (["expand", "--tol", "prop22=1"], "expand reads no --tol"),
    ],
)
def test_unread_tol_name_is_config_error(argv, reads, capsys):
    # a --tol name is read only by verify --suite of the same name
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert reads in captured.err


def test_unwritable_out_is_config_error(tmp_path):
    missing = tmp_path / "missing" / "x.json"
    proc = run("verify", "--level", "1", "--suite", "expansions", "--out", str(missing))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and str(missing) in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", ["missing/x.json", "."])
def test_unwritable_out_is_refused_before_any_suite_runs(name, tmp_path, monkeypatch, capsys):
    # a missing directory, or a directory itself: refused when the
    # configuration is read, so no suite runs
    def boom(cfg):
        raise AssertionError("a suite ran")

    monkeypatch.setitem(cli.SUITES, "expansions", boom)
    out = str(tmp_path / name)
    assert cli.main(["verify", "--level", "1", "--suite", "expansions", "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write --out {out}: ")


@pytest.mark.parametrize("argv", [["--level", "5", "--char", "1"], ["--level", "1"]])
def test_a_failed_petersson_fit_is_a_failed_check(argv, monkeypatch, capsys):
    # one monomial of the numeric R off by 1 %: the fit's check fails (exit 1),
    # the rationality snaps normalized by its norm are not run (level 1), and
    # every other check reads as before
    argv = ["verify", "--suite", "periods", *argv]
    assert cli.main(argv) == 0
    before = json.loads(capsys.readouterr().out)["checks"]
    assemble_R = checks.assemble_R

    def skewed(*args):
        R = assemble_R(*args)
        key = max(R)
        return {**R, key: R[key] * 1.01}

    monkeypatch.setattr(checks, "assemble_R", skewed)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    after = json.loads(captured.out)["checks"]
    fit = next(c for c in after if c["name"] == "petersson_fit")
    assert fit["pass"] is False and fit["deviation"] > 1e-3
    skipped = ("petersson_fit", "rationality_snaps")
    assert [c for c in after if c is not fit] == [c for c in before if c["name"] not in skipped]
