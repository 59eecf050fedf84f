"""Command-line front end: expand, verify, periods.

`verify --suite NAME` runs the suite that the SUITES table maps NAME to; the
table also supplies the parser's choices.  `periods --form cusp0` shares its
rank-one workflow and eigenform certificate with the periods suite
(checks.cusp_form_periods).

Exit codes: 0 success, 1 failed check, 2 configuration error.  Reports
embed the resolved configuration and are byte-stable apart from the
timestamp field.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time

from .arith import scalar_to_json
from .dirichlet import DirichletCharacter, ParityError, enumerate_characters
from .kronecker import kron_laurent, product_B
from .modforms import RankError, sign_characters
from .ntheory import is_squarefree
from .periods import cusp_period_data, period_eisenstein, period_eisenstein_twisted
from . import checks


class ConfigError(ValueError):
    pass


# the parsed arguments that every report's config block records
CONFIG_KEYS = ("level", "char", "qprec", "kmax", "deg", "tol", "out", "suite", "seed")


def select_character(level: int, char: str) -> DirichletCharacter:
    chars = enumerate_characters(level)
    if char == "auto" and level > 1:
        prims = checks.even_primitive_characters(level)
        if not prims:
            raise ConfigError(f"no even primitive character mod {level}")
        return prims[0]
    if char == "auto":
        return chars[0]
    if char in checks.NAMED_CHARACTERS:
        return checks.NAMED_CHARACTERS[char](level)
    try:
        idx = int(char)
    except ValueError as exc:
        raise ConfigError(f"bad character selector {char!r}") from exc
    if not 0 <= idx < len(chars):
        raise ConfigError(f"character index {idx} out of range for N={level}")
    return chars[idx]


def _identity_character(cfg: argparse.Namespace) -> DirichletCharacter:
    """The --char of a workflow on the identity's side, which needs a
    square-free level and an even primitive character; an error names the
    command that was run."""
    if cfg.command == "verify":
        command = f"verify --suite {cfg.suite}"
    elif cfg.command == "expand":
        command = "expand --product" if cfg.product else "expand"
    else:
        command = f"periods --form {cfg.form}" + (" --twisted" if cfg.twisted else "")
    if not is_squarefree(cfg.level):
        raise ConfigError(f"{command} needs a square-free level, not {cfg.level}")
    chi = select_character(cfg.level, cfg.char)
    if not (chi.is_even() and chi.is_primitive()):
        raise ConfigError(
            f"{command} needs an even primitive character mod {cfg.level}, not --char {cfg.char}")
    return chi


def _suite_character(cfg: argparse.Namespace, selector: str) -> None:
    """Refuse a --char that does not select the one character a suite runs."""
    try:
        chosen = select_character(cfg.level, cfg.char)
    except ValueError:
        chosen = None
    if chosen != select_character(cfg.level, selector):
        raise ConfigError(f"the {cfg.suite} suite at level {cfg.level} runs "
                          f"--char {selector}, not --char {cfg.char}")


def _write_report(report: dict, cfg: argparse.Namespace):
    report = dict(report)
    # "mode" is a constant, kept because pinned report digests hash the config block
    report["config"] = {**{key: getattr(cfg, key) for key in CONFIG_KEYS}, "mode": "double"}
    report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    text = json.dumps(report, indent=2, sort_keys=True, default=scalar_to_json)
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write --out {cfg.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text + "\n")


def _check_out(path: str) -> None:
    """Refuse an --out that cannot be written before any work is done: a
    directory, or a file whose directory is missing or not writable.  Writing
    can still fail later; _write_report reports that the same way."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(folder):
        code = errno.ENOENT
    elif not os.access(folder, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ConfigError(f"cannot write --out {path}: {os.strerror(code)}")


def _laurent_json(poly: dict) -> dict:
    """A Laurent polynomial in X as {"exponent": coefficient}: zeros dropped,
    sorted by exponent."""
    return {str(e): scalar_to_json(c) for e, c in sorted(poly.items()) if c != 0}


def cmd_expand(cfg: argparse.Namespace) -> int:
    chi = _identity_character(cfg)
    if cfg.product:
        tri = product_B(chi, cfg.kmax, cfg.qprec)
        _write_report({"object": "TriGen", "data": tri.to_json()}, cfg)
    else:
        jet = kron_laurent(chi, cfg.qprec, cfg.deg)
        _write_report({"object": "KroneckerJet", "route": "laurent", "data": jet.to_json()}, cfg)
    return 0


# the --tol NAME=VALUE names; no other name is accepted.  Each suite's
# default tolerance is its own tol= default.
TOLERANCES = ("modular", "elliptic", "charsum-vs-jet", "cusp-limits", "prop22")


def _tol(cfg: argparse.Namespace, name: str) -> dict:
    """tol=VALUE when --tol NAME=VALUE was given, else nothing."""
    return {"tol": cfg.tol[name]} if name in cfg.tol else {}


def _prop22(cfg: argparse.Namespace) -> dict:
    _suite_character(cfg, "quadratic")
    return checks.suite_prop22(cfg.level, **_tol(cfg, "prop22"))


def _periods(cfg: argparse.Namespace) -> dict:
    if cfg.level in checks.PERIOD_LEVELS:  # the suite itself refuses other levels
        _suite_character(cfg, checks.PERIOD_LEVELS[cfg.level][1])
    return checks.suite_periods(cfg.level, cfg.qprec)


# --suite name -> runner(cfg).  A runner looks its suite up in `checks`
# when it runs, so whatever `checks.suite_*` is bound to then is what runs.
SUITES = {
    "expansions": lambda cfg: checks.suite_expansions(
        cfg.level, min(cfg.qprec, 20), min(cfg.deg, 10)),
    "identity": lambda cfg: checks.suite_identity(
        cfg.level, _identity_character(cfg), cfg.kmax, cfg.qprec),
    "product-routes": lambda cfg: checks.suite_product_routes(
        cfg.level, _identity_character(cfg), cfg.kmax, cfg.qprec),
    "brackets": lambda cfg: checks.suite_brackets(
        cfg.level, _identity_character(cfg), cfg.kmax, cfg.qprec),
    "modular": lambda cfg: checks.suite_modular(
        cfg.level, _identity_character(cfg), seed=cfg.seed, **_tol(cfg, "modular")),
    # elliptic draws from the next seed, as suite_elliptic does by default
    "elliptic": lambda cfg: checks.suite_elliptic(
        cfg.level, _identity_character(cfg), seed=cfg.seed + 1, **_tol(cfg, "elliptic")),
    "charsum-vs-jet": lambda cfg: checks.suite_charsum_vs_jet(
        cfg.level, _identity_character(cfg), prec=cfg.qprec, **_tol(cfg, "charsum-vs-jet")),
    "cusp-limits": lambda cfg: checks.suite_cusp_limits(
        cfg.level, _identity_character(cfg), **_tol(cfg, "cusp-limits")),
    "prop22": _prop22,
    "periods": _periods,
}


def cmd_verify(cfg: argparse.Namespace) -> int:
    try:
        report = SUITES[cfg.suite](cfg)
    except RankError as exc:  # its message names the weight
        raise ConfigError(f"verify --suite {cfg.suite} {exc}") from None
    _write_report(report, cfg)
    return 0 if report["passed"] else 1


def cmd_periods(cfg: argparse.Namespace) -> int:
    if cfg.form == "eis":
        if cfg.weight < 2 or cfg.weight % 2:
            raise ConfigError(f"periods --form eis needs an even weight >= 2, not {cfg.weight}")
        chi = _identity_character(cfg) if cfg.twisted else None
        if not is_squarefree(cfg.level):
            raise ConfigError(f"periods --form eis needs a square-free level, not {cfg.level}")
        # the all-+ and all-- sign characters always exist (one with no signs at N = 1)
        want = next(e for e in sign_characters(cfg.level) if all(s == cfg.eps for _, s in e.signs))
        if cfg.weight == 2 and want.is_trivial():  # G_2 has no such form, twisted or not
            raise ConfigError("periods --form eis needs a nontrivial sign character at weight 2 "
                              f"(--eps -1 at a level above 1), not --eps {cfg.eps} at level {cfg.level}")
        form_id = f"G_{cfg.weight},{cfg.level}^{want.label()}"
        if cfg.twisted:
            even, odd = period_eisenstein_twisted(cfg.weight, chi)
            form_id = f"({form_id})_chi"
        else:
            even, odd = period_eisenstein(cfg.weight, want)
        data = {
            "form": form_id,
            "k": cfg.weight,
            "even": _laurent_json(even),
            "odd": _laurent_json(odd),
            # a closed form's even part carries omega_plus, even where its
            # coefficients cancel; the twisted one is empty when chi(0) = 0
            "even_unit": "omega_plus" if even else None,
        }
        _write_report({"object": "PeriodData", "data": data}, cfg)
        return 0
    chi = _identity_character(cfg)
    if cfg.weight < 2 or cfg.weight % 2:
        raise ConfigError(f"periods --form cusp0 needs an even --weight >= 2, not {cfg.weight}")
    try:
        cp = checks.cusp_form_periods(chi, cfg.weight, cfg.qprec, chi if cfg.twisted else None)
    except RankError as exc:  # its message names the weight
        raise ConfigError(f"periods --form cusp0 {exc}") from None
    if not cp.rn:
        failed = ", ".join(c["name"] for c in cp.checks if not c["pass"])
        raise ConfigError(
            f"no certified rank-one eigenform at weight {cfg.weight}: {failed} failed")
    even, odd = cusp_period_data(cfg.weight, cp.rn)
    report = {
        "object": "PeriodReport",
        "form": "cusp0",
        "k": cfg.weight,
        "periods": [{"n": n, "re": r.real, "im": r.imag} for n, r in enumerate(cp.rn)],
        "even": _laurent_json(even),
        "odd": _laurent_json(odd),
        "checks": {c["name"]: c["residual"] for c in cp.checks if "residual" in c},
    }
    if cfg.twisted:
        report["twisted_periods"] = [{"n": n, "re": r.real, "im": r.imag}
                                     for n, r in enumerate(cp.rn_tw)]
    _write_report(report, cfg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kronlab")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--level", type=int, default=1)
        p.add_argument("--char", default="trivial")
        p.add_argument("--qprec", type=int, default=30)
        p.add_argument("--kmax", type=int, default=14)
        p.add_argument("--deg", type=int, default=14)
        p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE")
        p.add_argument("--out")
        p.add_argument("--seed", type=int, default=checks.LAW_SEED)

    p_expand = sub.add_parser("expand", help="dump a Kronecker jet or the product TriGen")
    common(p_expand)
    p_expand.add_argument("--product", action="store_true")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    common(p_verify)
    p_verify.add_argument(
        "--suite",
        required=True,
        choices=list(SUITES),
    )

    p_periods = sub.add_parser("periods", help="period polynomials / period reports")
    common(p_periods)
    p_periods.set_defaults(char="auto")
    p_periods.add_argument("--form", required=True, choices=["eis", "cusp0"])
    p_periods.add_argument("--weight", type=int, default=4)
    p_periods.add_argument("--eps", type=int, default=1, choices=[1, -1])
    p_periods.add_argument("--twisted", action="store_true")

    return parser


def _config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """The parsed arguments, validated, with --tol as a {name: value} dict and
    `suite` set (None outside verify): the configuration every command reads."""
    suite = getattr(args, "suite", None)
    tol = {}
    for item in args.tol:
        name, _, value = item.partition("=")
        if not value:
            raise ConfigError(f"bad --tol entry {item!r}")
        if name not in TOLERANCES:
            raise ConfigError(f"unknown --tol name {name!r}; valid names: {', '.join(TOLERANCES)}")
        if name != suite:
            # verify --suite NAME reads --tol NAME, and no command reads another
            command = f"verify --suite {suite}" if suite else args.command
            reads = f"only --tol {suite}" if suite in TOLERANCES else "no --tol"
            raise ConfigError(f"{command} reads {reads}, not --tol {name}")
        tol[name] = float(value)
        if not 0 <= tol[name] < float("inf"):  # nan compares false
            raise ConfigError(f"--tol {name} must be finite and at least 0, not {value}")
    if args.level < 1:
        raise ConfigError(f"--level must be at least 1, not {args.level}")
    least = max(checks.HECKE_PRIMES) + 1  # the Hecke checks read a_p at each of these primes
    if args.qprec < least:
        raise ConfigError(f"--qprec must be at least {least}, not {args.qprec}")
    if args.kmax < 2:
        # the lowest weight any workflow covers
        raise ConfigError(f"--kmax must be at least 2, not {args.kmax}")
    if args.deg < 0:
        raise ConfigError(f"--deg must be at least 0, not {args.deg}")
    if args.out:
        _check_out(args.out)
    args.tol, args.suite = tol, suite
    return args


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if cfg.command == "expand":
            return cmd_expand(cfg)
        if cfg.command == "verify":
            return cmd_verify(cfg)
        return cmd_periods(cfg)
    except (ConfigError, ParityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
