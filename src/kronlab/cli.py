"""Command-line front end: expand, verify, periods.

Exit codes: 0 success, 1 failed check, 2 configuration error.  A KRONLAB_*
environment variable presets the default of the flag of the same name; the
preset is converted and validated exactly like the flag, so a bad one exits 2
with the parser's message.  Reports embed the resolved configuration and are
byte-stable apart from the timestamp field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

from .dirichlet import DirichletCharacter, ParityError, enumerate_characters
from .kronecker import kron_laurent, product_B
from .modforms import atkin_lehner_sign, extract_rank_one_cusp, sign_characters
from .ntheory import is_squarefree
from .numeric import Context, cusp_period, twisted_cusp_period
from .periods import cusp_period_data, period_eisenstein, period_eisenstein_twisted
from . import checks


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    level: int = 1
    char: str = "trivial"
    qprec: int = 30
    kmax: int = 14
    deg: int = 14
    tol: dict | None = None
    out: str | None = None
    mode: str = "double"
    suite: str | None = None
    seed: int = 20240811

    def to_json(self):
        d = asdict(self)
        d["tol"] = self.tol or {}
        return d


def _env_default(name: str, fallback):
    """The raw KRONLAB_<NAME> string, or fallback when it is unset.

    argparse applies the flag's type to a string default, so a preset is
    checked like the flag itself.
    """
    return os.environ.get(f"KRONLAB_{name.upper()}", fallback)


def select_character(cfg: RunConfig) -> DirichletCharacter:
    chars = enumerate_characters(cfg.level)
    if cfg.char == "auto":
        if cfg.level == 1:
            return chars[0]
        for c in chars:
            if c.is_even() and c.is_primitive():
                return c
        raise ConfigError(f"no even primitive character mod {cfg.level}")
    if cfg.char == "trivial":
        return chars[0]
    if cfg.char == "quadratic":
        for c in chars:
            if c.order == 2:
                return c
        raise ConfigError(f"no quadratic character mod {cfg.level}")
    try:
        idx = int(cfg.char)
    except ValueError as exc:
        raise ConfigError(f"bad character selector {cfg.char!r}") from exc
    if not 0 <= idx < len(chars):
        raise ConfigError(f"character index {idx} out of range for N={cfg.level}")
    return chars[idx]


def _identity_character(cfg: RunConfig) -> DirichletCharacter:
    if not is_squarefree(cfg.level):
        raise ConfigError("identity workflows need a square-free level")
    chi = select_character(cfg)
    if not (chi.is_even() and chi.is_primitive()):
        raise ConfigError("identity workflows need an even primitive character")
    return chi


def _write_report(report: dict, cfg: RunConfig):
    report = dict(report)
    report["config"] = cfg.to_json()
    report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    text = json.dumps(report, indent=2, sort_keys=True, default=_json_default)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _json_default(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def cmd_expand(cfg: RunConfig, product: bool) -> int:
    chi = _identity_character(cfg)
    if product:
        tri = product_B(chi, cfg.kmax, cfg.qprec)
        _write_report({"object": "TriGen", "data": tri.to_json()}, cfg)
    else:
        jet = kron_laurent(chi, cfg.qprec, cfg.deg)
        _write_report({"object": "KroneckerJet", "route": jet.route, "data": jet.jet.to_json()}, cfg)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    tol = cfg.tol or {}
    ctx = Context.bigfloat() if cfg.mode == "bigfloat" else Context.double()
    if cfg.suite == "expansions":
        report = checks.suite_expansions(cfg.level, min(cfg.qprec, 20), min(cfg.deg, 10))
    elif cfg.suite == "identity":
        chi = _identity_character(cfg)
        report, _ = checks.suite_identity(cfg.level, chi, cfg.kmax, cfg.qprec)
    elif cfg.suite == "modular":
        chi = _identity_character(cfg)
        report = checks.suite_modular(
            cfg.level, chi, seed=cfg.seed, tol=float(tol.get("modular", 1e-9)), ctx=ctx
        )
    elif cfg.suite == "elliptic":
        chi = _identity_character(cfg)
        report = checks.suite_elliptic(
            cfg.level, chi, seed=cfg.seed, tol=float(tol.get("elliptic", 1e-9)), ctx=ctx
        )
    elif cfg.suite == "cusp-limits":
        chi = _identity_character(cfg)
        report = checks.suite_cusp_limits(
            cfg.level, chi, tol=float(tol.get("cusp-limits", 1e-8))
        )
    elif cfg.suite == "periods":
        if cfg.level == 1:
            report = checks.suite_periods_level1(cfg.qprec)
        elif cfg.level == 5:
            report = checks.suite_periods_level5(cfg.qprec)
        else:
            raise ConfigError(
                f"the periods suite supports levels 1 and 5, not {cfg.level}"
            )
    else:
        raise ConfigError(f"unknown suite {cfg.suite!r}")
    _write_report(report, cfg)
    return 0 if report["passed"] else 1


def cmd_periods(cfg: RunConfig, form: str, weight: int, eps_arg: int, twisted: bool) -> int:
    if form == "eis":
        if weight < 2 or weight % 2:
            raise ConfigError(f"Eisenstein periods need an even weight >= 2, not {weight}")
        signs = sign_characters(cfg.level)
        want = None
        for e in signs:
            if all(s == eps_arg for _, s in e.signs) or cfg.level == 1:
                want = e
                break
        if want is None:
            raise ConfigError("no sign character with the requested sign")
        if twisted:
            chi = _identity_character(cfg)
            pd = period_eisenstein_twisted(weight, cfg.level, want, chi)
        else:
            pd = period_eisenstein(weight, cfg.level, want)
        _write_report({"object": "PeriodData", "data": pd.to_json()}, cfg)
        return 0
    if form == "cusp0":
        chi = _identity_character(cfg)
        tri = product_B(chi, weight, cfg.qprec)
        extraction = extract_rank_one_cusp(
            tri.weights.get(weight, {}), weight, cfg.level, chi, cfg.qprec
        )
        if extraction.rank != 1:
            raise ConfigError(f"no rank-one cusp form at weight {weight} (rank {extraction.rank})")
        f = extraction.eigenform
        eps_n = 1 if cfg.level == 1 else atkin_lehner_sign(f.coeffs[cfg.level], weight, cfg.level)
        rn = [cusp_period(f, weight, cfg.level, eps_n, n).value for n in range(weight - 1)]
        res = checks.functional_equation_residuals(rn, weight, cfg.level, eps_n)
        pd = cusp_period_data("cusp0", weight, rn)
        report = {
            "object": "PeriodReport",
            "form": "cusp0",
            "k": weight,
            "periods": [{"n": n, "re": r.real, "im": r.imag} for n, r in enumerate(rn)],
            "even": pd.even.to_json(),
            "odd": pd.odd.to_json(),
            "checks": {"functional_eq_residual": res},
        }
        if twisted:
            rn_tw = [
                twisted_cusp_period(f, weight, cfg.level, chi, n).value
                for n in range(weight - 1)
            ]
            report["twisted_periods"] = [
                {"n": n, "re": r.real, "im": r.imag} for n, r in enumerate(rn_tw)
            ]
            report["checks"]["twisted_functional_eq_residual"] = (
                checks.twisted_functional_equation_residuals(rn_tw, rn_tw, weight, chi)
            )
        _write_report(report, cfg)
        return 0
    raise ConfigError(f"unknown form selector {form!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kronlab")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--level", type=int, default=_env_default("level", 1))
        p.add_argument("--char", default=_env_default("char", "trivial"))
        p.add_argument("--qprec", type=int, default=_env_default("qprec", 30))
        p.add_argument("--kmax", "--tmax", type=int, default=_env_default("kmax", 14), dest="kmax")
        p.add_argument("--deg", type=int, default=_env_default("deg", 14))
        p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE")
        p.add_argument("--out", default=_env_default("out", None))
        p.add_argument("--bigfloat", action="store_true")
        p.add_argument("--seed", type=int, default=_env_default("seed", 20240811))

    p_expand = sub.add_parser("expand", help="dump a Kronecker jet or the product TriGen")
    common(p_expand)
    p_expand.add_argument("--product", action="store_true")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    common(p_verify)
    p_verify.add_argument(
        "--suite",
        required=True,
        choices=["expansions", "modular", "elliptic", "cusp-limits", "identity", "periods"],
    )

    p_periods = sub.add_parser("periods", help="period polynomials / period reports")
    common(p_periods)
    p_periods.set_defaults(char="auto")
    p_periods.add_argument("--form", required=True, help="eis or cusp0")
    p_periods.add_argument("--weight", type=int, default=4)
    p_periods.add_argument("--eps", type=int, default=1, choices=[1, -1])
    p_periods.add_argument("--twisted", action="store_true")

    return parser


def _config_from_args(args) -> RunConfig:
    tol = {}
    for item in args.tol:
        name, _, value = item.partition("=")
        if not value:
            raise ConfigError(f"bad --tol entry {item!r}")
        tol[name] = float(value)
    if args.qprec < 4:
        # the Hecke checks read a_2 and a_3
        raise ConfigError(f"--qprec must be at least 4, not {args.qprec}")
    return RunConfig(
        level=args.level,
        char=str(args.char),
        qprec=args.qprec,
        kmax=args.kmax,
        deg=args.deg,
        tol=tol,
        out=args.out,
        mode="bigfloat" if args.bigfloat else "double",
        suite=getattr(args, "suite", None),
        seed=args.seed,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "expand":
            return cmd_expand(cfg, args.product)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "periods":
            return cmd_periods(cfg, args.form, args.weight, args.eps, args.twisted)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ParityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
