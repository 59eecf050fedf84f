"""Outside-in span tracer for kronlab's layers.

The tracer wraps public functions of the ``kronlab`` modules from outside the
package: nothing under ``src/`` is edited.  A function is rebound at every
place it is bound, because the modules import names directly
(``from .series import qs_mul``):

- every global of every loaded ``kronlab.*`` module that refers to the
  function object;
- every attribute of the owning class that refers to it, which covers
  aliases such as ``__rmul__ = __mul__``.

Each call records a span (name, start, end, parent) in flat in-memory arrays;
all spans of one process belong to one job.  `Tracer.write` stores them when
the job ends and `load_spans` reads them back.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from fractions import Fraction

# (module, attribute, span name); "Class.method" names a class attribute.
TARGETS = [
    ("arith", "Cyclotomic.__mul__", "arith.cyclo_mul"),
    ("arith", "Cyclotomic.__add__", "arith.cyclo_add"),
    ("arith", "Cyclotomic.inverse", "arith.cyclo_inverse"),
    ("series", "qs_mul", "series.qs_mul"),
    ("series", "qs_scale", "series.qs_scale"),
    ("series", "qs_add", "series.qs_add"),
    ("series", "theta_op", "series.theta_op"),
    ("series", "trigen_mul", "series.trigen_mul"),
    ("series", "bijet_substitute", "series.bijet_substitute"),
    ("kronecker", "product_B", "kronecker.product_B"),
    ("kronecker", "kron_fourier", "kronecker.kron_fourier"),
    ("kronecker", "g_km", "kronecker.g_km"),
    ("kronecker", "eisenstein_combo", "kronecker.eisenstein_combo"),
    ("modforms", "extract_rank_one_cusp", "modforms.extract_rank_one_cusp"),
    ("modforms", "eisenstein_g_chi", "modforms.eisenstein_g_chi"),
    ("modforms", "eisenstein_h_chi", "modforms.eisenstein_h_chi"),
    ("modforms", "hecke_Tp", "modforms.hecke_Tp"),
    ("modforms", "slice_cusp_data", "modforms.slice_cusp_data"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "solve", "linalg.solve"),
    ("dirichlet", "gauss_sum", "dirichlet.gauss_sum"),
    ("dirichlet", "twisted_bernoulli", "dirichlet.twisted_bernoulli"),
    ("dirichlet", "enumerate_characters", "dirichlet.enumerate_characters"),
    ("numeric", "eval_F_chi", "numeric.eval_F_chi"),
    ("numeric", "eval_F", "numeric.eval_F"),
    ("numeric", "theta", "numeric.theta"),
    ("numeric", "theta_prime0", "numeric.theta_prime0"),
    ("numeric", "cusp_period", "numeric.cusp_period"),
    ("numeric", "twisted_cusp_period", "numeric.twisted_cusp_period"),
    ("periods", "generating_C", "periods.generating_C"),
    ("periods", "assemble_R", "periods.assemble_R"),
    ("periods", "petersson_fit", "periods.petersson_fit"),
    ("checks", "hecke_eigen_checks", "checks.hecke_eigen_checks"),
    ("cli", "_write_report", "cli.write_report"),
]

# spans whose distinct argument keys are counted (for unique_ratio)
KEYED = {
    "kronecker.g_km",
    "kronecker.eisenstein_combo",
    "modforms.eisenstein_g_chi",
    "modforms.eisenstein_h_chi",
    "dirichlet.gauss_sum",
    "numeric.theta_prime0",
}


def _arg_key(a):
    if a is None or isinstance(a, (int, float, complex, str, Fraction)):
        return a
    key = getattr(a, "key", None)  # DirichletCharacter
    if isinstance(key, tuple):
        return key
    if type(a).__name__ == "Context":
        return ("ctx", a.mode)
    raise TypeError(f"no argument key for {type(a).__name__}")


def _call_key(args, kwargs):
    return tuple(_arg_key(a) for a in args) + tuple(
        (k, _arg_key(v)) for k, v in sorted(kwargs.items())
    )


def qs_mul_mac(a, b) -> int:
    """Nonzero coefficient products in the truncated Cauchy product, in O(prec)."""
    prec = min(a.prec, b.prec)
    nz_b = [0] * (prec + 1)  # nz_b[t] = number of nonzero b_j with j < t
    for j in range(prec):
        nz_b[j + 1] = nz_b[j] + (b.coeffs[j] != 0)
    return sum(nz_b[prec - i] for i in range(prec) if a.coeffs[i] != 0)


class Tracer:
    """Span recorder; `install` wraps the targets, `uninstall` restores them."""

    def __init__(self, job: int):
        self.job = job
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.errors: dict[int, int] = {}  # span name id -> count
        self.keys: dict[str, set] = {}
        self.mac = 0
        self._restore: list = []

    # -- recording ---------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        clock = time.perf_counter
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack
        )
        errors = self.errors
        keys = self.keys.setdefault(name, set()) if name in KEYED else None
        count_mac = name == "series.qs_mul"
        by_route = name == "kronecker.product_B"
        if by_route:
            nid, jets = self._id(name + ".closed"), self._id(name + ".jets")
        else:
            nid = self._id(name)

        def traced(*args, **kwargs):
            if keys is not None:
                keys.add(_call_key(args, kwargs))
            if count_mac:
                self.mac += qs_mul_mac(*args)
            sid = nid
            if by_route:
                route = kwargs.get("route", args[3] if len(args) > 3 else "closed")
                if route == "jets":
                    sid = jets
            i = len(name_id)
            name_id.append(sid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[sid] = errors.get(sid, 0) + 1
                raise
            finally:
                end[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------
    def install(self):
        """Wrap every target wherever it is bound; returns the number of bindings."""
        mods = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "kronlab" or name.startswith("kronlab.")
        }
        # every checks.suite_* function shares one span name
        suites = sorted(n for n in vars(mods["kronlab.checks"]) if n.startswith("suite_"))
        targets = TARGETS + [("checks", n, "checks.suite") for n in suites]
        for mod_name, attr, span in targets:
            home = mods[f"kronlab.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                wrapped = self._wrap(orig, span)
                for alias, value in list(vars(cls).items()):
                    if value is orig:
                        self._rebind(cls, alias, orig, wrapped)
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(orig, span)
            for mod in mods.values():
                for gname, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, gname, orig, wrapped)
        return len(self._restore)

    def _rebind(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------
    def summary(self) -> dict:
        """Per span name: calls, s (inclusive, outermost spans only), self_s,
        errors and, for keyed spans, unique_ratio; plus qs_mul's mac count."""
        n = len(self.name_id)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0} for name in self.names}
        open_spans: list[int] = []
        open_names: dict[int, int] = {}
        for i in range(n):
            while open_spans and open_spans[-1] != self.parent[i]:
                open_names[self.name_id[open_spans.pop()]] -= 1
            nid = self.name_id[i]
            rec = out[self.names[nid]]
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["self_s"] += dur - child[i]
            if not open_names.get(nid):
                rec["s"] += dur
            open_spans.append(i)
            open_names[nid] = open_names.get(nid, 0) + 1
        for sid, count in self.errors.items():
            out[self.names[sid]]["errors"] = count
        for name, keys in self.keys.items():
            calls = out.get(name, {}).get("calls", 0)
            if calls:
                out[name]["unique_ratio"] = len(keys) / calls
        if "series.qs_mul" in out:
            out["series.qs_mul"]["mac"] = self.mac
        return out

    def write(self, path: str):
        """One JSON header line, then name id, parent, start and end arrays."""
        header = {
            "job": self.job,
            "names": self.names,
            "count": len(self.name_id),
            "fields": ["name_id:i", "parent:i", "start:d", "end:d"],
            "clock": "time.perf_counter",
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def load_spans(path: str) -> list[dict]:
    """Read a file written by `Tracer.write` back into span records."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        cols = []
        for field in header["fields"]:
            arr = array(field.split(":")[1])
            arr.fromfile(fh, n)
            cols.append(arr)
    names = header["names"]
    return [
        {"name": names[nid], "start": s, "end": e, "parent": p, "job": header["job"]}
        for nid, p, s, e in zip(*cols)
    ]
