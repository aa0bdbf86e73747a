"""Spans around soslen's layer functions, installed from outside the program.

Each target function is replaced by a wrapper at every name binding that
refers to it: the defining module, every module that imported it by name,
class attributes, and module-level dicts such as the CLI's handler table.
A span records its name, start, end, parent and command index; some also
record attributes of the call (shape, prime, rank, bit sizes).  Spans stay
in memory until ``write`` is called at the end of a pass.

Self time is a span's duration minus the durations of its direct children.
Only the standard library is imported here.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
from time import perf_counter


def _rank_mod_p_attrs(args, kwargs, rank):
    M = args[0]
    m, n = M.shape
    return {
        "shape": [m, n],
        "prime": M.p,
        "rank": rank,
        "mulmods": sum((m - k) * (n - k) for k in range(rank)),
    }


def _shape_prime_attrs(args, kwargs, result):
    M = args[0]
    return {"shape": list(M.shape), "prime": M.p}


def _max_bits(values) -> int:
    return max((abs(x).bit_length() for x in values), default=0)


def _rank_rational_attrs(args, kwargs, rank):
    M = args[0]
    bits = max(
        (max(_max_bits(x.numerator for x in row), _max_bits(x.denominator for x in row))
         for row in M.rows),
        default=0,
    )
    return {"shape": list(M.shape), "rank": rank, "max_entry_bits": bits}


def _kernel_rational_attrs(args, kwargs, basis):
    return {
        "shape": list(args[0].shape),
        "dim": len(basis),
        "max_entry_bits": max((_max_bits(v) for v in basis), default=0),
    }


def _pair_products_attrs(args, kwargs, rank):
    b = len(args[0])
    return {"rows": b * (b + 1) // 2, "prime": args[3], "rank": rank}


def _bool_attrs(args, kwargs, result):
    return {"ok": bool(result)}


def _status_attrs(args, kwargs, report):
    return {"verified": report is not None and report.status.value == "Verified"}


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _cache_lookup_attrs(args, kwargs, record):
    return {"hit": record is not None, "bytes_scanned": _file_size(args[0])}


def _cache_size_before(args, kwargs):
    return _file_size(args[0])


def _cache_store_attrs(args, kwargs, result, size_before):
    return {"bytes_appended": _file_size(args[0]) - size_before}


# (span name, module, attribute path, attribute function); the attribute
# function receives (args, kwargs, result), or a (before, after) pair whose
# ``after`` also receives what ``before`` returned ahead of the call
TARGETS = [
    ("linalg.rank_mod_p", "soslen.linalg", "rank_mod_p", _rank_mod_p_attrs),
    ("linalg.rref_mod_p", "soslen.linalg", "rref_mod_p", _shape_prime_attrs),
    ("linalg.kernel_basis_mod_p", "soslen.linalg", "kernel_basis_mod_p", _shape_prime_attrs),
    ("linalg.rank_rational", "soslen.linalg", "rank_rational", _rank_rational_attrs),
    ("linalg.kernel_basis_rational", "soslen.linalg", "kernel_basis_rational",
     _kernel_rational_attrs),
    ("generic.sample", "soslen.generic", "_sample_instance", None),
    ("generic.raw_points", "soslen.generic", "_raw_points", None),
    ("generic.gate", "soslen.generic", "_gate_ok", _bool_attrs),
    ("generic.eval_matrix", "soslen.generic", "_eval_matrix_mod_p", None),
    ("generic.square_rank", "soslen.generic", "_square_rank", None),
    ("generic.pair_products_rank", "soslen.generic", "pair_products_rank", _pair_products_attrs),
    ("generic.dim_square_component", "soslen.generic", "dim_square_component", _status_attrs),
    ("generic.ik_verify", "soslen.generic", "ik_verify", _status_attrs),
    ("generic.ideal_matrix", "soslen.generic", "_ideal_matrix", None),
    ("generic.generic_ideal_dim", "soslen.generic", "generic_ideal_dim", _status_attrs),
    ("generic.typical_length", "soslen.generic", "typical_length", None),
    ("generic.run_jobs", "soslen.generic", "run_jobs", None),
    ("witness.build_witness", "soslen.witness", "build_witness", None),
    ("witness.sum_of_squares", "soslen.witness", "_sum_of_squares_int", None),
    ("witness.load_sos_file", "soslen.witness", "load_sos_file", None),
    ("witness.basis_representation", "soslen.witness", "basis_representation", None),
    ("witness.sos_representation", "soslen.witness", "SosRepresentation.__post_init__", None),
    ("witness.gram_tensor", "soslen.witness", "gram_tensor", None),
    ("witness.gram_equivalent", "soslen.witness", "gram_equivalent", None),
    ("witness.random_mix", "soslen.witness", "random_mix", None),
    ("witness.random_orthogonal", "soslen.witness", "random_rational_orthogonal", None),
    ("witness.mix_representation", "soslen.witness", "mix_representation", None),
    ("witness.representation_to_dict", "soslen.witness", "representation_to_dict", None),
    ("ring.form_arith", "soslen.ring", "Form.__add__", None),
    ("ring.form_arith", "soslen.ring", "Form.scale", None),
    ("ring.form_arith", "soslen.ring", "multiply", None),
    ("ring.product_index_table", "soslen.ring", "product_index_table", None),
    ("bounds.bounds_row", "soslen.bounds", "bounds_row", None),
    ("cli.main", "soslen.cli", "main", None),
    ("cli.cache_lookup", "soslen.cli", "_cache_lookup", _cache_lookup_attrs),
    ("cli.cache_store", "soslen.cli", "_cache_store", (_cache_size_before, _cache_store_attrs)),
    ("cli.render", "soslen.cli", "_render_bounds", None),
    ("cli.render", "soslen.cli", "_render_reports", None),
    ("cli.render", "soslen.cli", "paper_table_text", None),
    ("cli.render", "soslen.ring", "form_to_text", None),
    *[("cli.handler", "soslen.cli", f"cmd_{c}", None)
      for c in ("bounds", "table", "ik", "typical", "witness", "mix", "gramcheck")],
    ("verify.main", "verify_certificate", "main", None),
    ("verify.verify", "verify_certificate", "verify", None),
    ("verify.monomials", "verify_certificate", "monomials", None),
    ("verify.eval_vector", "verify_certificate", "eval_vector", None),
    ("verify.rank_mod_p", "verify_certificate", "rank_mod_p", None),
]


# layers whose busy time is reported as <name>.self_pct.  Coverage sums the
# self time of these alone, less cli.main (argument parsing and file writes),
# so time left in the orchestrators (command handlers, typical_length,
# run_jobs, ik_verify, mix_representation, ...) counts as not covered.
SHARE_SPANS = (
    "linalg.rank_mod_p",
    "linalg.rref_mod_p",
    "linalg.kernel_basis_mod_p",
    "linalg.rank_rational",
    "linalg.kernel_basis_rational",
    "generic.ideal_matrix",
    "generic.eval_matrix",
    "generic.pair_products_rank",
    "witness.build_witness",
    "witness.sum_of_squares",
    "witness.load_sos_file",
    "witness.gram_tensor",
    "witness.random_mix",
    "ring.form_arith",
    "ring.product_index_table",
    "verify.verify",
    "verify.eval_vector",
    "verify.rank_mod_p",
    "cli.main",
    "cli.cache_lookup",
    "cli.cache_store",
    "cli.render",
)


class Tracer:
    """In-memory span recorder for one pass of one process."""

    def __init__(self):
        # span: [name, id, parent id, command, start, end, child seconds, attrs]
        self.spans = []
        self._stack = []
        self.command = None
        self.bindings = {}

    def _wrap(self, name, fn, attrs_fn):
        spans, stack = self.spans, self._stack
        before_fn = None
        if isinstance(attrs_fn, tuple):
            before_fn, after_fn = attrs_fn
            attrs_fn = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = before_fn(args, kwargs) if before_fn is not None else None
            parent = stack[-1] if stack else None
            span = [name, len(spans), parent[1] if parent else None, self.command,
                    0.0, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span)
            span[4] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[6] += end - start
            if attrs_fn is not None:
                span[7] = attrs_fn(args, kwargs, result)
            elif before_fn is not None:
                span[7] = after_fn(args, kwargs, result, before)
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every target at every binding found in ``modules``."""
        originals = {}
        for name, mod_name, path, attrs_fn in TARGETS:
            owner = modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            originals[id(fn)] = (fn, self._wrap(name, fn, attrs_fn), name)
        for mod_name, mod in modules.items():
            for holder in self._holders(mod):
                items = holder.items() if isinstance(holder, dict) else vars(holder).items()
                for key, value in list(items):
                    hit = originals.get(id(value))
                    if hit is None or hit[0] is not value:
                        continue
                    if isinstance(holder, dict):
                        holder[key] = hit[1]
                        where = f"{mod_name}[{key!r}]"
                    else:
                        setattr(holder, key, hit[1])
                        where = f"{getattr(holder, '__name__', mod_name)}.{key}"
                    self.bindings.setdefault(hit[2], []).append(where)

    @staticmethod
    def _holders(mod):
        """The module, its module-level dicts and the classes it defines."""
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, dict) and value is not vars(mod):
                yield value
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                yield value

    def write(self, path, pass_label: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for name, sid, parent, cmd, start, end, child, attrs in self.spans:
                rec = {"pass": pass_label, "name": name, "id": sid, "parent": parent,
                       "command": cmd, "start": start, "end": end,
                       "self_s": end - start - child}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")

    def metrics(self, wall: float) -> tuple[dict, dict]:
        """Per-layer metrics of the recorded pass, and its absolute times.

        ``wall`` is the traced pass wall.  A layer's busy time is reported as
        its percentage of that wall, so a layer a workload never calls reads
        0 % rather than a constant 0 s; the seconds go to the second dict,
        which the run record keeps.
        """
        calls, self_s, durations, attrs = {}, {}, {}, {}
        for name, _sid, _parent, _cmd, start, end, child, a in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - child)
            durations.setdefault(name, []).append(end - start)
            if a is not None:
                attrs.setdefault(name, []).append(a)

        def total(name, key):
            return sum(a[key] for a in attrs.get(name, ()))

        def largest(name, key):
            return max((a[key] for a in attrs.get(name, ())), default=0)

        def share(name, key):
            got = attrs.get(name, ())
            return sum(1 for a in got if a[key]) / len(got) if got else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        def quantile(name, q):
            xs = sorted(durations.get(name, ()))
            if len(xs) < 2:
                return xs[0] if xs else 0.0
            return statistics.quantiles(xs, n=10, method="inclusive")[q - 1]

        rank = attrs.get("linalg.rank_mod_p", ())
        mulmods = total("linalg.rank_mod_p", "mulmods")
        covered = sum(self_s.get(name, 0.0) for name in SHARE_SPANS if name != "cli.main")
        metrics = {f"{name}.self_pct": 100 * ratio(self_s.get(name, 0.0), wall)
                   for name in SHARE_SPANS}
        metrics.update({
            "linalg.rank_mod_p.calls": calls.get("linalg.rank_mod_p", 0),
            "linalg.rank_mod_p.mulmods": mulmods,
            "linalg.rank_mod_p.mulmods_per_s": ratio(
                mulmods, self_s.get("linalg.rank_mod_p", 0.0)),
            "linalg.rank_mod_p.cells": sum(a["shape"][0] * a["shape"][1] for a in rank),
            "linalg.rank_mod_p.bytes_computed": 16 * mulmods,
            "linalg.rank_mod_p.max_matrix_mb": max(
                (8 * a["shape"][0] * a["shape"][1] / 2**20 for a in rank), default=0.0),
            "linalg.rank_rational.calls": calls.get("linalg.rank_rational", 0),
            "linalg.rank_rational.max_entry_bits": largest(
                "linalg.rank_rational", "max_entry_bits"),
            "linalg.kernel_basis_rational.max_entry_bits": largest(
                "linalg.kernel_basis_rational", "max_entry_bits"),
            "generic.gate.calls": calls.get("generic.gate", 0),
            "generic.gate.pass_ratio": share("generic.gate", "ok"),
            "generic.sample.rounds_per_instance": ratio(
                calls.get("generic.raw_points", 0), calls.get("generic.sample", 0)),
            "generic.ik_verify.calls": calls.get("generic.ik_verify", 0),
            "generic.ik_verify.trials_per_instance": ratio(
                calls.get("generic.dim_square_component", 0), calls.get("generic.ik_verify", 0)),
            "generic.generic_ideal_dim.attempts": calls.get("generic.generic_ideal_dim", 0),
            "generic.generic_ideal_dim.verified_ratio": share(
                "generic.generic_ideal_dim", "verified"),
            "ring.form_arith.calls": calls.get("ring.form_arith", 0),
            "verify.total_pct": 100 * ratio(sum(durations.get("verify.main", ())), wall),
            "cli.cache_lookup.bytes_scanned": total("cli.cache_lookup", "bytes_scanned"),
            "cli.cache_hit_ratio": share("cli.cache_lookup", "hit"),
            "cli.cache_store.bytes_appended": total("cli.cache_store", "bytes_appended"),
            "trace.wall_s": wall,
            "trace.spans": len(self.spans),
            "trace.coverage": ratio(covered, wall),
        })
        seconds = {
            "self_s": self_s,
            "calls": calls,
            "generic.ik_verify.latency_p50_s": quantile("generic.ik_verify", 5),
            "generic.ik_verify.latency_p90_s": quantile("generic.ik_verify", 9),
        }
        return metrics, seconds


def installed_modules(verifier) -> dict:
    """soslen's loaded modules plus the verifier, keyed by module name."""
    mods = {k: v for k, v in sys.modules.items() if k == "soslen" or k.startswith("soslen.")}
    mods["verify_certificate"] = verifier
    return mods
