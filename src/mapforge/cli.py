"""Command-line front end.

Every subcommand prints a single report to stdout (or --output): JSON with
sorted keys or plot-ready CSV, always prefixed by the fully resolved
parameter set so runs are diffable and reproducible byte for byte.
Rationals are rendered as exact "p/q" strings.  Exit codes: 0 success,
2 invalid parameters or an unwritable output path, 3 numeric or branch
failure inside a solver.
"""

import argparse
import csv
import functools
import io
import json
import os
import re
import sys
from contextlib import nullcontext
from fractions import Fraction

from . import __version__ as VERSION
from .series_core import TruncSeries, rat_str, rat_parse
from .planar_onecut import (OutOfOneCut, EvenOnly, Potential, quartic_solution,
                            planar_free_energy, gamma_two_sameface)
from .wick_fatgraphs import (StructureViolation, TooLarge,
                             connected_free_energy_F)
from .ortho_genus import NoPhysicalRoot, exact_free_energy_FN, genus_extract
from .string_eq import DeepenCutoff, AlgebraBug, kdv_residues, commutator_check
from .geodesic import (DomainError, exact_Rn_quartic, integral_of_motion,
                       scaling_F, scaling_G, discrete_to_continuum_check)
from .bijections import sample_quadrangulation_uniform, distance_profile
from .observables import (BranchError, IntegrationObstruction, neighbor_pgf,
                          simple_neighbor_pgf, vertices_at_distance,
                          vertices_at_distance_asymptotic)
from .branching import (OutOfRange, BranchingConfig, simulate_extinction,
                        escape_interval, extinction_exact, escape_exact)

# solver-level failures: the request was well-formed but the computation
# left its validity region, an internal identity failed, or it ran out of
# stack or memory
NUMERIC_ERRORS = (OutOfOneCut, OutOfRange, BranchError, DomainError,
                  NoPhysicalRoot, StructureViolation, DeepenCutoff, AlgebraBug,
                  IntegrationObstruction, EvenOnly, RecursionError,
                  MemoryError)


# the largest --faces accepted: one sample adds about 0.8 KB of peak memory
# and 3 us per face (one sample at 2*10^5 faces peaks at 172 MB against 96 MB
# at 10^5, in 0.62 s against 0.29 s, Python 3.11), so one at the cap needs
# about 0.8 GB
FACES_CAP = 10 ** 6


class BadParameter(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises BadParameter on a refusal, so main
    reports it on one line, instead of printing usage and exiting.
    Subparsers take their class from the parser that adds them."""

    def error(self, message):
        raise BadParameter("%s: %s" % (self.prog, message))


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (int, Fraction)):
        return rat_str(v)
    return str(v)


def _parse_weights(tokens):
    out = {}
    for tok in tokens:
        m = re.fullmatch(r"g(\d+)=(.+)", tok)
        if not m:
            raise BadParameter("weight '%s' is not of the form gK=value" % tok)
        valence = int(m.group(1))
        if valence < 1:
            raise BadParameter("valence in weight '%s' must be >= 1" % tok)
        try:
            out[valence] = rat_parse(m.group(2))
        except ValueError:
            raise BadParameter("bad rational '%s' in weight" % m.group(2))
    if not out:
        raise BadParameter("at least one weight is required")
    return out


def _parse_emit(value, allowed):
    items = [x for x in value.split(",") if x]
    for x in items:
        if x not in allowed:
            raise BadParameter("unknown emit '%s' (choose from %s)"
                               % (x, ",".join(sorted(allowed))))
    if not items:
        raise BadParameter("empty emit list")
    return items


def diffpoly_text(dp):
    """Render a differential polynomial as e.g. "3/8*u^2 - 1/8*u''"."""
    if not dp.terms:
        return "0"
    bits = []
    for mono in sorted(dp.terms, key=lambda m: (-len(m), m)):
        factors = []
        for k in sorted(set(mono)):
            base = "u" + "'" * k
            power = mono.count(k)
            factors.append(base if power == 1 else "%s^%d" % (base, power))
        body = "*".join(factors) or "1"
        c = dp.terms[mono]
        piece = "%s*%s" % (rat_str(abs(c)), body)
        if not bits:
            bits.append(piece if c > 0 else "-" + piece)
        else:
            bits.append(("+ " if c > 0 else "- ") + piece)
    return " ".join(bits)


# ---------------------------------------------------------------------------
# report plumbing


def _metadata(args):
    skip = {"output", "command"}
    params = {}
    for k, v in vars(args).items():
        if k in skip:
            continue
        if isinstance(v, Fraction):
            v = rat_str(v)
        params[k.replace("_", "-")] = v
    return {"tool": "mapforge", "version": VERSION,
            "command": args.command, "parameters": params}


def _write_report(args, results, header, rows):
    meta = _metadata(args)
    if args.format == "json":
        doc = {"metadata": meta, "results": results}
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        for k in sorted(meta["parameters"]):
            buf.write("# %s=%s\n" % (k, meta["parameters"][k]))
        buf.write("# tool=%s version=%s\n" % (meta["tool"], meta["version"]))
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) if not isinstance(x, str) else x for x in row])
        text = buf.getvalue()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_oracle(args):
    weights = _parse_weights(args.weights)
    if args.order < 0:
        raise BadParameter("order must be >= 0")
    F = connected_free_energy_F(weights, args.order)
    results = {}
    rows = []
    for (k, h), q in sorted(genus_extract(F).items()):
        col = h if args.genus_split else 2 - 2 * h
        key = str(col) if args.genus_split else "N^%d" % col
        results.setdefault(str(k), {})[key] = rat_str(q)
        rows.append((k, col, q))
    header = ["order", "genus" if args.genus_split else "N-exponent",
              "coefficient"]
    return results, header, rows


def _cmd_planar(args):
    emits = _parse_emit(args.emit, {"f", "R", "S", "Gamma2"})
    if args.order < 0:
        raise BadParameter("order must be >= 0")
    V = Potential.quartic(args.g4)
    sol = quartic_solution(args.g4, args.order)
    series = {}
    for name in emits:
        if name == "f":
            series[name] = planar_free_energy(V, args.order)
        elif name == "R":
            series[name] = sol.R
        elif name == "S":
            series[name] = sol.S
        else:
            series[name] = gamma_two_sameface(V, sol)
    results = {name: ts.to_strings() for name, ts in series.items()}
    rows = [[k] + [series[name].coeffs[k] for name in emits]
            for k in range(args.order + 1)]
    return results, ["order"] + emits, rows


def _cmd_genus(args):
    if args.order < 0:
        raise BadParameter("order must be >= 0")
    if args.max_genus < 0:
        raise BadParameter("max-genus must be >= 0")
    F = exact_free_energy_FN({4: args.g4}, args.order)
    table = genus_extract(F)
    results = {}
    rows = []
    for (k, h), q in sorted(table.items()):
        if h > args.max_genus:
            continue
        results.setdefault(str(k), {})[str(h)] = rat_str(q)
        rows.append((k, h, q))
    return results, ["order", "genus", "coefficient"], rows


def _cmd_stringeq(args):
    emits = _parse_emit(args.emit, {"residues", "commutator"})
    if args.m < 0:
        raise BadParameter("m must be >= 0")
    results = {}
    rows = []
    if "residues" in emits:
        res = {}
        for j, R in enumerate(kdv_residues(args.m)):
            name = "R%d" % (j + 1)
            res[name] = diffpoly_text(R)
            rows.append((name, res[name]))
        results["residues"] = res
    if "commutator" in emits:
        text = diffpoly_text(commutator_check(args.m))
        results["commutator"] = text
        rows.append(("commutator", text))
    return results, ["name", "value"], rows


def _cmd_geodesic(args):
    if args.continuum:
        rows = []
        r_grid = [0.5 + 0.1 * i for i in range(16)]
        for r in r_grid:
            dev = discrete_to_continuum_check(args.eps, [r])
            rows.append((r, scaling_F(r), scaling_G(r), dev))
        results = {"grid": [{"r": repr(r), "F": repr(f), "G": repr(gv),
                             "deviation": repr(d)}
                            for r, f, gv, d in rows]}
        return results, ["r", "F", "G", "deviation"], rows
    emits = _parse_emit(args.emit, {"Rn", "Gn", "motion"})
    if args.n < 0:
        raise BadParameter("n must be >= 0")
    if args.order < 0:
        raise BadParameter("order must be >= 0")
    # the printed rows n-1..n+1 at g4 = 1; coupling g4 scales order k by g4^k
    R = {}
    for m in range(max(args.n - 1, 0), args.n + 2):
        row = exact_Rn_quartic(m, order=args.order).coeffs
        R[m] = TruncSeries("g", [c * args.g4 ** k for k, c in enumerate(row)])
    series = {}
    if "Rn" in emits:
        series["Rn"] = R[args.n]
    if "Gn" in emits:
        prev = R[args.n - 1] if args.n > 0 else 0
        series["Gn"] = R[args.n] - prev
    if "motion" in emits:
        g = TruncSeries.gen("g", args.order)
        series["motion"] = integral_of_motion((R[args.n], R[args.n + 1]), g)
    results = {name: series[name].to_strings() for name in emits}
    rows = [[k] + [series[name].coeffs[k] for name in emits]
            for k in range(args.order + 1)]
    return results, ["order"] + emits, rows


def _cmd_sample(args):
    if args.faces < 1:
        raise BadParameter("faces must be >= 1")
    if args.faces > FACES_CAP:
        raise BadParameter("faces must be <= %d" % FACES_CAP)
    if args.samples < 1:
        raise BadParameter("samples must be >= 1")
    rows = []
    profiles = []
    # --dump-maps writes the JSON list of the maps one map at a time, as
    # each is sampled, so the file holds what json.dump of the list would
    # and memory holds one map, not all of them; json.dumps, unlike
    # json.dump, runs the C encoder
    with open(args.dump_maps, "w") if args.dump_maps else nullcontext() as fh:
        for i in range(args.samples):
            m = sample_quadrangulation_uniform(args.faces, args.seed, i)
            counts, deg = distance_profile(m)
            profiles.append({"sample": i, "root_degree": deg, "counts": {
                str(d): counts[d] for d in sorted(counts)}})
            for d in sorted(counts):
                rows.append((i, d, counts[d]))
            if fh:
                fh.write(", " if i else "[")
                fh.write(json.dumps({"sigma": list(m.sigma),
                                     "alpha": list(m.alpha),
                                     "root": m.root}, sort_keys=True))
        if fh:
            fh.write("]\n")
    return ({"profiles": profiles}, ["sample", "distance", "count"], rows)


def _cmd_local(args):
    emits = _parse_emit(args.emit, {"P", "Pi", "profile"})
    if args.nmax < 1:
        raise BadParameter("nmax must be >= 1")
    results = {}
    rows = []
    if "P" in emits:
        vals = {str(n): rat_str(neighbor_pgf(n))
                for n in range(1, args.nmax + 1)}
        results["P"] = vals
        rows.extend(("P", n, neighbor_pgf(n))
                    for n in range(1, args.nmax + 1))
    if "Pi" in emits:
        grid = [Fraction(j, args.nmax) for j in range(args.nmax + 1)]
        vals = {}
        for t in grid:
            v = simple_neighbor_pgf(float(t))
            vals[rat_str(t)] = repr(v)
            rows.append(("Pi", rat_str(t), v))
        results["Pi"] = vals
    if "profile" in emits:
        vals = {}
        for n in range(args.nmax + 1):
            if args.finite_area is not None:
                q = vertices_at_distance(n, args.finite_area)
            else:
                q = vertices_at_distance_asymptotic(n)
            vals[str(n)] = rat_str(q)
            rows.append(("profile", n, q))
        results["profile"] = vals
    return results, ["series", "index", "value"], rows


def _cmd_branching(args):
    if args.samples < 0:
        raise BadParameter("samples must be >= 0")
    if args.wall == "interval" and args.L is None:
        raise BadParameter("interval wall needs --L")
    cfg = BranchingConfig(args.p, start=args.n, walls=args.wall,
                          L=args.L, t_max=args.t_max,
                          seed=args.seed if args.seed is not None else 0)
    if args.wall == "single":
        exact = extinction_exact(args.n, args.p)
    else:
        exact = escape_exact(args.n, args.L, args.p)
    results = {"exact": _fmt(exact), "estimate": None, "stderr": None,
               "z": None, "censored": None}
    if args.samples > 0:
        if args.seed is None:
            raise BadParameter("--seed is required when samples > 0")
        if args.wall == "single":
            tally = simulate_extinction(cfg, args.samples)
        else:
            tally = escape_interval(cfg, args.samples)
        results["estimate"] = repr(tally.estimate)
        results["stderr"] = repr(tally.stderr)
        results["censored"] = tally.censored
        if tally.stderr > 0:
            results["z"] = repr((tally.estimate - float(exact)) / tally.stderr)
    rows = [(k, "" if v is None else v) for k, v in sorted(results.items())]
    return results, ["name", "value"], rows


# ---------------------------------------------------------------------------


def build_parser():
    """The argument tree, --threads defaulting to $MAPFORGE_THREADS, else
    1; one tree is built per value of the variable and then reused."""
    return _parser(os.environ.get("MAPFORGE_THREADS", "1"))


@functools.lru_cache(maxsize=None)
def _parser(threads_env):
    try:
        threads = int(threads_env)
    except ValueError:
        raise BadParameter("MAPFORGE_THREADS=%r is not an integer"
                           % threads_env) from None
    top = _Parser(prog="mapforge")
    top.add_argument("--version", action="version", version=VERSION)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, default_format, seeded=False):
        p.add_argument("--format", choices=("json", "csv"),
                       default=default_format)
        p.add_argument("--output", default=None)
        p.add_argument("--threads", type=int, default=threads,
                       help="worker count (default: $MAPFORGE_THREADS, else "
                            "1); accepted and echoed in the report, but "
                            "without effect: every command runs in one "
                            "thread")
        if seeded:
            p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("oracle")
    p.add_argument("--weights", nargs="+", required=True, metavar="gK=VAL")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--genus-split", action="store_true")
    common(p, "json")

    p = sub.add_parser("planar")
    p.add_argument("--g4", type=rat_parse, default=Fraction(1))
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--emit", default="f,R,Gamma2")
    common(p, "json")

    p = sub.add_parser("genus")
    p.add_argument("--g4", type=rat_parse, default=Fraction(1))
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--max-genus", type=int, default=2)
    common(p, "csv")

    p = sub.add_parser("stringeq")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--emit", default="residues,commutator")
    common(p, "json")

    p = sub.add_parser("geodesic")
    p.add_argument("--g4", type=rat_parse, default=Fraction(1))
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--order", type=int, default=20)
    p.add_argument("--emit", default="Rn,Gn,motion")
    p.add_argument("--continuum", action="store_true")
    p.add_argument("--eps", type=float, default=0.05)
    common(p, "json")

    p = sub.add_parser("sample")
    p.add_argument("--faces", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--dump-maps", default=None, metavar="PATH")
    common(p, "csv", seeded=True)

    p = sub.add_parser("local")
    p.add_argument("--emit", default="P,Pi,profile")
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--finite-area", type=int, default=None)
    common(p, "csv")

    p = sub.add_parser("branching")
    p.add_argument("--p", type=rat_parse, required=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--wall", choices=("single", "interval"), default="single")
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--t-max", type=int, default=100000)
    common(p, "json")

    return top


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        # the handler is looked up per call, not stored in the cached tree
        results, header, rows = globals()["_cmd_" + args.command](args)
        _write_report(args, results, header, rows)
    except NUMERIC_ERRORS as e:
        print("%s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 3
    except (BadParameter, TooLarge, ValueError, OSError) as e:
        # OSError: --output or --dump-maps names a path that cannot be
        # written; BadParameter also covers a non-integer $MAPFORGE_THREADS
        print("%s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
