"""Command-line harness: analyze a polynomial's fiber structure, verify
theorem families over parameter grids, search for m-to-1 forms, and count
m-to-1 self-maps.

Exit codes: 0 success (and, for verify, zero disagreements); 1 verify found
disagreements, or a search hit failed re-verification; 2 parse failure, a
verify option the family does not declare or below its floor, or an --out or
--csv path that cannot be opened for writing (opened before any work runs);
3 unsupported scale; 4 search budget exceeded; 5 verify ran zero checks (a
grid record counts its params.checked, any other record that is not skipped
counts one); 6 a verify evaluator crashed (one line on stderr names the
evaluator, its params and the exception).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

from .criteria import HypothesisError
from .galois import FieldError, Poly, ScaleError, eval_powers, parse_field
from .harness import (FAMILIES, EvaluatorError, VerifyJob, canonical_json,
                      json_encoder, run_job)
from .multiplicity import (ENUMERATION_MAX_Q, IndexMapping,
                           admissible_m_set, check_m_to_1,
                           count_by_enumeration, count_formula,
                           fiber_histogram)
from .search import BudgetError, DEFAULT_BUDGET, search_forms

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_PARSE = 2
EXIT_SCALE = 3
EXIT_BUDGET = 4
EXIT_VACUOUS = 5
EXIT_CRASH = 6


def _parse_int_list(text, flag):
    """Ints from a comma list of 'a' and 'a..b' items (a..b is empty when
    b < a); an empty item or a non-int is a ValueError naming flag."""
    out = []
    for part in text.split(","):
        lo, dots, hi = part.strip().partition("..")
        try:
            out.extend(range(int(lo), int(hi if dots else lo) + 1))
        except ValueError:
            raise ValueError(f"{flag} {text!r}: {part.strip()!r} is not an "
                             f"int or a range a..b") from None
    return out


def _parse_grid(text, table):
    """Extra grid options: 'k=v;k2=v2' with v an int, int list, or range.
    An option with a tuple default in the family's table stays a list even
    of one value; any other declared option takes one int.  An undeclared
    key is kept for build_instances to refuse by name."""
    opts = {}
    for pair in text.split(";"):
        if not pair.strip():
            continue
        key, _, value = (part.strip() for part in pair.partition("="))
        values = tuple(_parse_int_list(value, f"--grid {key}"))
        if not isinstance(table.get(key, ()), tuple):
            if len(values) > 1:
                raise ValueError(f"--grid cannot give {key}={value}: {key} "
                                 f"takes one int")
            values = values[0]
        opts[key] = values
    return opts


def _pick(positional, flagged, what):
    if positional is not None and flagged is not None and positional != flagged:
        raise ValueError(f"{what} given twice: {positional!r} vs {flagged!r}")
    value = positional if positional is not None else flagged
    if value is None:
        raise ValueError(f"missing {what}")
    return value


_CONSTANTS = {True: "true", False: "false", None: "null"}
# json's text for a value of exactly one of these types (a float through the
# C encoder, for NaN and the infinities)
_SCALAR_TEXT = {str: encode_basestring_ascii, int: int.__repr__,
                float: canonical_json, bool: _CONSTANTS.__getitem__,
                type(None): _CONSTANTS.__getitem__}
_BATCH = 1 << 12  # parts joined per write to the sinks


def _key_text(key):
    """A dict key, converted and quoted as json does."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return encode_basestring_ascii(canonical_json(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


class _FlatEncoders(dict):
    """The C encoder of a flat container at each level, made on first use."""

    def __missing__(self, level):
        encoder = self[level] = json_encoder(",\n" + "  " * (level + 1))
        return encoder


def write_json(obj, sinks):
    """Write json.dumps(obj, indent=2, sort_keys=True, default=str) and a
    newline to every sink, byte for byte.  Containers of exact scalars are
    stdlib C encoder calls; only containers holding containers are walked
    here, and their items reach the sinks in batches of about _BATCH parts,
    each encoded once for all sinks."""
    parts, flat_encoders, key_heads = [], _FlatEncoders(), {}

    def flush():
        text = "".join(parts)
        parts.clear()
        for sink in sinks:
            sink.write(text)

    def walk(o, level):
        if not isinstance(o, (list, tuple, dict)):
            parts.append(canonical_json(o))  # json's rules, default=str too
            return
        is_dict = isinstance(o, dict)
        brackets = "{}" if is_dict else "[]"
        if not o:
            parts.append(brackets)
            return
        newline = "\n" + "  " * (level + 1)
        close = "\n" + "  " * level + brackets[1]
        types = set(map(type, o.values() if is_dict else o))
        if types <= _SCALAR_TEXT.keys():
            text = "".join(flat_encoders[level](o, 0))
            parts.extend((brackets[0] + newline, text[1:-1], close))
            return
        sep, comma = brackets[0] + newline, "," + newline
        if not is_dict and types == {dict} and all(o) and all(map(
                _SCALAR_TEXT.__contains__,
                map(type, chain.from_iterable(map(dict.values, o))))):
            # flat dicts, _BATCH // 4 (a walked one's parts) per encoder text:
            # it escapes every control character in a string, so a raw newline
            # ends a separator, and "},\n" + inner + "{" joins two items
            inner, step = newline + "  ", max(1, _BATCH // 4)
            for lo in range(0, len(o), step):
                text = "".join(flat_encoders[level + 1](o[lo:lo + step], 0))
                parts.append(sep + "{" + inner + text[2:-2].replace(
                    "}," + inner + "{", newline + "}" + comma + "{" + inner)
                    + newline + "}")
                sep = comma
                if lo + step < len(o):
                    flush()
            parts.append(close)
            return
        for item in sorted(o.items()) if is_dict else o:
            if is_dict:
                key, item = item
                head = key_heads.get(key)
                if head is None:
                    head = _key_text(key) + ": "
                    if type(key) is str:  # True == 1: cache str keys only
                        key_heads[key] = head
                sep += head
            text = _SCALAR_TEXT.get(type(item))
            if text is None:
                parts.append(sep)
                walk(item, level + 1)
            else:
                parts.append(sep + text(item))
            sep = comma
            if len(parts) >= _BATCH:
                flush()
        parts.append(close)

    walk(obj, 0)
    parts.append("\n")
    flush()


def _emit(payload, args):
    """Write the payload's JSON text to the open --out file and, under
    --json, to stdout.  Without either flag nothing is encoded."""
    sinks = [args.out] if args.out else []
    if args.json:
        sinks.append(sys.stdout)
    if sinks:
        write_json(payload, sinks)


def cmd_analyze(args):
    args.field = _pick(args.field, args.field_flag, "field spec")
    args.poly = _pick(args.poly, args.poly_flag, "polynomial")
    spec = parse_field(args.field)
    poly = Poly.from_string(spec, args.poly)
    domain = spec.exp[:spec.q - 1]  # F_q^* by dlog, after 0 unless --star
    images = eval_powers(spec, [poly.coeffs], 1)[0].tolist()
    if not args.star:
        domain, images = [0] + domain, [poly.eval_index(0)] + images
    mapping = IndexMapping(domain, images, spec.from_index)
    hist = fiber_histogram(mapping)
    admissible = sorted(admissible_m_set(mapping))
    ms = [args.m] if args.m is not None else admissible
    reports = [check_m_to_1(mapping, m) for m in ms]
    payload = {
        "field": args.field,
        "poly": args.poly,
        "domain": "F_q^*" if args.star else "F_q",
        "size": len(mapping),
        "histogram": list(hist),
        "admissible_m": admissible,
        "reports": [r.to_json() for r in reports],
    }
    _emit(payload, args)
    if not (args.json or args.out):
        dom = payload["domain"]
        print(f"f = {args.poly} on {dom} of GF({spec.q})")
        print(f"fiber histogram: {list(hist)}")
        print(f"admissible m: {admissible or 'none'}")
        for rep in reports:
            exc = [str(e) for e in rep.exceptional_set]
            print(f"m={rep.m}: verdict={rep.verdict} k={rep.k} r={rep.r} "
                  f"exceptional={exc}")
    return EXIT_OK


def _verify_options(args):
    """The job's grid options: a flag means what its --grid key means, and
    --all raises hcount and draws where the family declares them.
    build_instances refuses an undeclared key or a value below its floor."""
    table = FAMILIES[args.family].options
    opts = {}
    if args.q is not None:
        opts["qs"] = tuple(_parse_int_list(args.q, "--q"))
    if args.n is not None:
        opts["ns"] = tuple(_parse_int_list(args.n, "--n"))
    for key in ("hcount", "draws", "count"):
        if getattr(args, key) is not None:
            opts[key] = getattr(args, key)
    if args.grid:
        opts.update(_parse_grid(args.grid, table))
    if args.all:
        for key, value in (("hcount", 200), ("draws", 500)):
            if key in table:
                opts.setdefault(key, value)
    return opts


def _disagreement(rec):
    """One line per disagreeing record: its params, then a grid record's
    failed checks (its observed list) or a plain record's two verdicts."""
    detail = (rec["observed"] if rec["predicted"] == "all-agree"
              else {"predicted": rec["predicted"], "observed": rec["observed"]})
    return (f"DISAGREEMENT: {canonical_json(rec['params'])} "
            f"{canonical_json(detail)}")


def cmd_verify(args):
    args.family = _pick(args.family, args.family_flag, "family")
    job = VerifyJob(args.family, _verify_options(args), seed=args.seed,
                    jobs=args.jobs)
    report = run_job(job)
    if args.csv:
        _write_csv(report, args.csv)
    _emit(report, args)
    if not args.json:
        s = report["summary"]
        print(f"family={report['family']} total={s['total']} "
              f"agreements={s['agreements']} disagreements={s['disagreements']} "
              f"skipped={s['skipped']}")
        for rec in report["records"]:
            if rec["agree"] is False:
                print(_disagreement(rec))
    if report["summary"]["disagreements"]:
        return EXIT_DISAGREE
    if not _checks(report):
        print("error: the report stands for zero checks", file=sys.stderr)
        return EXIT_VACUOUS
    return EXIT_OK


def _checks(report):
    """Checks behind a report: a grid record counts its params.checked, any
    other record that is not skipped counts one."""
    return sum(rec["params"].get("checked", 1) for rec in report["records"]
               if not rec["skipped"])


def _write_csv(report, fh):
    writer = csv.writer(fh)
    writer.writerow(["evaluator", "params", "predicted", "observed", "agree",
                     "skipped"])
    for rec in report["records"]:
        writer.writerow([rec["evaluator"], canonical_json(rec["params"]),
                         canonical_json(rec["predicted"]),
                         canonical_json(rec["observed"]), rec["agree"],
                         rec["skipped"] or ""])


def cmd_search(args):
    spec = parse_field(args.field)
    r_values = None if args.r is None else _parse_int_list(args.r, "--r")
    if r_values == []:  # not "every r", and not a search of nothing
        raise ValueError(f"--r {args.r!r} names no r")
    hits = search_forms(spec, args.s, args.deg, args.m, r_values=r_values,
                        budget=args.budget)
    payload = {"field": args.field, "s": args.s, "deg": args.deg, "m": args.m,
               "hits": hits, "count": len(hits)}
    _emit(payload, args)
    if not (args.json or args.out):
        print(f"{len(hits)} hit(s) for m={args.m}, shape x^r h(x^{args.s}), "
              f"deg h <= {args.deg} over GF({spec.q})")
        for hit in hits:
            print(f"r={hit['r']} h={hit['h']} verified={hit['verified']}")
    if not all(hit["verified"] for hit in hits):
        return EXIT_DISAGREE
    return EXIT_OK


def cmd_count(args):
    qs = _parse_int_list(args.q, "--q")
    if not qs or min(qs) < 1:
        raise ValueError(f"--q takes a nonempty list of ints >= 1, "
                         f"got {args.q!r}")
    rows = []
    for q in qs:
        ms = [args.m] if args.m is not None else list(range(1, q + 1))
        census = None
        if args.check:
            if q > ENUMERATION_MAX_Q:
                raise ScaleError(f"enumerating {q}^{q} maps needs "
                                 f"q <= {ENUMERATION_MAX_Q}, got q = {q}")
            census = count_by_enumeration(q)
        for m in ms:
            row = {"q": q, "m": m, "count": count_formula(q, m)}
            if census is not None:
                row["enumerated"] = census[m]
                row["agree"] = row["count"] == census[m]
            rows.append(row)
    payload = {"rows": rows}
    _emit(payload, args)
    if not (args.json or args.out):
        for row in rows:
            extra = ""
            if "enumerated" in row:
                extra = f" enumerated={row['enumerated']} agree={row['agree']}"
            print(f"q={row['q']} m={row['m']} count={row['count']}{extra}")
    if any(not row.get("agree", True) for row in rows):
        return EXIT_DISAGREE
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mto1",
        description="m-to-1 mappings over finite fields: analysis, theorem "
                    "verification, and search")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="fiber analysis of one polynomial")
    pa.add_argument("field", nargs="?", default=None,
                    help="field spec, e.g. 5^1 or 2^6/1,1,0,1,1,0,1")
    pa.add_argument("poly", nargs="?", default=None,
                    help="coefficients low-to-high, e.g. 0,1,0,1")
    pa.add_argument("--field", dest="field_flag", default=None)
    pa.add_argument("--poly", dest="poly_flag", default=None)
    pa.add_argument("--m", type=int, default=None)
    pa.add_argument("--star", action="store_true",
                    help="restrict the domain to F_q^*")
    pa.add_argument("--json", action="store_true")
    pa.add_argument("--out", default=None)
    pa.set_defaults(fn=cmd_analyze)

    families = tuple(FAMILIES)
    pv = sub.add_parser("verify", help="run a theorem family against oracles")
    pv.add_argument("family", nargs="?", choices=families, default=None)
    pv.add_argument("--family", dest="family_flag", choices=families,
                    default=None)
    pv.add_argument("--q", default=None, help="e.g. 29 or 2..5 or 4,8")
    pv.add_argument("--n", default=None, help="e.g. 2..8")
    pv.add_argument("--grid", default=None,
                    help="extra grid options, e.g. 'degmax=4;qs=5,7'")
    pv.add_argument("--hcount", type=int, default=None)
    pv.add_argument("--draws", type=int, default=None)
    pv.add_argument("--count", type=int, default=None)
    pv.add_argument("--all", action="store_true",
                    help="acceptance-scale grid sizes")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--jobs", type=int, default=0,
                    help="worker processes (default: all cores)")
    pv.add_argument("--json", action="store_true")
    pv.add_argument("--out", default=None)
    pv.add_argument("--csv", default=None)
    pv.set_defaults(fn=cmd_verify)

    ps = sub.add_parser("search", help="search x^r h(x^s) forms for target m")
    ps.add_argument("field")
    ps.add_argument("--s", type=int, required=True)
    ps.add_argument("--deg", type=int, required=True)
    ps.add_argument("--m", type=int, required=True)
    ps.add_argument("--r", default=None,
                    help="restrict r (default: all of 1..q-1)")
    ps.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    ps.add_argument("--json", action="store_true")
    ps.add_argument("--out", default=None)
    ps.set_defaults(fn=cmd_search)

    pc = sub.add_parser("count", help="m-to-1 self-map counts")
    pc.add_argument("--q", required=True, help="e.g. 5 or 2..5")
    pc.add_argument("--m", type=int, default=None)
    pc.add_argument("--check", action="store_true",
                    help="cross-check against exhaustive enumeration")
    pc.add_argument("--json", action="store_true")
    pc.add_argument("--out", default=None)
    pc.set_defaults(fn=cmd_count)
    return parser


def _open_outputs(args, stack):
    """Replace each --out and --csv path with its file, opened for writing,
    so that an unwritable path fails before any work runs."""
    for flag in ("out", "csv"):
        path = getattr(args, flag, None)
        if not path:
            continue
        try:
            fh = open(path, "w", newline="" if flag == "csv" else None)
        except OSError as err:
            raise ValueError(f"cannot write --{flag} {path!r}: "
                             f"{err.strerror or err}") from None
        setattr(args, flag, stack.enter_context(fh))


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with contextlib.ExitStack() as stack:
            _open_outputs(args, stack)
            return args.fn(args)
    except EvaluatorError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CRASH
    except (BudgetError, FieldError, HypothesisError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        if isinstance(err, ScaleError):
            return EXIT_SCALE
        return EXIT_BUDGET if isinstance(err, BudgetError) else EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
