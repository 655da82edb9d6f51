"""The benchmark's workloads: which CLI queries each one runs, and why.

Every workload is closed-loop: one benchmark process issues one query at a time
and waits for it to finish.  Queries are `mto1` command lines without the
`--jobs` and `--json` flags, which the runner adds.  Only `verify` queries
depend on the workload seed (passed through as `verify --seed`); `search` and
`analyze` take fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

FAMILIES = ("small", "ell", "monomial", "hd", "lift", "g3", "g5", "split",
            "lemmas", "transfer", "towers", "criteria", "count")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    full: tuple    # query argv tuples at benchmark scale
    quick: tuple   # the same kinds of query at a tiny size, for the tests
    fields: tuple  # field specs the full queries build; set-up builds them

    def queries(self, seed, quick=False):
        """The query argv lists of one pass; verify queries get the seed."""
        out = []
        for argv in (self.quick if quick else self.full):
            argv = list(argv)
            if argv[0] == "verify":
                argv += ["--seed", str(seed)]
            out.append(argv)
        return out


def _verify(*args):
    return ("verify",) + args


WORKLOADS = {w.name: w for w in (
    Workload(
        name="verify-main",
        why=("main theorem grid at acceptance scale: cyclotomic reduction, "
             "small-histogram verdicts and per-item pool overhead over 12,202 "
             "items"),
        full=(_verify("main", "--hcount", "200"),),
        quick=(_verify("main", "--q", "5,7", "--hcount", "3"),),
        fields=("5^1", "7^1", "2^3", "3^2", "11^1", "13^1", "2^4", "5^2",
                "3^3", "29^1", "7^2", "2^6", "2^6/1,1,0,1,1,0,1"),
    ),
    Workload(
        name="verify-families",
        why=("the other 13 families at default grids: criteria, unitline and "
             "FieldElement arithmetic, with a few coarse straggler items in "
             "the pool"),
        full=tuple(_verify(f) for f in FAMILIES),
        quick=(_verify("small", "--q", "7", "--hcount", "2"),
               _verify("monomial", "--q", "3", "--grid", "kmax=1;rmax=4"),
               _verify("g3", "--n", "1..2"),
               _verify("towers", "--q", "3", "--draws", "10"),
               _verify("criteria", "--count", "20"),
               _verify("count", "--q", "2..3")),
        fields=("2^2", "5^1", "7^1", "2^3", "3^2", "11^1", "13^1", "2^4",
                "17^1", "19^1", "5^2", "3^3", "29^1", "31^1", "2^5", "7^2",
                "2^6", "3^4", "2^8", "2^10", "2^12", "2^14", "2^16"),
    ),
    Workload(
        name="search",
        why=("the numpy prime-field kernel, the generic extension-field path, "
             "and an F_64 query bound by re-verifying 64,092 hits"),
        full=(("search", "29^1", "--s", "4", "--deg", "4", "--m", "12"),
              ("search", "5^2", "--s", "4", "--deg", "3", "--m", "6"),
              ("search", "3^3", "--s", "2", "--deg", "3", "--m", "2"),
              ("search", "2^6", "--s", "21", "--deg", "2", "--m", "3")),
        quick=(("search", "13^1", "--s", "4", "--deg", "2", "--m", "3"),
               ("search", "2^4", "--s", "5", "--deg", "1", "--m", "3")),
        fields=("29^1", "5^2", "3^3", "2^6"),
    ),
    Workload(
        name="analyze",
        why=("one large mapping per query: a FieldElement per point, "
             "FiniteMapping and the admissible-m scan over one big histogram"),
        full=(("analyze", "2^14", "0,1"),
              ("analyze", "8191^1", "0,0,1,0,1", "--star"),
              ("analyze", "3^8", "0,1,0,1")),
        quick=(("analyze", "2^6", "0,1"),
               ("analyze", "31^1", "0,0,1,0,1", "--star")),
        fields=("2^14", "8191^1", "3^8"),
    ),
)}


def candidates(argv):
    """Size of a search query's candidate space, q^deg."""
    p, n = argv[1].split("/")[0].split("^")
    deg = int(argv[argv.index("--deg") + 1])
    return (int(p) ** int(n)) ** deg
