"""The benchmark's workloads: real CLI jobs with their pinned answers.

Each answer pins the exit code and the verdict fields of the JSON report.
Negatives also pin ``products_tried`` (which must equal n_hg * n_gh, the
two basis sizes, for a complete search) and ``rank_reached``.  Neither
``via`` nor certificate terms are pinned: a change of elimination engine
may legitimately change both.  Certificates are checked instead by
``dburnside verify``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Job:
    argv: Tuple[str, ...]
    code: int
    answer: Dict
    n_products: Optional[Tuple[int, int]] = None   # (n_hg, n_gh) of a negative

    @property
    def name(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: List[Job]
    # "none": no cache dir; "fresh": an empty dir per job and round;
    # "filled": one dir per round, filled by the set-up commands below
    cache: str = "none"
    fill: List[Tuple[str, ...]] = field(default_factory=list)


def _gen(h, g, char, code, answer, n_products=None):
    return Job(("generates", h, g, "--char", str(char)), code, answer,
               n_products)


def _neg(h, g, char, tried, rank, n_hg, n_gh):
    return _gen(h, g, char, 1, {"result": False, "status": "not-generated",
                                "products_tried": tried,
                                "rank_reached": rank}, (n_hg, n_gh))


def _pos(h, g, char):
    return _gen(h, g, char, 0, {"result": True, "status": "generated"})


# Each round of a workload takes about ten seconds on a 2-vCPU x86-64 VM,
# so that three or four rounds fit a 40-second run.  Why each workload exists is in
# BENCHMARK.json; the comments give the role of its jobs.
WORKLOADS = {w.name: w for w in [
    Workload("sweep", [
        # negatives: the whole product stream, mostly duplicates
        # (181,476 products, 332 distinct), so Mackey products dominate
        _neg("C4", "D8xC6", 3, 181476, 14, 426, 426),
        # negative over Q with real elimination work (rank 211)
        _neg("C3^2", "C3xS3", 0, 36100, 211, 190, 190),
        _neg("C4", "D8xC2", 0, 45369, 14, 213, 213),
        # positives: span certificates over F_3 and Q, then recomposition
        _pos("C2^2", "A4xC2", 3),
        _pos("C2^2", "S4", 0),
    ]),
    Workload("structure", [
        # lattice enumeration and conjugacy dominate; the two nv negatives
        # make about 860 small span insertions
        Job(("nv", "S4", "--char", "0"), 1, {"overall": False}),
        Job(("essential-out", "C4^2"), 0,
            {"essential_dim": 96, "out_order": 96}),
        Job(("nv", "D16", "--char", "0"), 1, {"overall": False}),
        Job(("nv", "X(27)", "--char", "3"), 0, {"overall": True}),
        Job(("ssd", "S4"), 1, {"s_self_dual": False, "agree": True}),
        Job(("sections", "A4xC2", "--quotient", "C2"), 0, {"count": 15}),
    ], cache="fresh"),
    Workload("algebra", [
        # (G,G) composition tables, then a dense rank mod p or over Q
        Job(("trace-gram", "C2xC6", "--char", "3"), 0,
            {"rank": 80, "dim": 402}),
        Job(("trace-gram", "D12"), 0, {"rank": 36, "dim": 284}),
        Job(("trace-gram", "C3^2"), 0, {"rank": 41, "dim": 212}),
        Job(("trace-gram", "A4"), 0, {"rank": 10, "dim": 41}),
    ], cache="filled",
        # each computes and stores the lattice of G x G that trace-gram reads
        fill=[("essential-out", g) for g in ("C2xC6", "D12", "C3^2", "A4")]),
]}


# the pinned fields of each command's JSON ``result``
PINNED = {
    "generates": ["result", "status"],
    "nv": ["overall"],
    "essential-out": ["essential_dim", "out_order"],
    "ssd": ["s_self_dual", "agree"],
    "sections": ["count"],
    "trace-gram": ["rank", "dim"],
}


def summary(command: str, result: Dict) -> Dict:
    """The pinned fields of one JSON report's ``result``."""
    keys = list(PINNED[command])
    if command == "generates" and result.get("result") is False:
        keys += ["products_tried", "rank_reached"]
    return {k: result.get(k) for k in keys}


def check_answer(job: Job, code: int, report: Optional[Dict]) -> Optional[str]:
    """None when the job answered as pinned, else what was wrong."""
    if code != job.code:
        return f"exit code {code}, expected {job.code}"
    if report is None:
        return "no JSON report on stdout"
    got = summary(job.argv[0], report.get("result", {}))
    if got != job.answer:
        return f"answer {got}, expected {job.answer}"
    if job.n_products is not None:
        n_hg, n_gh = job.n_products
        if got["products_tried"] != n_hg * n_gh:
            return f"products_tried {got['products_tried']} != {n_hg} * {n_gh}"
    if job.argv[0] == "essential-out" and got["essential_dim"] != got["out_order"]:
        return "essential_dim differs from |Out|"
    return None


def certificates(report: Dict) -> List[Dict]:
    """Every certificate a report carries (generates and nv reports)."""
    result = report.get("result", {})
    found = [result["certificate"]] if "certificate" in result else []
    found += [v["certificate"] for v in result.get("subquotients", [])
              if "certificate" in v]
    return found
