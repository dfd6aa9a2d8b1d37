"""The four workloads: fixed lists of `isocycles` operations.

A workload's inputs are fixed, so every round of a run does the same work;
the seed only fixes the order in which the operations of a round run.
README.md says why each input was chosen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# One prime from each residue class mod 12 for each ell, from about 10^3
# up to 2*10^4 for ell = 2; (1009, 2) and (20029, 2) are both 1 mod 12.
GRAPH_SWEEP = [
    (1009, 2), (1013, 2), (1039, 2), (1031, 2), (20029, 2),
    (1033, 3), (1049, 3), (1063, 3), (2003, 3),
]

# (p, ell, r_max) with p = 1 mod 12.  (613, 2) has a half-loop.
CYCLES_BOTH = [(613, 2, 10), (3361, 2, 14), (3229, 3, 9), (4993, 2, 13), (7213, 2, 10)]

# (p, ell, r_max of `count`, levels of `orders`); 1019 = 11 mod 12 has no
# graph-side count.
ORDERS_DEEP = [(3361, 2, 16, (14, 15, 16)), (1019, 3, 10, (9, 10))]

# (p, ell, levels): `orders` at each level, then `locate` for each order.
RIMS_LOCATE = [(179, 2, range(3, 10)), (1009, 3, range(3, 4))]

# The one operation expected to fail, and why.
KNOWN_FAULTS = {
    ("count", 613, 2): "build_nb_operator expands a half-loop into two mutually "
                       "dual directed edges instead of one self-dual edge",
}

WORKLOADS = ["graph-sweep", "cycles-both", "orders-deep", "rims-locate"]


@dataclass(frozen=True)
class Op:
    command: str
    p: int
    ell: int
    arg: int = 0      # r_max of count, r of orders, disc of locate
    method: str = ""  # method of count

    def argv(self, out: str) -> list[str]:
        argv = [self.command, "--p", str(self.p), "--ell", str(self.ell), "--out", out]
        if self.command == "graph":
            argv += ["--format", "json"]
        elif self.command == "count":
            argv += ["--r-max", str(self.arg), "--method", self.method]
        elif self.command == "orders":
            argv += ["--r", str(self.arg), "--format", "json"]
        elif self.command == "locate":
            argv += ["--disc", str(self.arg)]
        return argv

    @property
    def known_fault(self) -> str | None:
        return KNOWN_FAULTS.get((self.command, self.p, self.ell))


def ops(workload: str, seed: int) -> list[Op]:
    """The operations of one round, in the order the seed fixes.

    For rims-locate these are the `orders` operations only; the `locate`
    operations follow from their output, see `locate_ops`.
    """
    if workload == "graph-sweep":
        out = [Op("graph", p, ell) for p, ell in GRAPH_SWEEP]
    elif workload == "cycles-both":
        out = [Op("count", p, ell, r, "both") for p, ell, r in CYCLES_BOTH]
    elif workload == "orders-deep":
        out = []
        for p, ell, r_max, levels in ORDERS_DEEP:
            out.append(Op("count", p, ell, r_max, "orders"))
            out += [Op("orders", p, ell, n) for n in levels]
    elif workload == "rims-locate":
        out = [Op("orders", p, ell, r) for p, ell, levels in RIMS_LOCATE for r in levels]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    random.Random(seed).shuffle(out)
    return out


def locate_ops(orders_payloads: list[dict], seed: int) -> list[Op]:
    """`locate` for every order listed at its own level, in seeded order.

    An order is listed at level r when the class above ell has order r.
    """
    out = {}
    for payload in orders_payloads:
        for rec in payload["records"]:
            if rec["l_order"] == payload["N"]:
                key = (payload["p"], payload["ell"], rec["discriminant"])
                out[key] = Op("locate", *key)
    ordered = [out[k] for k in sorted(out)]
    random.Random(seed).shuffle(ordered)
    return ordered
