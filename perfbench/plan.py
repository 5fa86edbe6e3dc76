"""Workloads: the seeded op plans of the dispgeo benchmark.

An op is one CLI subcommand (``dispgeo.cli.main(argv)``) or one public
library call.  A workload is a cycle of ops; a run repeats the cycle.
Inputs of cycle ``c`` depend only on the workload seed and ``c``, so a
longer run extends a shorter one and the digest table recorded at the
default seed covers every run length up to ``MAX_SECONDS``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("f2-scan", "sl3-lattice", "proximal-gap")
DEFAULT_SEED = 42
MAX_SECONDS = 60

# Seconds per cycle, set-up included (2-core Intel Xeon, Python 3.11.7).
# A run of --seconds S makes round(S / cycle) cycles: the op count is
# fixed by S, not by how fast the code is, so a run at the parent commit
# and a run at a change measure the same op mix and take their
# percentiles at the same rank.  The values are wall times on a host
# running at about 0.6 of its uncontended speed (see hostspeed), so that
# contended runs still finish every cycle before run.OVERRUN stops them.
# sl3-lattice gives 6 cycles at S = 35, so the ten ops beyond the tail
# are the 6 failing default negative controls and 4 of the 6 BFS-heavy
# ops, and the tail is the second-fastest BFS op.  proximal-gap gives 20
# cycles at S = 35, f2-scan 5.
CYCLE_SECONDS = {"f2-scan": 6.5, "sl3-lattice": 5.8, "proximal-gap": 1.75}

README_PAIR = ("aab", "bba")
SHEAR_3 = ((1, 0, 1), (0, 1, 0), (0, 0, 1))


@dataclass(frozen=True)
class Op:
    """One op.  ``key`` names the op and all of its inputs; it indexes
    the digest table.  ``argv`` may hold ``{file}``, replaced by the path
    of a file holding ``file_text``."""

    key: str
    check: str
    argv: tuple[str, ...] = ()
    call: str = ""
    matrix: tuple = ()
    file_text: str = ""
    params: dict = field(default_factory=dict)


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_SECONDS[workload]))


def signed_permutations() -> list[dict[str, str]]:
    """The 8 signed permutations of {a, b} as letter maps."""
    maps = []
    for img_a in "aAbB":
        for img_b in ("bB" if img_a in "aA" else "aA"):
            maps.append({"a": img_a, "A": img_a.swapcase(),
                         "b": img_b, "B": img_b.swapcase()})
    return maps


def permute(word: str, letter_map: dict[str, str]) -> str:
    return "".join(letter_map[x] for x in word)


def _elementary(n: int, i: int, j: int, t: int):
    return tuple(tuple(t if (r, c) == (i, j) else int(r == c)
                       for c in range(n)) for r in range(n))


def _mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col))
                       for col in zip(*b)) for row in a)


def elementary_product(rng: random.Random, n: int, count: int):
    """Product of ``count`` seeded elementary generators E_ij(+-1) of
    SL(n, Z)."""
    m = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
    for _ in range(count):
        i, j = rng.sample(range(n), 2)
        m = _mul(m, _elementary(n, i, j, rng.choice((1, -1))))
    return m


def _f2_cycle(seed: int, c: int) -> list[Op]:
    rng = random.Random(f"f2-scan:{seed}:{c}")
    letter_map = rng.choice(signed_permutations())
    u, v = (permute(w, letter_map) for w in README_PAIR)
    argv = ("prop422", "--radius", "10", "--delta", "0", "--u", u, "--v", v)
    return [Op(key=" ".join(argv), check="prop422", argv=argv,
               params={"u": u, "v": v})]


SL3_FIXED = (
    ("prop507", "--power-max", "1048576"),
    ("prop507", "--n", "3", "--word-radius", "5"),
    ("prop507", "--n", "4", "--word-radius", "3"),
    ("prop507", "--negative-control", "--n", "2"),
    # the default n = 3; fails with SingularInput at the seed commit
    ("prop507", "--negative-control"),
)


def _sl3_cycle(seed: int, c: int) -> list[Op]:
    rng = random.Random(f"sl3-lattice:{seed}:{c}")
    ops = [Op(key=" ".join(argv), check="prop507", argv=argv,
              params={"negative_control": "--negative-control" in argv})
           for argv in SL3_FIXED]
    matrices = [elementary_product(rng, n, rng.randint(1, 3))
                for n in (2, 2, 3, 3)] + [SHEAR_3]
    text = json.dumps([[list(row) for row in m] for m in matrices])
    argv = ("depth-roots", "--file", "{file}")
    ops.append(Op(key=f"depth-roots --file {text}", check="depth-roots",
                  argv=argv, file_text=text,
                  params={"matrices": len(matrices)}))
    count = rng.randint(2, 4)
    m = elementary_product(rng, 3, count)
    ops.append(Op(key=f"translation_length_upper {json.dumps(m)} 3 4",
                  check="translation_length_upper",
                  call="translation_length_upper", matrix=m,
                  params={"generators": count}))
    return ops


def _proximal_inputs(seed: int, cycles: int) -> list:
    """Seeded det-1 3x3 matrices with eigenbasis condition <= 2.7, drawn
    with the package's own sampler (one PCG64 stream per seed)."""
    import numpy as np
    from dispgeo.matgeo import random_special_linear

    rng = np.random.default_rng(seed)
    return [tuple(tuple(float(x) for x in row) for row in
                  random_special_linear(3, rng, max_eigenbasis_condition=2.7))
            for _ in range(cycles)]


def gap_seed(seed: int, c: int) -> int:
    """ams-gap seed of cycle c; cycle 0 at the default seed is the
    README config (seed 42)."""
    return (seed + 1_000_003 * c) % 2 ** 32


def _proximal_cycle(seed: int, c: int, g) -> list[Op]:
    s = str(gap_seed(seed, c))
    ops = []
    for dim in ("2", "3"):
        argv = ("ams-gap", "--dim", dim, "--samples", "1000", "--seed", s)
        ops.append(Op(key=" ".join(argv), check="ams-gap", argv=argv,
                      params={"samples": 1000}))
    ops.append(Op(key=f"renormalized_cartan_average {json.dumps(g)} 12",
                  check="renormalized_cartan_average",
                  call="renormalized_cartan_average", matrix=g))
    return ops


def build(workload: str, seed: int, cycles: int) -> list[list[Op]]:
    """The op cycles of one run."""
    if workload == "f2-scan":
        return [_f2_cycle(seed, c) for c in range(cycles)]
    if workload == "sl3-lattice":
        return [_sl3_cycle(seed, c) for c in range(cycles)]
    if workload == "proximal-gap":
        mats = _proximal_inputs(seed, cycles)
        return [_proximal_cycle(seed, c, mats[c]) for c in range(cycles)]
    raise ValueError(f"unknown workload {workload!r}")
