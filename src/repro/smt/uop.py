"""Micro-op stream generation from :class:`ThreadProfile` statistics.

Each thread is an endless, seeded stream of micro-ops. A micro-op is a plain
tuple (kept flat for simulation speed)::

    (kind, dep1_offset, dep2_offset, mispredict)

- ``kind`` — one of the ``KIND_*`` constants below.
- ``dep*_offset`` — distance (in uops, same thread) back to each producer;
  0 means no dependence. Drawn geometrically around the profile's
  ``mean_dep_distance``, which is what sets the thread's ILP.
- ``mispredict`` — for branches, whether this one will redirect the
  front end when it resolves.

Load/store service levels (L1/L2/DRAM) are drawn at issue time by the
pipeline using the same profile, so the uop tuple stays small.

The stream is drawn in blocks of :data:`UOP_BLOCK` uops: a generator resume
per block instead of per uop, chained into one flat iterator, so a
consumer's ``next(stream)`` is a C-level call. Each thread's RNG is private
to its stream and the draws within a block come in exactly the per-uop
order (``expovariate`` inlined as ``-log(1 - random()) / lambd``, its
definition), so drawing ahead changes nothing: the stream is the same uop
for uop.
"""

from __future__ import annotations

from itertools import chain
from math import log
from typing import Iterator, List, Tuple

from repro.util.rng import make_rng
from repro.workloads.smt import ThreadProfile

KIND_ALU = 0
KIND_LOAD = 1
KIND_STORE = 2
KIND_BRANCH = 3
KIND_LONG = 4

KIND_NAMES = ("alu", "load", "store", "branch", "long")

#: Kinds that allocate a physical register at rename (freed at commit).
REG_WRITING_KINDS = frozenset({KIND_ALU, KIND_LOAD, KIND_LONG})

Uop = Tuple[int, int, int, bool]


#: Uops drawn per generator resume.
UOP_BLOCK = 512


def uop_stream(profile: ThreadProfile, seed: int = 0) -> Iterator[Uop]:
    """Endless seeded stream of micro-ops matching ``profile``'s statistics."""
    return chain.from_iterable(_uop_blocks(profile, seed))


def _uop_blocks(profile: ThreadProfile, seed: int) -> Iterator[List[Uop]]:
    """The stream as consecutive lists of :data:`UOP_BLOCK` uops.

    A producer distance is geometric-ish: 0 (independent) for ~20% of
    operands, else ``1 + min(int(expovariate(1 / mean)), 255)``.
    """
    random = make_rng(seed, "uops", profile.name).random
    load_cut = profile.load_fraction
    store_cut = load_cut + profile.store_fraction
    branch_cut = store_cut + profile.branch_fraction
    long_cut = branch_cut + profile.long_op_fraction * (1.0 - branch_cut)
    lambd = 1.0 / max(profile.mean_dep_distance, 1.0)
    mispredict_rate = profile.branch_mispredict_rate
    while True:
        block: List[Uop] = []
        append = block.append
        for _ in range(UOP_BLOCK):
            draw = random()
            if draw < load_cut:
                kind = KIND_LOAD
            elif draw < store_cut:
                kind = KIND_STORE
            elif draw < branch_cut:
                kind = KIND_BRANCH
            elif draw < long_cut:
                kind = KIND_LONG
            else:
                kind = KIND_ALU
            if random() < 0.2:
                dep1 = 0
            else:
                dep1 = int(-log(1.0 - random()) / lambd)
                dep1 = 256 if dep1 > 255 else dep1 + 1
            # A second source for 40% of uops, itself independent 20% of
            # the time.
            dep2 = 0
            if random() < 0.4 and random() >= 0.2:
                dep2 = int(-log(1.0 - random()) / lambd)
                dep2 = 256 if dep2 > 255 else dep2 + 1
            append((
                kind, dep1, dep2,
                kind == KIND_BRANCH and random() < mispredict_rate,
            ))
        yield block
