"""The block-drawn uop stream against the per-uop generator it replaced.

:func:`reference_uop_stream` keeps the original generator, one resume and
one ``_dep_offset``/``expovariate`` call per uop, as the reference. The
block generator must yield the identical stream for every thread profile.
"""

import itertools
import random

import pytest

from repro.smt.uop import (
    KIND_ALU,
    KIND_BRANCH,
    KIND_LOAD,
    KIND_LONG,
    KIND_STORE,
    UOP_BLOCK,
    uop_stream,
)
from repro.util.rng import make_rng
from repro.workloads.smt import EVAL_APP_NAMES, TUNE_APP_NAMES, thread_profile


def reference_uop_stream(profile, seed=0):
    """The per-uop generator, as it was before block drawing."""
    rng = make_rng(seed, "uops", profile.name)
    load_cut = profile.load_fraction
    store_cut = load_cut + profile.store_fraction
    branch_cut = store_cut + profile.branch_fraction
    long_cut = branch_cut + profile.long_op_fraction * (1.0 - branch_cut)
    mean_dep = max(profile.mean_dep_distance, 1.0)
    mispredict_rate = profile.branch_mispredict_rate
    while True:
        draw = rng.random()
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
        dep1 = _dep_offset(rng, mean_dep)
        dep2 = _dep_offset(rng, mean_dep) if rng.random() < 0.4 else 0
        mispredict = kind == KIND_BRANCH and rng.random() < mispredict_rate
        yield (kind, dep1, dep2, mispredict)


def _dep_offset(rng: random.Random, mean: float) -> int:
    """Geometric-ish producer distance; 0 = independent (~20% of operands)."""
    if rng.random() < 0.2:
        return 0
    return 1 + min(int(rng.expovariate(1.0 / mean)), 255)


#: Past three block boundaries.
LENGTH = 3 * UOP_BLOCK + 97

PROFILE_NAMES = sorted(set(EVAL_APP_NAMES) | set(TUNE_APP_NAMES))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", PROFILE_NAMES)
def test_block_stream_matches_the_per_uop_generator(name, seed):
    profile = thread_profile(name)
    blocks = list(itertools.islice(uop_stream(profile, seed), LENGTH))
    reference = list(
        itertools.islice(reference_uop_stream(profile, seed), LENGTH)
    )
    # Element-wise with types: mispredict stays a bool.
    assert [tuple(map(type, uop)) for uop in blocks] == [
        tuple(map(type, uop)) for uop in reference
    ]
    assert blocks == reference


def test_streams_exercise_every_field():
    # The comparison above is only as strong as the draws it covers.
    uops = []
    for name in PROFILE_NAMES:
        uops += itertools.islice(uop_stream(thread_profile(name), 0), LENGTH)
    assert {uop[0] for uop in uops} == {
        KIND_ALU, KIND_LOAD, KIND_STORE, KIND_BRANCH, KIND_LONG
    }
    assert any(uop[3] for uop in uops)
    assert any(uop[1] == 0 for uop in uops)
    assert any(uop[2] == 0 for uop in uops) and any(uop[2] for uop in uops)
    assert max(max(uop[1], uop[2]) for uop in uops) > 20
