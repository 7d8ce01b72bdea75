"""The three workloads: inputs made from the seed, one operation per input,
and the check of its answer.

The seed is the only source of variation.  It fixes the member order, the
gin trial seed of sweep-r3 and the lc-ladder sample; the library receives
only the generated ideals.  Operations call through module attributes
(``lexlab.reports.verify_main``) so that the tracer's replacements apply.
"""

from __future__ import annotations

import random

from checks import check_exchange, check_report, grothendieck_serre

# lc-ladder rungs: generator count mu -> members drawn by the seed, None for
# the whole rung.  op_p50_ms and op_tail_ms fall in the mu = 8 and 9 rungs,
# which are taken whole so that these two metrics do not depend on the seed;
# only the costly mu = 10 rung is sampled.
LADDER = {8: None, 9: None, 10: 6}


def _family(lexlab, n: int) -> list:
    ring = lexlab.RingSpec(n)
    members = lexlab.families.all_strongly_stable(ring, 3)
    return [ideal for ideal in members if not ideal.is_zero]


def _shuffled(members: list, seed: int) -> list:
    members = list(members)
    random.Random(seed).shuffle(members)
    return members


def build_sweep_r3(lexlab, seed: int) -> list:
    return _shuffled(_family(lexlab, 3), seed)


def build_exchange_r4(lexlab, seed: int) -> list:
    return _shuffled(_family(lexlab, 4), seed)


def build_lc_ladder_r4(lexlab, seed: int) -> list:
    rng = random.Random(seed)
    family = _family(lexlab, 4)
    sample = []
    for mu, k in LADDER.items():
        rung = [ideal for ideal in family if len(ideal.gens) == mu]
        sample += rung if k is None else rng.sample(rung, k)
    rng.shuffle(sample)
    return sample


def op_sweep_r3(lexlab, ideal, seed: int):
    return lexlab.reports.verify_main(ideal, include_gin=True, seed=seed)


def op_exchange_r4(lexlab, ideal, seed: int):
    return lexlab.gotzmann.lex_ideal(ideal), lexlab.gotzmann.exchange_property(ideal)


def op_lc_ladder_r4(lexlab, ideal, seed: int):
    return lexlab.cohomology.local_cohomology_table(ideal)


WORKLOADS = {
    "sweep-r3": (build_sweep_r3, op_sweep_r3, check_report),
    "exchange-r4": (build_exchange_r4, op_exchange_r4, check_exchange),
    "lc-ladder-r4": (build_lc_ladder_r4, op_lc_ladder_r4, grothendieck_serre),
}
