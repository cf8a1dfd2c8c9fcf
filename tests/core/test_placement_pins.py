"""Pinned placements of every deterministic policy and partition.

The heuristic policies share their frequency deal, their room check and
their intra-DBC pass; a refactor of any of them must leave every
placement bit-identical, or the Fig. 3/4 comparisons and the stored
cells they feed silently change. This file pins literal SHA-256 digests
of the placements each subject returns over the smoke benchmarks at the
four iso-capacity geometries, plus the tight capacities ``ceil(V/q)`` at
q = 2, 4, 8, where the deal runs out of room and spills. Those DBCs hold
at most a few dozen variables; the large-DBC pins below place a
512-variable zipf trace into DBCs of 64 to 256 variables, the size the
address-trace workloads reach.
"""

import hashlib
import math

import pytest

from repro.core.ga import GeneticPlacer
from repro.core.inter.afd import afd_partition
from repro.core.inter.dma import dma_partition
from repro.core.inter.multiset import multiset_dma_partition
from repro.core.policies import available_policies, get_policy
from repro.eval.profiles import SMOKE_PROFILE
from repro.rtm.geometry import iso_capacity_sweep
from repro.trace.generators.offsetstone import offsetstone_suite
from repro.trace.generators.synthetic import sliding_window_sequence, zipf_sequence


def _ga_seeds(seq, q, cap):
    dbc_of, pos_of = GeneticPlacer(seq, q, cap).seed_individuals()
    return dbc_of.tolist(), pos_of.tolist()


def _policy(name):
    policy = get_policy(name)
    return lambda seq, q, cap: policy.place(seq, q, cap).dbc_lists()


SUBJECTS = {
    "afd_partition": afd_partition,
    "dma_partition": dma_partition,
    "dma_partition/pseudocode": (
        lambda seq, q, cap: dma_partition(seq, q, cap, fairness_guard=False)
    ),
    "multiset_dma_partition": multiset_dma_partition,
    "seed_individuals": _ga_seeds,
}

#: Subject -> SHA-256 of ``repr`` of its results over every case, in
#: case order. Recorded at release 1.16.0.
PINNED = {
    "AFD-OFU": "3e615e11806252a000f3d4603686d5940f32bb6c2e29e92801d05d0749974a0a",
    "DMA-OFU": "602542af83c3f87a497cbd945196777cb2896ed972778e3a1604ff10919a15a2",
    "DMA-Chen": "c17bf9c0485919d7ab93d3a3f40db15680a808555d4ba5c11ad47499f8345af8",
    "DMA-SR": "b1f027ab3a2d4560db22488d62cf948cf5410acd4201e56ff3051d5c1e03d88b",
    "AFD": "b1ba8c01dc1be5b760d78c6796c14c912df8571214ced35da87add67105d5acb",
    "DMA": "d22d285db2fd39c7c5df9b3744fce98d7bb8f97d5f93e41ba637bab608ff212e",
    "AFD-Chen": "2578425f64fd55eec57ec37010cb047270a44a1cb12dfaaab3de602735f48ed5",
    "AFD-SR": "8fb5bd518ed333af9cc6aec6165beccf474401876b88cd041f88d0f472ea4097",
    "DMA-TSP": "bfe64410d67b91dec9ec7900c99f0bbf1201352ba2f4a0e10316b2c495c60bf8",
    "DMA-SA": "2a4eb17e8ab2b96e2f0e7b65b54d7038275aa9ff2886e17b561235f52e4d1252",
    "MDMA-OFU": "3fbce4659e23a588fb310584a46202e0618b575a611c16372e893c6fc9812885",
    "MDMA-SR": "26dff4f699ea64ab5f4fd7a855249ae754a41bed400dd044c3e071224dd55ffd",
    "afd_partition": "47d1aeb788e09bde742acf7f0b4672c1b1edb0615f8ecd7e83d148d141070ed3",
    "dma_partition": "d4535a2d2797c2934a981aeeb7d1f0602828ad26184539a92128e81cd9b7ab99",
    "dma_partition/pseudocode":
        "8da2b2ed78da814922d42691eeed5d2b6f5703f9655308d5feb4db38e2389b63",
    "multiset_dma_partition":
        "89322f43b10817f0fc9390782e40fff35607047748a1cc6165712741c360ff94",
    "seed_individuals": "671cd70b28614529e354eddb073deb7b43a05bb08aef2077e5d71e4ab0beb904",
}


@pytest.fixture(scope="module")
def cases():
    """``(sequence, q, capacity)``: every smoke sequence at the iso-capacity
    geometries, then at capacity ``ceil(V/q)`` for q = 2, 4, 8."""
    p = SMOKE_PROFILE
    out = []
    for bench in offsetstone_suite(p.suite_scale, p.seed, p.benchmarks):
        for trace in bench.traces:
            seq = trace.sequence
            out += [(seq, c.dbcs, c.locations_per_dbc) for c in iso_capacity_sweep()]
            out += [(seq, q, math.ceil(seq.num_variables / q)) for q in (2, 4, 8)]
    return out


def test_every_deterministic_policy_is_pinned():
    deterministic = [n for n in available_policies() if get_policy(n).deterministic]
    assert sorted(deterministic) == sorted(set(PINNED) - set(SUBJECTS))


@pytest.mark.parametrize("subject", sorted(PINNED))
def test_placements_match_pinned_digest(cases, subject):
    place = SUBJECTS.get(subject) or _policy(subject)
    digest = hashlib.sha256()
    for seq, q, cap in cases:
        digest.update(repr(place(seq, q, cap)).encode())
    assert digest.hexdigest() == PINNED[subject]


#: Policy -> SHA-256 of ``repr`` of its placements over
#: :func:`large_cases`, in case order. Recorded at release 1.23.0.
PINNED_LARGE = {
    "AFD-OFU": "5ec2697c74efeed52e79bab99fa84c64a16f7ac6c861ee857d0dc3c4f74f7afc",
    "DMA-OFU": "3f0b41adef700116266222948c76af6bbcb3d32342e71ef24cefa69314ca45a8",
    "DMA-Chen": "bcbf5aa401ef65b0c91d376accacc17ea065f29c7fd60aeaddf7195b081faee9",
    "DMA-SR": "54d638b0f8809884f7df1f4c0f6017610e3291c7f9eaa2558ad74a56ca975ab2",
    "AFD-SR": "a987fcebca915ac5d3acf7ff65b05ab628acfaaa783dc3ac03118a50fc580fbe",
    "MDMA-SR": "ba05261e8655cd084e44b5136efde350dd16254c48679042198c07f40adec3f4",
}


@pytest.fixture(scope="module")
def large_cases():
    """Two 512-variable traces at 2, 4 and 8 DBCs of 256, 128 and 64
    locations. The zipf trace has frequency ties and unaccessed
    variables; the sliding-window trace has the short staggered
    lifespans that give DMA and multi-set DMA a chain DBC at q = 8."""
    traces = (
        zipf_sequence(512, 20000, rng=2027),
        sliding_window_sequence(504, 20000, window=6, shared_vars=8,
                                revisit=0.1, rng=2027),
    )
    return [(seq, q, 512 // q) for seq in traces for q in (2, 4, 8)]


@pytest.mark.parametrize("policy", sorted(PINNED_LARGE))
def test_large_dbc_placements_match_pinned_digest(large_cases, policy):
    place = _policy(policy)
    digest = hashlib.sha256()
    for seq, q, cap in large_cases:
        digest.update(repr(place(seq, q, cap)).encode())
    assert digest.hexdigest() == PINNED_LARGE[policy]
