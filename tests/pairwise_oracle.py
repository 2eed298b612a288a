"""Per-pair reference for the quadrature counts, in plain numpy.

The simulator draws B's counts from an exact law without simulating pairs.
This module keeps the pair-by-pair model that law stands for, written
independently of qcs_sim, so tests can compare the two:

- `pairwise_counts` samples one collapse pair by pair: A's outcomes, B's
  partner phases with per-pair transport jitter, the (optionally shuffled)
  type list, B's kept list in pair-index order and one readout per pair;
- `shuffled_type_lists` enumerates the same collapse exactly for a handful
  of pairs.

Angles are measured from the common phase of B's type II partners: a pair
at angle x read in a basis at angle -phase reads pos with probability
cos((x + phase) / 2)**2.
"""
import itertools
import math

import numpy as np


def pairwise_counts(rng, sizes, phase0, phase1, sigma_pair=0.0, shuffle=False,
                    use_type_i=False):
    """(n0, k0, n1, k1) for each sub-ensemble of one collapse of sum(sizes) pairs.

    Sub-ensembles take consecutive pair indices; the type list, and a
    shuffle of it, spans all of them. Basis 0 (phase0) reads the first half
    of each kept list, basis 1 (phase1) the rest.
    """
    n = sum(sizes)
    type_i = rng.random(n) < 0.5
    theta = np.where(type_i, math.pi, 0.0) + sigma_pair * rng.standard_normal(n)
    announced = rng.permutation(type_i) if shuffle else type_i
    counts = []
    start = 0
    for size in sizes:
        th, ann = theta[start:start + size], announced[start:start + size]
        start += size
        kept = th[~ann]
        if use_type_i:
            kept = np.concatenate([kept, th[ann] + math.pi])
        n0 = kept.size // 2
        k0 = np.count_nonzero(rng.random(n0) < np.cos(0.5 * (kept[:n0] + phase0)) ** 2)
        k1 = np.count_nonzero(rng.random(kept.size - n0) < np.cos(0.5 * (kept[n0:] + phase1)) ** 2)
        counts.append((n0, int(k0), kept.size - n0, int(k1)))
    return counts


def shuffled_type_lists(n):
    """Every (type_i, announced) of n pairs with a shuffled list, and its probability.

    A's outcomes are fair coins, and a uniform permutation of her list is a
    uniform arrangement of the same labels.
    """
    for type_i in itertools.product((False, True), repeat=n):
        arrangements = set(itertools.permutations(type_i))
        for announced in arrangements:
            yield type_i, announced, 1.0 / (2**n * len(arrangements))


def kept_good_flags(type_i, announced, sizes, use_type_i):
    """B's kept list per sub-ensemble, in read-out order: True where a pair is good.

    He keeps the announced type II pairs, then with use_type_i the announced
    type I pairs turned by pi; a kept pair is good when his label is its
    true type.
    """
    lists = []
    start = 0
    for size in sizes:
        idx = range(start, start + size)
        start += size
        order = [j for j in idx if not announced[j]]
        if use_type_i:
            order += [j for j in idx if announced[j]]
        lists.append([type_i[j] == announced[j] for j in order])
    return lists
