"""Design-of-experiments seeding: two-level fractional factorials.

DAVOS seeds its genetic search from a fractional-factorial design
rather than a uniform random cloud: with k factors, a full two-level
factorial needs 2^k runs, but a 2^(k-p) *fraction* — assigning each
factor a distinct alias mask over b basis bits and reading its level
as the parity of ``run & mask`` — screens every main effect in only
``2^b`` runs (b = ⌈log2(k+1)⌉).  That is the classic resolution-III
construction: every factor column is orthogonal to every other, so the
seed population spreads over the corners of the design hypercube
instead of clumping.

Levels map onto each gene's grid extremes (first and last value — the
grids are ordered), and the all-defaults genome is appended as the
center point.  Everything is a pure function of the space and the
requested size: no RNG, no hashing, no iteration-order dependence.
"""

from __future__ import annotations

import random
from typing import List

from repro import _domain
from repro.explore.genome import Gene, Genome, SearchSpace


def _two_levels(gene: Gene):
    """The (lo, hi) screening levels of one gene: its grid extremes."""
    return gene.values[0], gene.values[-1]


def fractional_factorial(space: SearchSpace) -> List[Genome]:
    """The 2^(k-p) screening design over the space's genes.

    Returns ``2^b`` genomes (b = ⌈log2(k+1)⌉ for k multi-valued
    genes) plus the all-defaults center point.  Duplicates (possible
    when grids have fewer than two values) are removed preserving
    first-seen order.
    """
    varying = [g for g in space.genes if len(g.values) >= 2]
    k = len(varying)
    b = 1
    while (1 << b) - 1 < k:
        b += 1
    runs = 1 << b
    # alias masks: nonzero bit patterns in ascending order; the first b
    # are the basis columns (main effects), the rest alias interactions
    masks = list(range(1, k + 1))
    design: List[Genome] = []
    seen = set()

    def push(genome: Genome) -> None:
        key = tuple(genome[g.name] for g in space.genes)
        if key not in seen:
            seen.add(key)
            design.append(genome)

    for run in range(runs):
        genome = space.default_genome()
        for gene, mask in zip(varying, masks):
            lo, hi = _two_levels(gene)
            parity = bin(run & mask).count("1") & 1
            genome[gene.name] = hi if parity else lo
        push(genome)
    push(space.default_genome())
    return design


def one_factor_at_a_time(space: SearchSpace) -> List[Genome]:
    """The OFAT screening design: every level of every gene, alone.

    Two-level factorials only visit each grid's *extremes* — a
    categorical gene like ``heuristic`` would never seed its interior
    levels (kl, annealing, ...), and whatever front region those levels
    own would be invisible to the search until a lucky mutation.  OFAT
    fixes that: for each varying gene, one genome per level with every
    other gene at its default.  Includes the all-defaults center point;
    pure function of the space, no RNG.
    """
    design: List[Genome] = [space.default_genome()]
    seen = {tuple(design[0][g.name] for g in space.genes)}
    for gene in space.genes:
        for value in gene.values:
            genome = space.default_genome()
            genome[gene.name] = value
            key = tuple(genome[g.name] for g in space.genes)
            if key not in seen:
                seen.add(key)
                design.append(genome)
    return design


def doe_population(
    space: SearchSpace, size: int, seed: int,
) -> List[Genome]:
    """A seed population of exactly ``size`` genomes.

    Level coverage first (:func:`one_factor_at_a_time` — every level
    of every gene gets screened), then the fractional-factorial
    corners (extreme-level interactions), then seeded uniform draws
    for any remaining slots — each stage skipping effective duplicates
    so the GA's first generation wastes no evaluations.
    """
    _domain.count("size", size, 1)
    design: List[Genome] = []
    seen = set()
    # corners/levels that differ only in hidden genes collapse to one
    # effective genome — keep the first of each, they evaluate
    # identically and would waste population slots
    for genome in (one_factor_at_a_time(space)
                   + fractional_factorial(space)):
        fp = space.fingerprint(genome)
        if fp not in seen and len(design) < size:
            seen.add(fp)
            design.append(genome)
    rng = random.Random(seed)
    attempts = 0
    while len(design) < size and attempts < size * 50:
        genome = space.random_genome(rng)
        attempts += 1
        fp = space.fingerprint(genome)
        if fp in seen:
            continue
        seen.add(fp)
        design.append(genome)
    while len(design) < size:  # tiny spaces: allow duplicates
        design.append(space.random_genome(rng))
    return design
