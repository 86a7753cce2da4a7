"""M-covers of factor graphs: construction, validation, sampling.

A cover is encoded by one permutation of {0..M-1} per (factor, scope
variable) incidence: copy m of factor alpha is wired, in the position of
base variable i, to copy pi[alpha,i](m) of i.  This permutation-voltage
encoding generates exactly the M-covers of each connected component and
makes uniform sampling a matter of drawing independent permutations.

Lifts number copies variable-major (copy l of base node i is i*M + l),
through ``CoverSpec.lifted_scopes`` and ``layered_masks`` only.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ModelError
from .lattice import sorted_stack
from .models import FactorGraph, as_int, as_mask, as_seed, exact_partition


def lifted_id(base_id, layer: int) -> str:
    """Id of copy ``layer`` of a base node."""
    return f"{base_id}@{layer}"


@dataclass
class CoverSpec:
    """An M-cover encoded by per-incidence permutations.

    ``perms`` maps (factor id, variable id) to a length-M tuple that is a
    bijection on {0..M-1}; every incidence of the base model must appear.
    M and the permutation entries must be integers (floats with integer
    values are read as ints).  ``perms`` is validated once and read once,
    so it must not change after the spec is built, into two tables:
    ``scopes``, each base factor's scope as positions in ``base.var_ids``,
    and ``lifted_scopes``, every lifted factor's scope as lifted variable
    positions (row k*M + m is copy m of the k-th base factor alpha, and in
    the place of its base variable i it holds i*M + pi[alpha,i](m)).
    """

    base: FactorGraph
    m: int
    perms: Mapping
    scopes: tuple = field(init=False, repr=False, compare=False)
    lifted_scopes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.m = as_int(self.m, "the cover degree M")
        if self.m < 1:
            raise ModelError(f"cover degree must be >= 1, got {self.m}")
        want = {(fac.id, v) for fac in self.base.factors for v in fac.scope}
        have = set(self.perms.keys())
        if want != have:
            raise ModelError(
                f"permutations must cover each incidence exactly: missing "
                f"{sorted(map(str, want - have))[:3]}, extra {sorted(map(str, have - want))[:3]}"
            )
        self.perms = {
            key: tuple([as_int(x, "a permutation entry") for x in p]) for key, p in self.perms.items()
        }
        for key, perm in self.perms.items():
            if sorted(perm) != list(range(self.m)):
                raise ModelError(f"permutation for incidence {key} is not a bijection")
        pos = {v: i for i, v in enumerate(self.base.var_ids)}
        self.scopes = tuple(tuple(pos[v] for v in fac.scope) for fac in self.base.factors)
        self.lifted_scopes = tuple(
            tuple(i * self.m + self.perms[(fac.id, v)][m] for v, i in zip(fac.scope, scope))
            for fac, scope in zip(self.base.factors, self.scopes)
            for m in range(self.m)
        )

    def require_base(self, n_vars: int, scopes: Sequence, what: str) -> None:
        """Refuse a base other than ``n_vars`` variables with these factor
        scopes (as positions): a lift reads ``lifted_scopes`` by position."""
        want = (n_vars, tuple(map(tuple, scopes)))
        if (self.base.num_vars, self.scopes) != want:
            raise ModelError(
                f"cover spec base (variables, scopes) {(self.base.num_vars, self.scopes)} "
                f"does not match {what} {want}"
            )


def layered_masks(layers: Sequence[int], m: int, n: int) -> tuple:
    """Map M layer bitmasks over n base items to (lifted mask, stack masks).

    ``layers[l]``, an integer >= 0, selects copy l of each item (bits of n
    and above are ignored).  The lifted mask has bit i*M + l set iff bit i
    of ``layers[l]`` is.  Stack mask k has bit i set iff at least k+1
    layers have it: ``lattice.sorted_stack`` of the layers.
    """
    if len(layers) != m:
        raise ModelError(f"need {m} layers, got {len(layers)}")
    layers = [as_mask(x, "a layer mask") & ((1 << n) - 1) for x in layers]
    lifted = sum(
        1 << (i * m + layer) for layer, x in enumerate(layers) for i in range(n) if (x >> i) & 1
    )
    return lifted, sorted_stack(layers)


@dataclass
class LiftedModel:
    """A built cover together with its covering maps.

    ``var_copy_map``/``factor_copy_map`` send lifted nodes to the base node
    they copy; ``layer_map`` sends each lifted variable to its copy index,
    which partitions the lifted variables into M layers each holding one
    copy of every base variable.
    """

    cover: FactorGraph
    var_copy_map: dict
    factor_copy_map: dict
    layer_map: dict


def build_cover(spec: CoverSpec) -> LiftedModel:
    """Materialize the lifted model described by a CoverSpec."""
    base = spec.base
    m_total = spec.m
    variables = []
    var_copy_map = {}
    layer_map = {}
    pots = {}
    base_pots = base.node_potentials
    for v in base.var_ids:
        for m in range(m_total):
            lv = lifted_id(v, m)
            variables.append((lv, base.card(v)))
            var_copy_map[lv] = v
            layer_map[lv] = m
            if v in base_pots:
                pots[lv] = base_pots[v]
    names = [lv for lv, _card in variables]
    factors = []
    factor_copy_map = {}
    copies = itertools.product(base.factors, range(m_total))
    for (fac, m), scope in zip(copies, spec.lifted_scopes):
        lf = lifted_id(fac.id, m)
        factors.append((lf, tuple(names[x] for x in scope), fac.table))
        factor_copy_map[lf] = fac.id
    return LiftedModel(
        cover=FactorGraph(variables, factors, pots),
        var_copy_map=var_copy_map,
        factor_copy_map=factor_copy_map,
        layer_map=layer_map,
    )


def _factors_around(model: FactorGraph, image: Mapping) -> dict:
    """Each variable's Counter of the images of the factors whose scopes hold it."""
    around = {v: Counter() for v in model.var_ids}
    for fac in model.factors:
        for v in fac.scope:
            around[v][image[fac.id]] += 1
    return around


def validate_cover(
    candidate: FactorGraph,
    base: FactorGraph,
    var_map: Mapping,
    factor_map: Mapping,
) -> tuple:
    """Check that (var_map, factor_map) is a locally bijective M-to-1 cover map.

    Returns (ok, diagnosis); the diagnosis names the first violated node.
    """
    for v in candidate.var_ids:
        if v not in var_map:
            return False, f"variable {v!r} has no image"
        if var_map[v] not in base.var_ids:
            return False, f"variable {v!r} maps to unknown base variable"
        if candidate.card(v) != base.card(var_map[v]):
            return False, f"variable {v!r} changes cardinality"
        cp = candidate.node_potential(v)
        bp = base.node_potential(var_map[v])
        if (cp is None) != (bp is None) or (
            cp is not None and not np.array_equal(cp, bp)
        ):
            return False, f"variable {v!r} changes its node potential"
    base_factor = {fac.id: fac for fac in base.factors}
    for fac in candidate.factors:
        if fac.id not in factor_map:
            return False, f"factor {fac.id!r} has no image"
        bid = factor_map[fac.id]
        if bid not in base_factor:
            return False, f"factor {fac.id!r} maps to unknown base factor"
        bfac = base_factor[bid]
        if len(fac.scope) != len(bfac.scope):
            return False, f"factor {fac.id!r} changes arity"
        for pos, v in enumerate(fac.scope):
            if var_map[v] != bfac.scope[pos]:
                return False, (
                    f"factor {fac.id!r} position {pos} covers "
                    f"{var_map[v]!r}, expected {bfac.scope[pos]!r}"
                )
        if fac.table != bfac.table:
            return False, f"factor {fac.id!r} changes its table"
    # Local bijectivity at variables: each base incidence (alpha, i) must be
    # hit exactly once around every copy of i.
    seen = _factors_around(candidate, factor_map)
    want = _factors_around(base, {fac.id: fac.id for fac in base.factors})
    for v in candidate.var_ids:
        if seen[v] != want[var_map[v]]:
            return False, f"variable {v!r} breaks local bijectivity"
    counts_v = Counter(var_map[v] for v in candidate.var_ids)
    counts_f = Counter(factor_map[fac.id] for fac in candidate.factors)
    fibers = {counts_v[v] for v in base.var_ids} | {counts_f[fac.id] for fac in base.factors}
    if len(fibers) != 1 or 0 in fibers:
        return False, "base nodes have unequal numbers of copies"
    return True, None


def sample_cover(base: FactorGraph, m: int, seed: int) -> CoverSpec:
    """Draw a uniform permutation assignment for every incidence.

    Deterministic given the seed.  Sampling is uniform over permutation
    assignments (labeled covers), which weights isomorphism classes by
    their labeled multiplicity; see the module notes in the README.
    """
    m = as_int(m, "the cover degree M")
    rng = np.random.default_rng(as_seed(seed))
    perms = {}
    for fac in base.factors:
        for v in fac.scope:
            perms[(fac.id, v)] = tuple(rng.permutation(m).tolist())
    return CoverSpec(base=base, m=m, perms=perms)


def iter_cover_specs(base: FactorGraph, m: int) -> Iterator[CoverSpec]:
    """Every permutation assignment, first incidence of each factor pinned.

    Pinning one incidence per factor to the identity drops relabelings of
    factor copies that produce the same lifted graph, keeping exhaustive
    enumeration small.
    """
    m = as_int(m, "the cover degree M")
    identity = {(fac.id, v): tuple(range(m)) for fac in base.factors for v in fac.scope}
    free = [(fac.id, v) for fac in base.factors for v in fac.scope[1:]]
    all_perms = list(itertools.permutations(range(m)))
    for combo in itertools.product(all_perms, repeat=len(free)):
        yield CoverSpec(base=base, m=m, perms=identity | dict(zip(free, combo)))


@dataclass
class CoverEstimate:
    """An M-th-root-of-average-cover-Z statistic.

    This is a finite-M heuristic for the cover characterization of the
    Bethe partition function, not the M -> infinity limit; sampling is
    uniform over labeled permutation assignments.
    """

    m: int
    num_samples: int
    mean_z: float
    estimate: float
    variance: float
    exhaustive: bool = False
    note: str = field(
        default="finite-M heuristic over labeled permutation covers"
    )


def _cover_average(m: int, specs, exhaustive: bool) -> CoverEstimate:
    """Mean and variance of the lifted Z over ``specs``, and its M-th root."""
    zs = [exact_partition(build_cover(spec).cover) for spec in specs]
    mean = math.fsum(zs) / len(zs)
    var = math.fsum((z - mean) ** 2 for z in zs) / len(zs)
    return CoverEstimate(
        m=m,
        num_samples=len(zs),
        mean_z=mean,
        estimate=mean ** (1.0 / m),
        variance=var,
        exhaustive=exhaustive,
    )


def bethe_estimate_via_covers(
    base: FactorGraph, m: int, num_samples: int, seed: int
) -> CoverEstimate:
    """Estimate the M-th root of the average cover partition function."""
    m = as_int(m, "the cover degree M")
    num_samples, seed = as_int(num_samples, "the sample count"), as_seed(seed)
    if num_samples < 1:
        raise ModelError("need at least one sample")
    specs = (sample_cover(base, m, seed + k) for k in range(num_samples))
    return _cover_average(m, specs, exhaustive=False)


def cover_average_exhaustive(base: FactorGraph, m: int) -> CoverEstimate:
    """Exact average of Z over all pinned permutation covers (small bases)."""
    m = as_int(m, "the cover degree M")
    return _cover_average(m, iter_cover_specs(base, m), exhaustive=True)
