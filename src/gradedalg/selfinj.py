"""Decision procedures: self-injectivity, Frobenius property, Nakayama data.

Graded self-injectivity is decided dually: every graded injective D(e_i A)
must be projective, certified by the map of its minimal projective cover.
The graded Frobenius test and the Nakayama data read the summands of those
same covers (the tops of the projective-injectives) instead of computing
their own.  Both sides of the Nakayama match come from one top
decomposition, ``modules.top_summands``: the covers of the D(e_j A) are
built on it, and the tops of the Ae_i are read from it.  A seeded
randomized search for a Frobenius functional (a linear form whose induced
pairing (u, v) -> lam(u v) is nondegenerate) serves as an independent
oracle on basic algebras; a failed search is never treated as a proof of
absence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import modp
from .algebra import GradedAlgebra, cached, is_basic, is_well_graded
from .errors import AmbiguousMatch, NotBasic, NotSelfInjective, TrivialGrading
from .modules import (
    GradedModule,
    cover_map,
    inj,
    proj,
    simple_classes,
    syzygy,
    top,
    top_summands,
)


@dataclass
class InjectiveCover:
    index: int
    dim: int
    cover_dim: int
    projective: bool
    summands: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class SelfInjectivity:
    holds: bool
    covers: list[InjectiveCover]
    witness: Optional[int] = None

    def __bool__(self) -> bool:
        return self.holds

    def to_dict(self) -> dict:
        return {
            "selfinjective": self.holds,
            "witness": self.witness,
            "covers": [vars(c) for c in self.covers],
        }


@cached
def is_graded_selfinjective(a: GradedAlgebra) -> SelfInjectivity:
    """Each graded injective D(e_i A) must be projective (checked by cover, once)."""
    covers = []
    witness = None
    for i in range(a.n_idempotents):
        m = inj(a, i, 0)
        summands, K = cover_map(m)
        ok = K.shape[1] == m.dim
        covers.append(InjectiveCover(i, m.dim, K.shape[1], ok, summands))
        if not ok and witness is None:
            witness = i
    return SelfInjectivity(witness is None, covers, witness)


def frobenius_functional_search(
    a: GradedAlgebra, seed: int = 0, trials: int = 64
) -> Optional[np.ndarray]:
    """Search for a linear form with nondegenerate pairing (u, v) -> lam(uv).

    Success proves the (basic) algebra is Frobenius, hence self-injective.
    Deterministic given the seed; returns None after the trial budget.
    """
    if not is_basic(a):
        raise NotBasic("functional search is only run on basic algebras")
    rng = np.random.default_rng(seed)
    n = a.dim
    for _ in range(trials):
        lam = rng.integers(0, a.p, size=n, dtype=np.int64)
        gram = np.einsum("ijk,k->ij", a.table, lam) % a.p
        if modp.invert(gram, a.p) is not None:
            return lam
    return None


def is_Ac_faithful(a: GradedAlgebra) -> bool:
    """Is the top component faithful as a left module over the degree-0 part?"""
    c = a.top_degree()
    if c == 0:
        raise TrivialGrading("faithfulness of A_c needs top degree >= 1")
    zero_idx = a.degree_indices(0)
    top_idx = a.degree_indices(c)
    cols = []
    for j in zero_idx:
        cols.append(a.left[j][:, top_idx].ravel())
    system = np.array(cols).T % a.p
    rank, _ = modp.rank_kernel(system, a.p)
    return rank == len(zero_idx)


def is_graded_frobenius(a: GradedAlgebra) -> bool:
    """Does _AA match D(A_A)(-c) as graded left modules?

    Criterion: A is graded self-injective, the cover of every D(e_i A) is a
    single summand Ae_r(c) (so D(e_i A)(-c) has simple top in degree 0),
    and the induced assignment of projective summands is a bijection on the
    designated idempotent indices.
    """
    c = a.top_degree()
    if c == 0:
        raise TrivialGrading("graded Frobenius needs top degree >= 1")
    cert = is_graded_selfinjective(a)
    if not cert.holds:
        return False
    if any(len(cov.summands) != 1 or cov.summands[0][1] != -c for cov in cert.covers):
        return False
    _, class_of, _ = simple_classes(a)
    # bijectivity on index classes: each class must appear with the right count
    return sorted(class_of[cov.summands[0][0]] for cov in cert.covers) == sorted(class_of)


@dataclass
class NakayamaData:
    permutation: list[int]
    shifts: list[int]
    witnesses: list[dict]

    def to_dict(self) -> dict:
        return {
            "permutation": self.permutation,
            "shifts": self.shifts,
            "witnesses": self.witnesses,
        }


def graded_nakayama(a: GradedAlgebra) -> NakayamaData:
    """The permutation s and shifts d with Ae_i isomorphic to D(e_{s(i)} A)(d_i).

    Matches each injective's simple top against the projectives: the
    injective D(e_j A) with top S_i concentrated in degree g is isomorphic
    to Ae_i(-g), giving s(i) = j and d_i = g.  That top is read off the
    single summand of the cover computed by the self-injectivity test, and
    the top of each Ae_i from ``top_summands`` too.
    """
    cert = is_graded_selfinjective(a)
    if not cert.holds:
        raise NotSelfInjective(f"injective {cert.witness} is not projective")
    l = a.n_idempotents
    top_of_proj = []  # class rep of top(Ae_i), to resolve class -> index
    for i in range(l):
        summands, _ = top_summands(proj(a, i, 0))
        if len(summands) != 1:
            raise AmbiguousMatch(f"top of Ae_{i} is not simple: {summands}")
        top_of_proj.append(summands[0][0])
    s = [-1] * l
    d = [0] * l
    witnesses: list[dict] = []
    used = [False] * l
    for j in range(l):
        summands = cert.covers[j].summands
        if len(summands) != 1:
            raise AmbiguousMatch(f"top of D(e_{j} A) is not simple: {summands}")
        rep, g = summands[0]
        candidates = [i for i in range(l) if top_of_proj[i] == rep and not used[i]]
        if len(candidates) != 1:
            raise AmbiguousMatch(
                f"{len(candidates)} projectives match D(e_{j} A); non-basic input?"
            )
        i = candidates[0]
        used[i] = True
        s[i] = j
        d[i] = g
        witnesses.append(
            {"projective": i, "injective": j, "shift": g, "cover": vars(cert.covers[j])}
        )
    if sorted(s) != list(range(l)):
        raise AmbiguousMatch("matching is not a permutation")
    c = a.top_degree()
    if c >= 1 and is_well_graded(a):
        if any(x != -c for x in d):
            raise AmbiguousMatch(
                f"well-graded self-injective algebra with shifts {d} != -{c}"
            )
    return NakayamaData(s, d, witnesses)


@dataclass
class GldimResult:
    finite: bool
    value: Optional[int]
    cutoff: int

    def to_dict(self) -> dict:
        return {"finite": self.finite, "value": self.value, "cutoff": self.cutoff}

    def __repr__(self) -> str:
        return f"Finite({self.value})" if self.finite else f"ExceedsCutoff({self.cutoff})"


def global_dimension(a: GradedAlgebra, cutoff: int = 32) -> GldimResult:
    """Length of minimal projective resolutions of the simples, up to a cutoff.

    Never claims infinite dimension: past the cutoff the result is the
    three-valued ExceedsCutoff outcome.
    """
    reps, _, _ = simple_classes(a)
    worst = 0
    for r in reps:
        m: GradedModule = top(proj(a, r, 0))
        steps = 0
        while m.dim:
            if steps > cutoff:
                return GldimResult(False, None, cutoff)
            m = syzygy(m)
            steps += 1
        worst = max(worst, steps - 1)
    return GldimResult(True, worst, cutoff)
