"""Decision procedures: self-injectivity, Frobenius property, Nakayama data.

Graded self-injectivity is decided dually: every graded injective D(e_i A)
must be projective, certified by the map of its minimal projective cover.
The graded Frobenius test and the Nakayama data read the summands of those
same covers (the tops of the projective-injectives) instead of computing
their own.  One ``modules.cover_maps`` call decides the covers of all the
D(e_j A); the top of each Ae_i is the simple of its class, which
``modules.simple_classes`` names.  A seeded randomized search for a
Frobenius functional (a linear form whose induced pairing
(u, v) -> lam(u v) is nondegenerate, ``form_is_nondegenerate``) serves as
an independent oracle on basic algebras; a failed search is never treated
as a proof of absence.  The certificate reads the same rank for a form it
knows, the symmetrizing form of T(B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import modp
from .algebra import GradedAlgebra, cached, is_basic, is_well_graded
from .errors import AmbiguousMatch, NotBasic, NotSelfInjective, PreconditionFailed, TrivialGrading
from .modules import ModuleFamily, cover_maps, inj, proj, simple_classes, syzygies, tops


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
    """Each graded injective D(e_i A) must be projective (checked by cover, once).

    The covers of all the D(e_i A) come from one ``cover_maps`` call.
    """
    covers = []
    witness = None
    mods = [inj(a, i, 0) for i in range(a.n_idempotents)]
    for i, (m, (summands, K)) in enumerate(zip(mods, cover_maps(ModuleFamily.of(a, mods)))):
        ok = K.shape[1] == m.dim
        covers.append(InjectiveCover(i, m.dim, K.shape[1], ok, summands))
        if not ok and witness is None:
            witness = i
    return SelfInjectivity(witness is None, covers, witness)


def require_seed(seed: int) -> None:
    """Raise PreconditionFailed("seed") unless the seed of a random search is
    at least 0, as numpy's generators need."""
    if seed < 0:
        raise PreconditionFailed("seed", f"seed {seed} is negative")


#: Seeded draws of a linear form that ``frobenius_functional_search`` makes
#: before it returns None.
FUNCTIONAL_DRAWS = 64


def frobenius_functional_search(a: GradedAlgebra, seed: int = 0) -> Optional[np.ndarray]:
    """Search for a linear form with nondegenerate pairing (u, v) -> lam(uv).

    Success proves the (basic) algebra is Frobenius, hence self-injective.
    Deterministic given the seed, which must be at least 0; returns None
    after ``FUNCTIONAL_DRAWS`` draws.
    """
    require_seed(seed)
    if not is_basic(a):
        raise NotBasic("functional search is only run on basic algebras")
    rng = np.random.default_rng(seed)
    for _ in range(FUNCTIONAL_DRAWS):
        lam = rng.integers(0, a.p, size=a.dim, dtype=np.int64)
        if form_is_nondegenerate(a, lam):
            return lam
    return None


def form_is_nondegenerate(a: GradedAlgebra, eps: np.ndarray) -> bool:
    """Is the pairing (x, y) -> eps(x y) of a linear form ``eps`` nondegenerate?

    One rank of gram = eps @ ``left``, so that gram[i, j] = eps(b_i b_j).
    When it is, x -> eps(. x) is an isomorphism of left modules from A onto
    D(A), graded up to a shift when eps is homogeneous, so A is (graded)
    self-injective.
    """
    return modp.rank(eps @ a.left % a.p, a.p) == a.dim


def is_Ac_faithful(a: GradedAlgebra) -> bool:
    """Is the top component faithful as a left module over the degree-0 part?

    One rank: row j is the map A_c -> A_c of the basis element b_j of A_0.
    """
    c = a.top_degree()
    if c == 0:
        raise TrivialGrading("faithfulness of A_c needs top degree >= 1")
    zero = a.degree_indices(0)
    maps = a.left[zero][:, :, a.degree_indices(c)]  # maps[j] = L(b_j), top columns only
    return modp.rank(maps.reshape(zero.size, -1), a.p) == zero.size


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
    single summand of the cover computed by the self-injectivity test; the
    top of Ae_i is S_i, named by the representative of its class in
    ``simple_classes``, as its cover would name it.
    """
    cert = is_graded_selfinjective(a)
    if not cert.holds:
        raise NotSelfInjective(f"injective {cert.witness} is not projective")
    l = a.n_idempotents
    reps, class_of, _ = simple_classes(a)
    s = [-1] * l
    d = [0] * l
    witnesses: list[dict] = []
    used = [False] * l
    for j in range(l):
        summands = cert.covers[j].summands
        if len(summands) != 1:
            raise AmbiguousMatch(f"top of D(e_{j} A) is not simple: {summands}")
        rep, g = summands[0]
        candidates = [i for i in range(l) if reps[class_of[i]] == rep and not used[i]]
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
    three-valued ExceedsCutoff outcome.  A negative cutoff bounds no
    resolution, so it raises PreconditionFailed("cutoff").  The simples are
    the tops of the Ae_r, one per class, from one ``tops`` call, and every
    simple class moves one syzygy forward per ``syzygies`` call, so the
    resolutions end together after as many steps as the longest needs.
    """
    if cutoff < 0:
        raise PreconditionFailed("cutoff", f"cutoff {cutoff} is negative")
    reps, _, _ = simple_classes(a)
    mods = tops(ModuleFamily.of(a, [proj(a, r, 0) for r in reps]))
    steps = 0
    while any(m.dim for m in mods):
        if steps > cutoff:
            return GldimResult(False, None, cutoff)
        mods = syzygies(ModuleFamily.of(a, mods))
        steps += 1
    return GldimResult(True, max(steps - 1, 0), cutoff)
