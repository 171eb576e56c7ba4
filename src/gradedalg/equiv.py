"""The equivalence machinery between A-gr and T(b(A))-gr.

The functor Phi repackages a graded module M over A as a module over the
trivial extension t(A) = b(A) |x x(A): the new slice n is the stack of the
old slices nc .. (n+1)c-1, acted on by block matrices on column vectors.
With the upper-triangular block orientation used in construct, degree
bookkeeping forces the old slice nc+r into column component c-1-r (the
component index decreases as the inner degree rises); Psi reads components
back off the diagonal idempotents with the same reflection, which makes
Psi . Phi the identity on the nose, tables included.  Both act on a whole
family of modules at once (``modules.ModuleFamily``, every member's action
side by side in one array): ``phis`` gathers the rows of block_layout, the
action of a row's source element on the vectors of the row's column
component, for every member in one fancy index, and ``psis`` scatters them
back in one ``np.add.at``, so that each (basis element, component) is read
from exactly one block.  The members whose basis mixes components are first
rewritten in the basis of their split along the designated idempotents of
t(A), the family that one ``modules._splits`` call returns for all of them,
in which each vector lies in one component.  ``phi`` and ``psi``, the
paper's F and G on one module, are their calls on one module.
Both take t(A) from ``t_of(a)``, which is built once per algebra, so their
modules live over the very algebra object that theorem_pipeline uses.

The hypotheses of the theorem (A_0 basic, A well-graded, A graded
self-injective) are decided in one place, _require_hypotheses, once per
outside input: on A by theorem_pipeline, on the given trivial extension by
extract_sigma.  They are not decided again on t(A), which has them when A
has them, so the pipeline decides nothing about t(A) but the join that
builds it.  A_0, the self-injectivity certificate and the other facts of an
algebra alone are cached on it, so later calls on the same algebra object
reuse them.

_sigma_of realizes the dual of the degree-1 part of a well-graded
self-injective trivial extension as a twisted regular bimodule: it hunts
for a generator m of D(X) whose two multiplication maps B -> D(X) are
bijective, reads off sigma = L_m^{-1} R_m, and dualizes to an explicit
isomorphism theta : X -> D(B^sigma).  Every claim it returns is checked on
its own, so the hypotheses only choose which refusal an unfit input gets,
and _sigma_of does not decide them: one check of theta against both
actions of D(B^sigma), on every basis element of B, decides at once that
sigma is an automorphism and theta a bimodule isomorphism.  That check
also makes h = diag(I, theta) : t(A) -> T(B^sigma) an algebra map, so
theorem_pipeline checks only that h is invertible, and no T(B^sigma) is
built.  extract_sigma is _sigma_of behind the refusals of an outside input.

_transports moves a family of graded modules to another algebra by a change
of algebra basis per degree slice, one product per degree over the whole
family.  With ``_twist`` it moves modules both ways along the isomorphism of
categories T(B)-gr = T(B^sigma)-gr, where on degree n the degree-0 part acts
through sigma^n and the dual part through precomposition with sigma^{-n};
with h : t(A) -> T(B^sigma) folded in, it carries the functor F and its
inverse.

theorem_pipeline composes everything into an equivalence
F : A-gr -> T(b(A))-gr and certifies it on a finite sample set: exact
round trips, hom-dimension equality on all pairs, preservation of
projectives and injectives, and functoriality on hom bases.  The simple
samples are the tops of the Ae_i, from one ``modules.tops`` call.  F, the
checks of the images (``modules.module_faults``) and G each make one pass
over the sample family.  The images are held as that one family, and every
later pass names members by position: ``modules.hom_dims`` on the family of
the base modules, keyed by relative shift, and on the images, every pair;
``modules.cover_maps`` on the images less the simples; one
``modules.hom_bases`` call on the samples for functoriality; and one
``modules.morphism_faults`` call on the images, which checks every
identity, hom basis and composite.  The records still read sample by
sample, and a failure is the one the first failing sample gives.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import modp
from .algebra import (
    Bimodule,
    GradedAlgebra,
    degree_zero_subalgebra,
    generators,
    intertwine_fault,
    is_basic,
    is_left_well_graded,
    is_right_well_graded,
)
from .construct import (
    AlgebraAutomorphism,
    T_of,
    block_layout,
    t_of,
    twisted_dual_bimodule,
)
from .errors import (
    AlgebraMismatch,
    CheckFailed,
    GeneratorNotFound,
    PreconditionFailed,
    TrivialGrading,
)
from .modules import (
    GradedModule,
    ModuleFamily,
    _splits,
    cover_maps,
    hom_bases,
    hom_dims,
    inj,
    module_faults,
    morphism_faults,
    proj,
    shift,
    tops,
)
from .selfinj import form_is_nondegenerate, is_graded_selfinjective, require_seed


# ---------------------------------------------------------------------------
# the functors Phi and Psi


def phi(a: GradedAlgebra, m: GradedModule) -> GradedModule:
    """Repackage a graded A-module as a graded module over t_of(a): ``phis`` on M alone."""
    return phis(a, ModuleFamily.of(m.algebra, [m])).modules()[0]


def phis(a: GradedAlgebra, fam: ModuleFamily) -> ModuleFamily:
    """Repackage a family of graded A-modules as graded modules over t_of(a).

    The underlying bases and their order are kept; only degrees are retagged
    and the action is re-read through the block layout, so the functor is
    the identity on morphism matrices.  The whole family is one gather of
    the rows of block_layout, masked by the component of each column's input
    vector.
    """
    c = a.top_degree()
    if c < 1:
        raise TrivialGrading("phi needs a nontrivially graded source")
    if not fam.algebra.same_as(a):
        raise AlgebraMismatch("module is not over the given algebra")
    layout = np.concatenate(block_layout(a))
    comp = (c - 1 - (fam.degrees % c)) % c
    action = fam.action[layout[:, 2]]  # a fresh gather, masked in place
    action *= layout[:, 1, None] == comp[fam.inp]
    return fam.like(t_of(a), fam.degrees // c, action)


def psi(a: GradedAlgebra, n: GradedModule) -> GradedModule:
    """Unpack a graded module over t_of(a) into a graded A-module: ``psis`` on N alone."""
    return psis(a, ModuleFamily.of(n.algebra, [n])).modules()[0]


def psis(a: GradedAlgebra, fam: ModuleFamily) -> ModuleFamily:
    """Unpack a family of graded modules over t_of(a) into graded A-modules.

    A member each of whose basis vectors lies in a single diagonal component
    (always the case for images of phi and for the projectives built here)
    keeps its basis and its order, and psi inverts phi exactly.  One product
    reads the action of the c diagonal units e_qq of t(A) on every member,
    and one ``np.add.at`` scatters the blocks back, each (basis element of A,
    component) from exactly one block.  The other members are first
    rewritten in the basis of their split along the designated idempotents
    of t(A), the family that one ``modules._splits`` call returns: each is
    e_rr e_i in b(A), under the one diagonal unit e_rr, so each vector of
    that basis has one component.  Raises CheckFailed, naming the first
    such member by its position in the family, if a member is still not
    adapted in that basis, as when a designated idempotent does not act on
    it as a projection.
    """
    c = a.top_degree()
    if c < 1:
        raise TrivialGrading("psi needs a nontrivially graded target")
    t = fam.algebra
    if not t.same_as(t_of(a)):
        raise AlgebraMismatch("module is not over t(A)")
    comp, adapted = _components(a, fam)
    if not adapted.all():
        split, _ = _splits(fam.select(~adapted))
        degrees, action = fam.degrees.copy(), fam.action.copy()
        degrees[~adapted[fam.owner]] = split.degrees
        action[:, ~adapted[fam.member]] = split.action
        fam = fam.like(t, degrees, action)
        comp, adapted = _components(a, fam)
        if not adapted.all():
            raise CheckFailed(
                f"the split basis is not adapted to the components of t(A) (member {int(adapted.argmin())})"
            )
    layout = np.concatenate(block_layout(a))
    row, col = np.nonzero(layout[:, 1, None] == comp[fam.inp])  # the block of each column's component
    action = modp.zeros(a.dim, fam.action.shape[1])
    np.add.at(action, (layout[row, 2], col), fam.action[row, col])
    return fam.like(a, fam.degrees * c + (c - 1 - comp), action)


def _components(a: GradedAlgebra, fam: ModuleFamily):
    """(component, adapted): the component index of each basis vector of the
    family, and whether each member's basis is adapted to the components.

    A member is adapted when each diagonal unit e_qq = sum_i e_qq e_i of t(A)
    acts on it as the 0/1 diagonal matrix of the vectors in component q, and
    each vector lies in some component; a vector marked by several units
    takes the last.  The action of every unit on every member is one product.
    """
    t, p, c = fam.algebra, fam.algebra.p, a.top_degree()
    units = t.idempotents.reshape(c, a.n_idempotents, t.dim).sum(axis=1) % p
    projs = units @ fam.action % p  # projs[q]: e_qq on every member
    ones = (projs == 1) & (fam.out == fam.inp)
    stray = np.bincount(fam.member[(projs != ones).any(axis=0)], minlength=fam.dims.size)
    marks = ones[:, fam.out == fam.inp]  # marks[q, v]: e_qq fixes vector v
    comp = np.where(marks.any(axis=0), c - 1 - marks[::-1].argmax(axis=0), -1)
    unmarked = np.bincount(fam.owner[comp < 0], minlength=fam.dims.size)
    return comp, (stray == 0) & (unmarked == 0)


# ---------------------------------------------------------------------------
# the hypotheses of the theorem


def _require_hypotheses(a: GradedAlgebra, basic: str, basic_detail: str) -> None:
    """Raise PreconditionFailed unless the degree-0 part of a is basic and a
    is well-graded and graded self-injective; ``basic`` names the first
    hypothesis.  A_0 is basic iff A is, as S(A) is the S(A_0) object when
    A has a positive degree (``algebra._radical_and_quotient``)."""
    if not is_basic(a):
        raise PreconditionFailed(basic, basic_detail)
    ok, wit = is_left_well_graded(a)
    if not ok:
        raise PreconditionFailed("well-graded", f"left witness idempotent {wit}")
    ok, wit = is_right_well_graded(a)
    if not ok:
        raise PreconditionFailed("well-graded", f"right witness idempotent {wit}")
    cert = is_graded_selfinjective(a)
    if not cert.holds:
        raise PreconditionFailed("self-injective", f"injective {cert.witness} is not projective")


# ---------------------------------------------------------------------------
# sigma extraction (trivial extension recognition)


@dataclass
class SigmaExtraction:
    base: GradedAlgebra
    sigma: AlgebraAutomorphism
    generator: np.ndarray
    iso: np.ndarray  # matrix of X -> D(B^sigma) on coordinates
    trials_used: int

    def to_dict(self) -> dict:
        return {
            "sigma": self.sigma.matrix.tolist(),
            "generator": self.generator.tolist(),
            "bimodule_iso": self.iso.tolist(),
            "trials_used": self.trials_used,
        }


def split_trivial_extension(t: GradedAlgebra) -> tuple[GradedAlgebra, Bimodule]:
    """Degree-0 subalgebra B and degree-1 bimodule X of an algebra with c = 1."""
    if t.top_degree() != 1:
        raise PreconditionFailed("trivial-extension-shape", f"top degree is {t.top_degree()}, not 1")
    zero_idx = t.degree_indices(0)
    one_idx = t.degree_indices(1)
    b = degree_zero_subalgebra(t)
    grid = np.ix_(zero_idx, one_idx, one_idx)
    left, right = t.left[grid], t.right[grid]
    x = Bimodule(b, [t.names[i] for i in one_idx], left, right)
    return b, x


def extract_sigma(t: GradedAlgebra, seed: int = 0) -> SigmaExtraction:
    """Realize a well-graded self-injective B |x X as a twisted trivial extension.

    Refuses, in this order, a seed below 0 (PreconditionFailed "seed"), a
    top degree other than 1 ("trivial-extension-shape") and an algebra that
    is not a trivial extension of the theorem's kind ("B-basic",
    "well-graded", "self-injective", decided on t by _require_hypotheses),
    then returns the construction of ``_sigma_of``.  t is taken to be
    associative, as ``validate_algebra`` decides for a loaded file, so that
    X is a bimodule, the premise of ``_sigma_of``'s one check.
    """
    require_seed(seed)
    b, x = split_trivial_extension(t)
    _require_hypotheses(t, "B-basic", "degree-0 part is not basic")
    return _sigma_of(b, x, seed)


#: Seeded draws of a generator m of D(X) that ``_sigma_of`` makes before it
#: refuses.  Under the theorem's hypotheses a draw fails with probability at
#: most l/p < 1/2 (l simple classes, p > dim t(A) >= 2 l), so all of them
#: fail with probability below 2^-128.
SIGMA_DRAWS = 128


def _sigma_of(b: GradedAlgebra, x: Bimodule, seed: int) -> SigmaExtraction:
    """sigma and theta : X -> D(B^sigma) for the split (B, X) of a trivial extension.

    Finds a generator m of D(X) whose left and right multiplication maps
    B -> D(X), L_m : b -> b m and R_m : b -> m b, are bijective (up to
    ``SIGMA_DRAWS`` seeded random draws; GeneratorNotFound after them),
    sets sigma(b) = L_m^{-1}(m b), and returns the dualized
    isomorphism theta = L_m^T : X -> D(B^sigma).  The hypotheses are not
    decided here: every claim returned is checked on its own.  After m b =
    sigma(b) m on the basis, theta is checked against both actions of
    D(B^sigma) on every basis element of B, in basis order, which decides
    sigma and theta together.  X is a bimodule, by the associativity of the
    extension it was split from, and theta is invertible, so when
    theta X(b) = D(B^sigma)(b) theta for every b on both sides, D(B^sigma)
    is the bimodule theta X theta^{-1} and theta a bimodule isomorphism.
    And D(B^sigma) is a bimodule iff sigma is an automorphism: B is
    trivially graded and sigma invertible, and D(B^sigma) is unital iff
    sigma(1) = 1 and its left action associative iff sigma is
    multiplicative, since (b (b' f))(x) = f(x sigma(b) sigma(b')) and
    ((b b') f)(x) = f(x sigma(b b')).
    """
    p = b.p
    if x.dim != b.dim:
        raise GeneratorNotFound(f"dim X = {x.dim} differs from dim B = {b.dim}")
    rng = np.random.default_rng(seed)
    for trials_used in range(1, SIGMA_DRAWS + 1):
        m_vec = rng.integers(0, p, size=x.dim, dtype=np.int64)
        # column i of L_m is b_i m : x -> m(x b_i), of R_m is m b_i : x -> m(b_i x)
        lm = ((m_vec @ x.right_action) % p).T
        rm = ((m_vec @ x.left_action) % p).T
        lm_inv = modp.invert(lm, p)
        if lm_inv is not None and modp.invert(rm, p) is not None:
            break
    else:
        raise GeneratorNotFound("no generator with bijective multiplication maps")
    sigma = AlgebraAutomorphism(b, (lm_inv @ rm) % p)
    if not np.array_equal((lm @ sigma.matrix) % p, rm):
        raise CheckFailed("m b != sigma(b) m on the basis")
    theta = lm.T % p
    twisted = twisted_dual_bimodule(b, sigma)
    basis = np.arange(b.dim)
    sides = {"left": (x.left_action, twisted.left_action), "right": (x.right_action, twisted.right_action)}
    for side, (src, tgt) in sides.items():
        fault = intertwine_fault(theta, src, tgt, basis, p)
        if fault is not None:
            raise CheckFailed(f"iso does not intertwine the {side} action at {b.names[fault[0]]}")
    return SigmaExtraction(b, sigma, m_vec, theta, trials_used)


# ---------------------------------------------------------------------------
# Lemma-2.1 style transport between T(B)-gr and T(B^sigma)-gr


def _transports(
    fam: ModuleFamily, target: GradedAlgebra, change: Callable[[int], np.ndarray]
) -> ModuleFamily:
    """Move a family to ``target``: on the degree-g slice of each member,
    target basis element i acts as sum_k change(g)[k, i] * action[k].  The
    columns whose input vector has degree g, over the whole family, are one
    product with change(g)."""
    p = fam.algebra.p
    new = modp.zeros(target.dim, fam.action.shape[1])
    degrees = fam.degrees[fam.inp]
    for g in np.unique(degrees).tolist():
        cols = degrees == g
        new[:, cols] = modp.dot(change(g).T, fam.action[:, cols], p).astype(np.int64) % p
    return fam.like(target, fam.degrees, new)


def _twist(sigma: AlgebraAutomorphism, g: int) -> np.ndarray:
    """diag(sigma^g, (sigma^{-g})^T): b acts as sigma^g(b), f as f . sigma^{-g}."""
    nb = sigma.algebra.dim
    out = modp.zeros(2 * nb, 2 * nb)
    out[:nb, :nb] = sigma.power(g)
    out[nb:, nb:] = sigma.power(-g).T
    return out


# ---------------------------------------------------------------------------
# the full pipeline


@dataclass
class SampleCheck:
    family: str
    name: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"family": self.family, "name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class EquivalenceCertificate:
    prime: int
    dims: dict
    sigma: list
    generator: list
    iso: list
    samples: list
    checks: list = field(default_factory=list)
    passed: bool = False

    def to_dict(self) -> dict:
        return {
            "prime": self.prime,
            "dims": self.dims,
            "sigma": self.sigma,
            "generator": self.generator,
            "bimodule_iso": self.iso,
            "samples": self.samples,
            "checks": [c.to_dict() for c in self.checks],
            "passed": self.passed,
        }


def theorem_pipeline(
    a: GradedAlgebra, window: Optional[int] = None, seed: int = 0
) -> EquivalenceCertificate:
    """Build and certify the equivalence F : A-gr -> T(b(A))-gr.

    Preconditions (each raises PreconditionFailed with a witness): c >= 1,
    A_0 basic, A well-graded, A graded self-injective, a sample window of
    at least 0 (a negative one leaves no samples to check) and a seed of at
    least 0.  The hypotheses are decided on A only; t(A) inherits them, and
    sigma comes from ``_sigma_of`` on the split of t(A).  Any failed
    certificate check afterwards raises CheckFailed:
    with the preconditions satisfied a failure indicates a bug, not a
    property of the input.
    """
    if window is not None and window < 0:
        raise PreconditionFailed("samples-window", f"window {window} leaves no samples")
    require_seed(seed)
    c = a.top_degree()
    if c < 1:
        raise PreconditionFailed("nontrivial-grading", "top degree is 0")
    _require_hypotheses(a, "A0-basic", "degree-0 component is not basic")

    t = t_of(a)
    ext = _sigma_of(*split_trivial_extension(t), seed)
    b = ext.base
    sigma = ext.sigma
    tb = T_of(b)
    p = a.p

    # h = diag(I, theta) : t(A) = B |x X -> T(B^sigma) = B |x Y.  With
    # X^2 = 0 = Y^2, such a map is an algebra map iff theta is a B-bimodule
    # map, which _sigma_of checked on every basis element of B against X,
    # a bimodule by the join that built t(A); so only its inverse is left
    nb = b.dim
    h = modp.zeros(t.dim, t.dim)
    h[:nb, :nb] = modp.identity(nb)
    h[nb:, nb:] = ext.iso
    h_inv = modp.invert(h, p)
    if h_inv is None:
        raise CheckFailed("transport matrix is singular")

    # F: Phi, then h^{-1} and the twist back to T(B), built once per degree; G undoes both
    to_tb = functools.cache(lambda g: (h_inv @ _twist(sigma, -g)) % p)
    to_t = functools.cache(lambda g: (_twist(sigma, g) @ h) % p)

    def functor(fam: ModuleFamily) -> ModuleFamily:
        return _transports(phis(a, fam), tb, to_tb)

    def inverse_functor(fam: ModuleFamily) -> ModuleFamily:
        return psis(a, _transports(fam, t, to_t))

    w = c if window is None else int(window)
    samples: list[tuple[str, GradedModule, str]] = []
    bases: list[GradedModule] = []
    origin: list[tuple[int, int]] = []  # (index in bases, shift) of each sample
    projs = [proj(a, i) for i in range(a.n_idempotents)]
    for i, top in enumerate(tops(ModuleFamily.of(a, projs))):
        k = len(bases)
        bases += [projs[i], top, inj(a, i)]
        for d in range(-w, w + 1):
            samples.append((f"Ae_{i}({d})", shift(bases[k], d), "projective"))
            samples.append((f"S_{i}({d})", shift(bases[k + 1], d), "simple"))
            samples.append((f"D(e_{i}A)({d})", shift(bases[k + 2], d), "injective"))
            origin += [(k, d), (k + 1, d), (k + 2, d)]

    cert = EquivalenceCertificate(
        prime=p,
        dims={
            "A": a.dim,
            "b(A)": b.dim,
            "x(A)": t.dim - b.dim,
            "t(A)": t.dim,
            "T(b(A))": tb.dim,
        },
        sigma=ext.sigma.matrix.tolist(),
        generator=ext.generator.tolist(),
        iso=ext.iso.tolist(),
        samples=[{"label": lab, "dim": m.dim, "kind": kind} for lab, m, kind in samples],
    )

    def record(family: str, name: str, passed: bool, detail: str = "", transcript=lambda: None):
        cert.checks.append(SampleCheck(family, name, passed, detail))
        if not passed:
            raise CheckFailed(
                f"{family}: {name} failed ({detail})",
                {"certificate": cert.to_dict(), "counterexample": transcript()},
            )

    # T(B) is symmetric: in T_of's coordinates eps = (0, unit of B), so that
    # eps(b, f) = f(1), is a form of degree 1 whose pairing eps(xy) is
    # nondegenerate, which makes T(B) graded self-injective; its one rank
    # decides the record, and a degenerate form is a bug in T_of
    eps = np.concatenate([modp.zeros(b.dim), b.unit])
    record(
        "target",
        "T(b(A)) graded self-injective",
        form_is_nondegenerate(tb, eps),
        "injectivity over the target is tested via projectivity",
    )

    # one pass of F, of the image checks and of G over the whole sample family;
    # G runs on the images before the first invalid one, as the records of a
    # sample go in order: its image, then its round trip
    generators(tb)  # cached: its dense temporaries come and go before the family's arrays exist
    count = len(samples)
    sources = ModuleFamily.of(a, [m for _, m, _ in samples])
    fam = functor(sources)
    faults = module_faults(fam)
    before = np.cumsum([fault is not None for fault in faults]) == 0
    try:
        back = inverse_functor(fam.select(before))
        same = back.same_members(sources.select(before))
    except CheckFailed:  # a split failed: G one sample at a time raises it at its sample
        back = None

    def returned(k: int) -> GradedModule:  # G(F(M)) of sample k
        if back is None:
            return inverse_functor(fam.select(np.arange(count) == k)).modules()[0]
        return back.modules()[k]

    for k, ((label, m, _), fault) in enumerate(zip(samples, faults)):
        if fault is not None:
            record("image", label, False, fault, lambda: {"sample": label, "module": m.to_dict()})
        record(
            "round-trip",
            label,
            bool(same[k]) if back is not None else returned(k).equals(m),
            "G(F(M)) != M",
            lambda: {"sample": label, "module": m.to_dict(), "returned": returned(k).to_dict()},
        )
    del back  # as large as the images, the family that is read from here on

    # Hom(M(d), N(d')) = Hom(M, N(d' - d)), so the source side is keyed on
    # the relative shift and solved on the base modules, without building a
    # shift.  F(M(d)) is only isomorphic to a shift of F(M), so every image
    # pair is solved on its own.
    keys = {}
    for ka, da in origin:
        for kb, db in origin:
            keys.setdefault((ka, kb, db - da), len(keys))
    by_key = hom_dims(ModuleFamily.of(a, bases), list(keys))
    by_image = iter(hom_dims(fam, [(ia, ib, 0) for ia in range(count) for ib in range(count)]))
    src_dims = {}
    for ia, ((la, _, _), (ka, da)) in enumerate(zip(samples, origin)):
        for ib, ((lb, _, _), (kb, db)) in enumerate(zip(samples, origin)):
            src_dims[ia, ib] = d_src = by_key[keys[ka, kb, db - da]]
            d_img = next(by_image)
            record(
                "hom-dim",
                f"{la} -> {lb}",
                d_src == d_img,
                f"{d_src} vs {d_img}",
            )

    # one cover pass over the images of the projectives and the injectives
    kept = np.array([kind != "simple" for _, _, kind in samples])
    for k, (_, K) in zip(np.flatnonzero(kept).tolist(), cover_maps(fam.select(kept))):
        label, _, kind = samples[k]
        detail = "" if kind == "projective" else "projectivity = injectivity over the self-injective target"
        record("preservation", f"F({label}) {kind}", K.shape[1] == int(fam.dims[k]), detail)

    # functoriality: the functor is the identity on morphism matrices, so
    # F(id) = id and F(g.f) = F(g)F(f) hold as matrix identities; the content
    # checked here is that identities, transported hom bases, and composites
    # are still morphisms between the image modules: one check of them all,
    # whose faults are read in the order of the records.  The pairs are up to
    # six, each a sample with the first other sample that has maps both ways,
    # whose hom bases both ways come from one call
    pairs = []
    for ia in range(count):
        ib = next((ib for ib in range(count) if ib != ia and src_dims[ia, ib] and src_dims[ib, ia]), None)
        if ib is not None:
            pairs.append((ia, ib))
        if len(pairs) == 6:
            break
    found = hom_bases(sources, [pair for ia, ib in pairs for pair in ((ia, ib), (ib, ia))])
    checked = [(k, k) for k in range(min(count, 9))]
    stacks = [modp.identity(int(fam.dims[k]))[None] for k, _ in checked]
    for (ia, ib), homs, backs in zip(pairs, found[::2], found[1::2]):
        checked += [(ia, ib), (ia, ia)]
        composites = backs[None] @ homs[:, None] % p  # composites[f, g] = g.f
        stacks += [homs, composites.reshape(-1, *composites.shape[2:])]
    faults = iter(morphism_faults(fam, checked, stacks))
    for label, _, _ in samples[:9]:
        record("functoriality", f"F(id_{label}) = id", next(faults)[0] is None)
    for (ia, ib), backs in zip(pairs, found[1::2]):
        la, lb = samples[ia][0], samples[ib][0]
        moved, composed = next(faults), iter(next(faults))
        for fault in moved:
            record("functoriality", f"F on hom {la} -> {lb}", fault is None)
            for _ in backs:
                record(
                    "functoriality",
                    f"F(g.f) = F(g).F(f) on {la} -> {lb} -> {la}",
                    next(composed) is None,
                    "the composite matrix must intertwine over the target",
                )
    cert.passed = all(ch.passed for ch in cert.checks)
    return cert
