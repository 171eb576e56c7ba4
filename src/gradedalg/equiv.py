"""The equivalence machinery between A-gr and T(b(A))-gr.

The functor Phi repackages a graded module M over A as a module over the
trivial extension t(A) = b(A) |x x(A): the new slice n is the stack of the
old slices nc .. (n+1)c-1, acted on by block matrices on column vectors.
With the upper-triangular block orientation used in construct, degree
bookkeeping forces the old slice nc+r into column component c-1-r (the
component index decreases as the inner degree rises); Psi reads components
back off the diagonal idempotents with the same reflection, which makes
Psi . Phi the identity on the nose, tables included.  Both take t(A) from
``t_of(a)``, which is built once per algebra, so their modules live over
the very algebra object that theorem_pipeline uses.

The hypotheses of the theorem (A_0 basic, A well-graded, A graded
self-injective) are decided in one place, _require_hypotheses.  A_0, the
self-injectivity certificate and the other facts of an algebra alone are
cached on it, so later calls on the same algebra object reuse them.

extract_sigma realizes the dual of the degree-1 part of a well-graded
self-injective trivial extension as a twisted regular bimodule: it hunts
for a generator m of D(X) whose two multiplication maps B -> D(X) are
bijective, reads off sigma = L_m^{-1} R_m, and dualizes to an explicit
bimodule isomorphism X -> D(B^sigma).

_transport moves a graded module to another algebra by a change of algebra
basis per degree slice. It moves modules both ways along the isomorphism of
categories T(B)-gr = T(B^sigma)-gr, where on degree n the degree-0 part acts
through sigma^n and the dual part through precomposition with sigma^{-n}; with
h : t(A) -> T(B^sigma) folded in, it carries the functor F and its inverse.

theorem_pipeline composes everything into an equivalence
F : A-gr -> T(b(A))-gr and certifies it on a finite sample set: exact
round trips, hom-dimension equality on all pairs, preservation of
projectives and injectives, and functoriality on hom bases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import modp
from .algebra import (
    Bimodule,
    GradedAlgebra,
    degree_zero_subalgebra,
    dual_bimodule_of,
    intertwine_fault,
    is_basic,
    is_left_well_graded,
    is_right_well_graded,
)
from .construct import (
    AlgebraAutomorphism,
    T_of,
    T_twisted,
    block_layout,
    t_of,
    twisted_dual_bimodule,
)
from .errors import (
    AlgebraMismatch,
    CheckFailed,
    GeneratorNotFound,
    NotAutomorphism,
    PreconditionFailed,
    TrivialGrading,
)
from .modules import (
    GradedModule,
    GradedMorphism,
    hom_basis,
    hom_dim,
    inj,
    is_projective,
    proj,
    shift,
    simple,
)
from .selfinj import is_graded_selfinjective


# ---------------------------------------------------------------------------
# the functors Phi and Psi


def phi(a: GradedAlgebra, m: GradedModule) -> GradedModule:
    """Repackage a graded A-module as a graded module over t_of(a).

    The underlying basis and its order are kept; only degrees are retagged
    and the action is re-read through the block layout, so the functor is
    the identity on morphism matrices.
    """
    c = a.top_degree()
    if c < 1:
        raise TrivialGrading("phi needs a nontrivially graded source")
    if not m.algebra.same_as(a):
        raise AlgebraMismatch("module is not over the given algebra")
    t = t_of(a)
    b_index, x_index = block_layout(a)
    nb = len(b_index)
    comp = (c - 1 - (m.degrees % c)) % c
    new_degrees = m.degrees // c
    action = modp.zeros(t.dim, m.dim, m.dim)
    for pos, (r, s, j) in enumerate(b_index):
        cols = comp == s
        action[pos][:, cols] = m.action[j][:, cols]
    for pos, (r, s, j) in enumerate(x_index):
        cols = comp == s
        action[nb + pos][:, cols] = m.action[j][:, cols]
    return GradedModule(t, new_degrees, action)


def _component_projectors(a: GradedAlgebra, n: GradedModule):
    c = a.top_degree()
    b_index, _ = block_layout(a)
    bpos = {key: i for i, key in enumerate(b_index)}
    projs = []
    for q in range(c):
        e = modp.zeros(n.algebra.dim)
        for j in a.degree_indices(0):
            e[bpos[(q, q, int(j))]] = a.unit[j]
        projs.append(n.act(e))
    return projs


def psi(a: GradedAlgebra, n: GradedModule) -> GradedModule:
    """Unpack a graded module over t_of(a) into a graded A-module.

    When every basis vector of ``n`` lies in a single diagonal component
    (always the case for images of phi and for the projectives built here),
    the basis and its order are kept and psi inverts phi exactly; otherwise
    the module is first rewritten in a component-adapted basis.
    """
    c = a.top_degree()
    if c < 1:
        raise TrivialGrading("psi needs a nontrivially graded target")
    if not n.algebra.same_as(t_of(a)):
        raise AlgebraMismatch("module is not over t(A)")
    if n.dim == 0:
        return GradedModule(a, n.degrees, modp.zeros(a.dim, 0, 0))
    projs = _component_projectors(a, n)
    comp = _read_components(projs, n.dim)
    if comp is None:
        return psi(a, _adapt_basis(n, projs))
    b_index, x_index = block_layout(a)
    bpos = {key: i for i, key in enumerate(b_index)}
    xpos = {key: i for i, key in enumerate(x_index)}
    nb = len(b_index)
    new_degrees = n.degrees * c + (c - 1 - comp)
    action = modp.zeros(a.dim, n.dim, n.dim)
    for j in range(a.dim):
        dj = int(a.degrees[j])
        for q in range(c):
            cols = comp == q
            if not np.any(cols):
                continue
            if dj <= q:
                g = bpos[(q - dj, q, j)]
            else:
                g = nb + xpos[(q - dj + c, q, j)]
            action[j][:, cols] = n.action[g][:, cols]
    return GradedModule(a, new_degrees, action)


def _read_components(projs, dim: int) -> Optional[np.ndarray]:
    """Component index per basis vector, or None if the basis is not adapted."""
    comp = np.full(dim, -1, dtype=np.int64)
    for q, pq in enumerate(projs):
        diag = np.einsum("tt->t", pq)
        ones = np.nonzero(diag == 1)[0]
        expected = modp.zeros(*pq.shape)
        expected[ones, ones] = 1
        if not np.array_equal(pq, expected):
            return None
        comp[ones] = q
    if np.any(comp < 0):
        return None
    return comp


def _adapt_basis(n: GradedModule, projs) -> GradedModule:
    """Rewrite ``n`` in a basis where each vector sits in one diagonal component."""
    p = n.p
    rows = []
    degs = []
    for g in sorted(set(int(x) for x in n.degrees)):
        cols = n.slice_indices(g)
        for pq in projs:
            block, _ = modp.row_basis(pq[:, cols].T, p)
            rows.extend(block)
            degs.extend([g] * block.shape[0])
    E = np.array(rows) % p
    if E.shape[0] != n.dim:
        raise CheckFailed("component splitting did not produce a basis")
    Et = E.T
    Et_inv = modp.invert(Et, p)
    if Et_inv is None:
        raise CheckFailed("component splitting did not produce a basis")
    action = ((np.einsum("ab,ibc->iac", Et_inv, n.action) % p) @ Et) % p
    return GradedModule(n.algebra, np.array(degs, dtype=np.int64), action)


# ---------------------------------------------------------------------------
# the hypotheses of the theorem


def _require_hypotheses(a: GradedAlgebra, basic: str, basic_detail: str) -> None:
    """Raise PreconditionFailed unless the degree-0 part of a is basic and a
    is well-graded and graded self-injective; ``basic`` names the first hypothesis."""
    if not is_basic(degree_zero_subalgebra(a)):
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


def split_trivial_extension(t: GradedAlgebra) -> tuple[GradedAlgebra, Bimodule, np.ndarray, np.ndarray]:
    """Degree-0 subalgebra B and degree-1 bimodule X of an algebra with c = 1."""
    if t.top_degree() != 1:
        raise PreconditionFailed("trivial-extension-shape", f"top degree is {t.top_degree()}, not 1")
    zero_idx = t.degree_indices(0)
    one_idx = t.degree_indices(1)
    b = degree_zero_subalgebra(t)
    grid = np.ix_(one_idx, one_idx)
    left = np.array([t.left[j][grid] for j in zero_idx])
    right = np.array([t.right[j][grid] for j in zero_idx])
    x = Bimodule(b, [t.names[i] for i in one_idx], left, right)
    return b, x, zero_idx, one_idx


def extract_sigma(t: GradedAlgebra, seed: int = 0, trials: int = 128) -> SigmaExtraction:
    """Realize a well-graded self-injective B |x X as a twisted trivial extension.

    Finds a generator m of D(X) whose left and right multiplication maps
    B -> D(X) are bijective (seeded random trials, then a deterministic
    sweep over small sums of dual basis vectors), sets
    sigma(b) = L_m^{-1}(m b), and returns the dualized bimodule isomorphism
    X -> D(B^sigma).  All claims are re-verified before returning.
    """
    b, x, _, _ = split_trivial_extension(t)
    _require_hypotheses(t, "B-basic", "degree-0 part is not basic")
    p = b.p
    if x.dim != b.dim:
        raise GeneratorNotFound(f"dim X = {x.dim} differs from dim B = {b.dim}")
    dual = dual_bimodule_of(x)

    def maps_of(m_vec):
        lm = ((dual.left_action @ m_vec) % p).T
        rm = ((dual.right_action @ m_vec) % p).T
        return lm, rm

    rng = np.random.default_rng(seed)
    candidate = None
    trials_used = 0
    for _ in range(trials):
        trials_used += 1
        m_vec = rng.integers(0, p, size=x.dim, dtype=np.int64)
        lm, rm = maps_of(m_vec)
        lm_inv = modp.invert(lm, p)
        if lm_inv is not None and modp.invert(rm, p) is not None:
            candidate = (m_vec, lm, rm, lm_inv)
            break
    if candidate is None:
        for size in (1, 2, 3):
            for combo in itertools.combinations(range(x.dim), size):
                trials_used += 1
                m_vec = modp.zeros(x.dim)
                m_vec[list(combo)] = 1
                lm, rm = maps_of(m_vec)
                lm_inv = modp.invert(lm, p)
                if lm_inv is not None and modp.invert(rm, p) is not None:
                    candidate = (m_vec, lm, rm, lm_inv)
                    break
            if candidate:
                break
    if candidate is None:
        raise GeneratorNotFound("no generator with bijective multiplication maps")
    m_vec, lm, rm, lm_inv = candidate
    sigma_mat = (lm_inv @ rm) % p
    sigma = AlgebraAutomorphism(b, sigma_mat)
    try:
        sigma.validate()
    except NotAutomorphism as exc:  # post-condition of the construction; never expected
        raise CheckFailed(f"extracted map is not an automorphism: {exc}") from exc
    if not np.array_equal((lm @ sigma_mat) % p, rm):
        raise CheckFailed("m b != sigma(b) m on the basis")
    theta = lm.T % p
    twisted = twisted_dual_bimodule(b, sigma)
    i = intertwine_fault(theta, x.left_action, twisted.left_action, p)
    if i is not None:
        raise CheckFailed(f"iso does not intertwine the left action at {b.names[i]}")
    i = intertwine_fault(theta, x.right_action, twisted.right_action, p)
    if i is not None:
        raise CheckFailed(f"iso does not intertwine the right action at {b.names[i]}")
    return SigmaExtraction(b, sigma, m_vec, theta, trials_used)


# ---------------------------------------------------------------------------
# Lemma-2.1 style transport between T(B)-gr and T(B^sigma)-gr


def _transport(
    m: GradedModule, target: GradedAlgebra, change: Callable[[int], np.ndarray]
) -> GradedModule:
    """Move ``m`` to ``target``: on the degree-g slice, target basis element i
    acts as sum_k change(g)[k, i] * m.action[k]."""
    new = modp.zeros(target.dim, m.dim, m.dim)
    for g in sorted(set(int(x) for x in m.degrees)):
        cols = m.slice_indices(g)
        new[:, :, cols] = np.einsum("ki,kab->iab", change(g), m.action[:, :, cols]) % m.p
    return GradedModule(target, m.degrees, new)


def _twist(sigma: AlgebraAutomorphism, g: int) -> np.ndarray:
    """diag(sigma^g, (sigma^{-g})^T): b acts as sigma^g(b), f as f . sigma^{-g}."""
    nb = sigma.algebra.dim
    out = modp.zeros(2 * nb, 2 * nb)
    out[:nb, :nb] = sigma.power(g)
    out[nb:, nb:] = sigma.power(-g).T
    return out


def twist_transport(
    b: GradedAlgebra, sigma: AlgebraAutomorphism, m: GradedModule
) -> GradedModule:
    """Move a graded T(B)-module to the twisted trivial extension T(B^sigma)."""
    sigma.validate()
    tb = T_of(b)
    if not m.algebra.same_as(tb):
        raise AlgebraMismatch("module is not over T(B)")
    out = _transport(m, T_twisted(b, sigma), lambda g: _twist(sigma, g))
    out.validate()
    return out


def twist_transport_back(
    b: GradedAlgebra, sigma: AlgebraAutomorphism, m: GradedModule
) -> GradedModule:
    """Inverse direction T(B^sigma)-gr -> T(B)-gr (transport with sigma^{-1})."""
    out = _transport(m, T_of(b), lambda g: _twist(sigma, -g))
    out.validate()
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
    A_0 basic, A well-graded, A graded self-injective, and a sample window
    of at least 0 (a negative one leaves no samples to check).  Any failed
    certificate check afterwards raises CheckFailed: with the preconditions
    satisfied a failure indicates a bug, not a property of the input.
    """
    if window is not None and window < 0:
        raise PreconditionFailed("samples-window", f"window {window} leaves no samples")
    c = a.top_degree()
    if c < 1:
        raise PreconditionFailed("nontrivial-grading", "top degree is 0")
    _require_hypotheses(a, "A0-basic", "degree-0 component is not basic")

    t = t_of(a)
    ext = extract_sigma(t, seed=seed)
    b = ext.base
    sigma = ext.sigma
    tb = T_of(b)
    t_twist = T_twisted(b, sigma)
    p = a.p

    nb = b.dim
    h = modp.zeros(t.dim, t.dim)
    h[:nb, :nb] = modp.identity(nb)
    h[nb:, nb:] = ext.iso
    h_inv = modp.invert(h, p)
    if h_inv is None:
        raise CheckFailed("transport matrix is singular")
    # h must be an isomorphism of algebras T -> T(B^sigma)
    i = intertwine_fault(h, t.left, np.einsum("ki,kab->iab", h, t_twist.left) % p, p)
    if i is not None:
        raise CheckFailed(f"transport is not multiplicative at {t.names[i]}")

    # F: Phi, then h^{-1} and the twist back to T(B) on each slice; G undoes both
    def functor(m: GradedModule) -> GradedModule:
        return _transport(phi(a, m), tb, lambda g: (h_inv @ _twist(sigma, -g)) % p)

    def inverse_functor(m: GradedModule) -> GradedModule:
        return psi(a, _transport(m, t, lambda g: (_twist(sigma, g) @ h) % p))

    w = c if window is None else int(window)
    samples: list[tuple[str, GradedModule, str]] = []
    bases: list[GradedModule] = []
    origin: list[tuple[int, int]] = []  # (index in bases, shift) of each sample
    for i in range(a.n_idempotents):
        k = len(bases)
        bases += [proj(a, i), simple(a, i), inj(a, i)]
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

    def record(family: str, name: str, passed: bool, detail: str = "", transcript=None):
        cert.checks.append(SampleCheck(family, name, passed, detail))
        if not passed:
            raise CheckFailed(
                f"{family}: {name} failed ({detail})",
                {"certificate": cert.to_dict(), "counterexample": transcript},
            )

    tb_selfinj = is_graded_selfinjective(tb)
    record(
        "target",
        "T(b(A)) graded self-injective",
        tb_selfinj.holds,
        "injectivity over the target is tested via projectivity",
    )

    images = []
    for label, m, kind in samples:
        fm = functor(m)
        fm.validate()
        images.append(fm)
        back = inverse_functor(fm)
        record(
            "round-trip",
            label,
            back.equals(m),
            "G(F(M)) != M",
            transcript={"sample": label, "module": m.to_dict(), "returned": back.to_dict()},
        )

    # Hom(M(d), N(d')) = Hom(M, N(d' - d)), so the source side is keyed on
    # the relative shift.  The endomorphism keys go first: they adapt each
    # base module once, and its shifts keep that basis.  F(M(d)) is only
    # isomorphic to a shift of F(M), so every image pair is solved on its own.
    by_shift = {(k, k, 0): hom_dim(base, base) for k, base in enumerate(bases)}
    src_dims = {}
    for ia, ((la, _, _), fa) in enumerate(zip(samples, images)):
        for ib, ((lb, _, _), fb) in enumerate(zip(samples, images)):
            (ka, da), (kb, db) = origin[ia], origin[ib]
            key = (ka, kb, db - da)
            if key not in by_shift:
                by_shift[key] = hom_dim(bases[ka], shift(bases[kb], db - da))
            src_dims[ia, ib] = d_src = by_shift[key]
            d_img = hom_dim(fa, fb)
            record(
                "hom-dim",
                f"{la} -> {lb}",
                d_src == d_img,
                f"{d_src} vs {d_img}",
            )

    for (label, m, kind), fm in zip(samples, images):
        if kind == "projective":
            record("preservation", f"F({label}) projective", is_projective(fm))
        elif kind == "injective":
            record(
                "preservation",
                f"F({label}) injective",
                is_projective(fm),
                "projectivity = injectivity over the self-injective target",
            )

    # functoriality: the functor is the identity on morphism matrices, so
    # F(id) = id and F(g.f) = F(g)F(f) hold as matrix identities; the content
    # checked here is that identities, transported hom bases, and composites
    # are still morphisms between the image modules.
    def is_morphism(src: GradedModule, tgt: GradedModule, matrix) -> bool:
        try:
            GradedMorphism(src, tgt, matrix).validate()
            return True
        except CheckFailed:
            return False

    for (label, m, kind), fm in list(zip(samples, images))[:9]:
        record("functoriality", f"F(id_{label}) = id", is_morphism(fm, fm, modp.identity(fm.dim)))
    pairs_checked = 0
    for ia, (la, ma, _) in enumerate(samples):
        if pairs_checked >= 6:
            break
        for ib, (lb, mb, _) in enumerate(samples):
            if ia == ib or not src_dims[ia, ib] or not src_dims[ib, ia]:
                continue
            homs = hom_basis(ma, mb)
            back = hom_basis(mb, ma)
            pairs_checked += 1
            for f in homs:
                record(
                    "functoriality",
                    f"F on hom {la} -> {lb}",
                    is_morphism(images[ia], images[ib], f.matrix),
                )
                for g in back:
                    composed = (g.matrix @ f.matrix) % p
                    record(
                        "functoriality",
                        f"F(g.f) = F(g).F(f) on {la} -> {lb} -> {la}",
                        is_morphism(images[ia], images[ia], composed),
                        "the composite matrix must intertwine over the target",
                    )
            break
    cert.passed = all(ch.passed for ch in cert.checks)
    return cert
