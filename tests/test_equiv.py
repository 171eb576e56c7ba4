import gc
from collections import Counter

import numpy as np
import pytest

from gradedalg import corpus, modp
from gradedalg.algebra import (
    degree_zero_subalgebra,
    generators,
    is_left_well_graded,
    radical,
    semisimple_quotient,
)
from gradedalg.construct import AlgebraAutomorphism, T_of, block_layout, t_of
from gradedalg.equiv import (
    extract_sigma,
    phi,
    psi,
    split_trivial_extension,
    theorem_pipeline,
    twist_transport,
    twist_transport_back,
)
from gradedalg.errors import CheckFailed, PreconditionFailed, TrivialGrading
from gradedalg.modules import (
    GradedModule,
    _proj_arrays,
    hom_basis,
    hom_dim,
    inj,
    proj,
    regular_module,
    simple,
    simple_classes,
    width,
    zero_module,
)
from gradedalg.selfinj import is_graded_selfinjective


def labelled_samples(a, window=None):
    """The pipeline's samples with their labels, in the pipeline's order."""
    w = a.top_degree() if window is None else window
    out = []
    for i in range(a.n_idempotents):
        for d in range(-w, w + 1):
            out += [
                (f"Ae_{i}({d})", proj(a, i, d)),
                (f"S_{i}({d})", simple(a, i, d)),
                (f"D(e_{i}A)({d})", inj(a, i, d)),
            ]
    return out


def sample_set(a, window=None):
    return [m for _, m in labelled_samples(a, window)]


def test_phi_slice_dims(truncated, exterior2):
    a = truncated(3)
    f = phi(a, regular_module(a))
    assert f.slice_dims() == {0: 2, 1: 1}
    g = phi(exterior2, regular_module(exterior2))
    assert g.slice_dims() == {0: 3, 1: 1}


def test_phi_zero(truncated):
    a = truncated(3)
    assert phi(a, zero_module(a)).dim == 0


def test_phi_needs_grading(uppertri):
    with pytest.raises(TrivialGrading):
        phi(uppertri(2), regular_module(uppertri(2)))


def test_round_trip_exact(equivalence_corpus):
    for name, a in equivalence_corpus:
        for m in sample_set(a):
            f = phi(a, m)
            f.validate()
            assert psi(a, f).equals(m), name


def test_reverse_round_trip_on_projectives(truncated, exterior2):
    for a in (truncated(3), truncated(4), exterior2):
        t = t_of(a)
        for i in range(t.n_idempotents):
            n = proj(t, i, 0)
            m = psi(a, n)
            m.validate()
            assert width(m) == a.top_degree() + 1
            assert phi(a, m).equals(n)


def test_psi_zero(truncated):
    a = truncated(3)
    t = t_of(a)
    z = zero_module(t)
    assert psi(a, z).dim == 0


def test_phi_preserves_hom_dimensions(equivalence_corpus):
    for name, a in equivalence_corpus[:3]:
        mods = sample_set(a, window=1)
        for m in mods:
            for n in mods:
                assert hom_dim(m, n) == hom_dim(phi(a, m), phi(a, n)), name


def test_phi_identity_on_morphisms(truncated):
    a = truncated(3)
    m = regular_module(a)
    n = inj(a, 0, -2)
    fm, fn = phi(a, m), phi(a, n)
    for f in hom_basis(m, n):
        from gradedalg.modules import GradedMorphism

        moved = GradedMorphism(fm, fn, f.matrix)
        moved.validate()  # the same matrix intertwines over t(A)


def test_psi_on_component_mixed_basis(truncated):
    # conjugate Phi(regular) by a degree-preserving change mixing components;
    # psi must still produce a valid module of the right shape
    a = truncated(3)
    t = t_of(a)
    f = phi(a, regular_module(a))
    rng = np.random.default_rng(7)
    d = f.dim
    while True:
        g = modp.identity(d)
        cols0 = f.slice_indices(0)
        g[np.ix_(cols0, cols0)] = rng.integers(0, a.p, size=(cols0.size, cols0.size))
        if modp.invert(g, a.p) is not None:
            break
    ginv = modp.invert(g, a.p)
    mixed = GradedModule(t, f.degrees, np.einsum("ab,ibc,cd->iad", ginv, f.action, g) % a.p)
    mixed.validate()
    m = psi(a, mixed)
    m.validate()
    assert sorted(m.degrees.tolist()) == sorted(regular_module(a).degrees.tolist())


def test_well_graded_biconditional_with_extension(graded_corpus):
    for name, a in graded_corpus:
        t = t_of(a)
        assert is_left_well_graded(a)[0] == is_left_well_graded(t)[0], name


def test_split_trivial_extension_roundtrip(truncated):
    a = truncated(3)
    t = t_of(a)
    b, x, zero_idx, one_idx = split_trivial_extension(t)
    assert b.dim + x.dim == t.dim
    x.validate()
    assert b.top_degree() == 0


def test_extract_sigma_soundness(equivalence_corpus):
    for name, a in equivalence_corpus:
        t = t_of(a)
        ext = extract_sigma(t, seed=0)
        b = ext.base
        s = ext.sigma.matrix
        p = b.p
        # multiplicative on all basis pairs and unit-fixing (validate re-checks)
        ext.sigma.validate()
        # m b = sigma(b) m for every basis b
        from gradedalg.algebra import dual_bimodule_of

        _, x, _, _ = split_trivial_extension(t)
        dual = dual_bimodule_of(x)
        for i in range(b.dim):
            lhs = dual.act_right(modp.identity(b.dim)[i]) @ ext.generator % p
            rhs = dual.act_left(s[:, i]) @ ext.generator % p
            assert np.array_equal(lhs, rhs), name


def test_extract_sigma_deterministic(truncated):
    t = t_of(truncated(4))
    e1 = extract_sigma(t, seed=3)
    e2 = extract_sigma(t, seed=3)
    assert np.array_equal(e1.sigma.matrix, e2.sigma.matrix)
    assert np.array_equal(e1.generator, e2.generator)


def test_extract_sigma_rejects_bad_input(a4, truncated):
    with pytest.raises(PreconditionFailed) as err:
        extract_sigma(t_of(a4))
    assert err.value.hypothesis == "well-graded"
    with pytest.raises(PreconditionFailed):
        extract_sigma(truncated(3))  # c = 2, not a trivial extension shape


def test_twist_transport_identity(truncated):
    b = degree_zero_subalgebra(t_of(truncated(3)))
    tb = T_of(b)
    ident = AlgebraAutomorphism.identity(b)
    for i in range(tb.n_idempotents):
        m = proj(tb, i, 0)
        assert np.array_equal(twist_transport(b, ident, m).action, m.action)


def test_twist_transport_degree_zero_concentration(truncated):
    # on a module concentrated in degree 0 nothing is twisted
    b = degree_zero_subalgebra(t_of(truncated(3)))
    tb = T_of(b)
    t = t_of(truncated(3))
    ext = extract_sigma(t)
    m = simple(tb, 0, 0)
    assert set(m.degrees.tolist()) == {0}
    out = twist_transport(b, ext.sigma, m)
    assert np.array_equal(out.action, m.action)


def test_twist_transport_round_trip(truncated, exterior2):
    for a in (truncated(3), exterior2):
        t = t_of(a)
        ext = extract_sigma(t)
        b = ext.base
        tb = T_of(b)
        for i in range(tb.n_idempotents):
            for d in (-1, 0, 2):
                m = proj(tb, i, d)
                fw = twist_transport(b, ext.sigma, m)
                fw.validate()
                assert twist_transport_back(b, ext.sigma, fw).equals(m)


def test_pipeline_counts_and_certificate(truncated):
    cert = theorem_pipeline(truncated(3))
    assert cert.passed
    assert len(cert.samples) == 15
    counts = Counter(c.family for c in cert.checks)
    assert counts == {
        "target": 1, "round-trip": 15, "hom-dim": 225, "preservation": 10, "functoriality": 21,
    }
    d = cert.to_dict()
    assert d["passed"] and len(d["checks"]) == len(cert.checks)


def test_pipeline_hom_dims_and_functoriality_match_hom_basis(
    truncated, product_of_duals, rebased_nakayama32
):
    # oracle: the source hom dimensions from full kernel bases, and the
    # functoriality checks on the first six samples with maps both ways
    for a in (truncated(3), product_of_duals, rebased_nakayama32):
        cert = theorem_pipeline(a)
        samples = labelled_samples(a)
        homs = {(la, lb): hom_basis(m, n) for la, m in samples for lb, n in samples}
        got = [c.detail.split(" vs ")[0] for c in cert.checks if c.family == "hom-dim"]
        assert got == [str(len(homs[la, lb])) for la, _ in samples for lb, _ in samples]
        want = [f"F(id_{la}) = id" for la, _ in samples[:9]]
        pairs = 0
        for la, _ in samples:
            if pairs == 6:
                break
            both_ways = [lb for lb, _ in samples if lb != la and homs[la, lb] and homs[lb, la]]
            if not both_ways:
                continue
            pairs += 1
            lb = both_ways[0]
            for _ in homs[la, lb]:
                want.append(f"F on hom {la} -> {lb}")
                want += [f"F(g.f) = F(g).F(f) on {la} -> {lb} -> {la}"] * len(homs[lb, la])
        got = [c.name for c in cert.checks if c.family == "functoriality"]
        assert got == want


def test_pipeline_rejects_product(a4):
    with pytest.raises(PreconditionFailed) as err:
        theorem_pipeline(a4)
    assert err.value.hypothesis == "well-graded"
    assert "0" in err.value.detail


def test_pipeline_rejects_right_ill_graded(left_only_well_graded):
    with pytest.raises(PreconditionFailed) as err:
        theorem_pipeline(left_only_well_graded)
    assert err.value.hypothesis == "well-graded"
    assert err.value.detail == "right witness idempotent 1"


def test_pipeline_rejects_trivially_graded(uppertri):
    with pytest.raises(PreconditionFailed) as err:
        theorem_pipeline(uppertri(2))
    assert err.value.hypothesis == "nontrivial-grading"


def test_pipeline_window_override(truncated):
    cert = theorem_pipeline(truncated(2), window=2)
    assert cert.passed
    assert len(cert.samples) == 3 * 1 * 5


def test_pipeline_two_idempotents(product_of_duals):
    cert = theorem_pipeline(product_of_duals)
    assert cert.passed
    assert len(cert.samples) == 3 * 2 * 3


def test_twisted_extension_round_trip(swap_twisted_extension):
    from gradedalg.selfinj import graded_nakayama

    tw = swap_twisted_extension
    # the Nakayama permutation of the swap-twisted extension is the swap
    nd = graded_nakayama(tw)
    assert nd.permutation == [1, 0]
    assert nd.shifts == [-1, -1]
    # sigma extraction recovers the swap on the degree-0 part
    ext = extract_sigma(tw)
    assert np.array_equal(ext.sigma.matrix, np.array([[0, 1], [1, 0]]))
    cert = theorem_pipeline(tw)
    assert cert.passed
    counts = Counter(c.family for c in cert.checks)
    assert counts == {
        "target": 1, "round-trip": 18, "hom-dim": 324, "preservation": 12, "functoriality": 21,
    }


def test_extract_sigma_deterministic_fallback(truncated):
    # with no random trials the deterministic sweep must still find a generator
    t = t_of(truncated(3))
    ext = extract_sigma(t, trials=0)
    ext.sigma.validate()


def test_pipeline_two_idempotents_top_degree_two(product_c2):
    cert = theorem_pipeline(product_c2)
    assert cert.passed
    assert len(cert.samples) == 3 * 2 * 5


def test_pipeline_nonsplit_endomorphism_field(nonsplit_dual_numbers):
    from gradedalg.modules import top, top_summands
    from gradedalg.selfinj import graded_nakayama

    a = nonsplit_dual_numbers
    # End(S) = F_{p^2}: the top of Ae is 2-dimensional and one summand
    m = proj(a, 0)
    summands, lifts = top_summands(m)
    assert top(m).dim == 2 and summands == [(0, 0)] and len(lifts) == 1
    nd = graded_nakayama(a)
    assert nd.permutation == [0] and nd.shifts == [-1]
    cert = theorem_pipeline(a)
    assert cert.passed


def test_pipeline_records_a_failed_morphism_check(truncated, monkeypatch):
    # a morphism check that raises CheckFailed is a failed functoriality check
    from gradedalg.modules import GradedMorphism

    def refuse(self):
        raise CheckFailed("refused")

    monkeypatch.setattr(GradedMorphism, "validate", refuse)
    with pytest.raises(CheckFailed, match=r"^functoriality: F\(id_") as err:
        theorem_pipeline(truncated(2))
    checks = err.value.transcript["certificate"]["checks"]
    assert checks[-1]["family"] == "functoriality" and not checks[-1]["passed"]


def test_t_of_and_phi_share_one_extension(truncated):
    a = truncated(4)
    assert t_of(a) is t_of(a)
    assert phi(a, regular_module(a)).algebra is t_of(a)


def _decide_every_cached_fact():
    """Call every cached function on a fresh k[x]/(x^3), its t(A) and sigma."""
    a = corpus.truncated_poly(3)
    t = t_of(a)
    for alg in (a, t):
        alg.left, alg.right
        radical(alg), generators(alg), semisimple_quotient(alg), simple_classes(alg)
        degree_zero_subalgebra(alg), is_graded_selfinjective(alg)
        [_proj_arrays(alg, i) for i in range(alg.n_idempotents)]
    block_layout(a)
    sigma = extract_sigma(t).sigma
    sigma.power(2), sigma.power(-3)


def test_cached_facts_make_no_reference_cycles():
    # a cached value that refers back to its object would leave a cycle for
    # the collector; the warm-up lets numpy build its own cyclic helpers first
    _decide_every_cached_fact()
    gc.collect()
    gc.disable()
    try:
        _decide_every_cached_fact()
        assert gc.collect() == 0
    finally:
        gc.enable()
