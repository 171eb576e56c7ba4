import gc
import re
from collections import Counter

import numpy as np
import pytest

from gradedalg import construct, corpus, equiv, modp, modules
from gradedalg.algebra import (
    Bimodule,
    degree_zero_subalgebra,
    generators,
    intertwine_fault,
    is_left_well_graded,
    radical,
    semisimple_quotient,
)
from gradedalg.construct import AlgebraAutomorphism, T_of, block_layout, t_of, trivial_extension
from gradedalg.equiv import (
    SigmaExtraction,
    _sigma_of,
    _transports,
    _twist,
    extract_sigma,
    phi,
    psi,
    split_trivial_extension,
    theorem_pipeline,
)
from gradedalg.errors import ActionFault, CheckFailed, GeneratorNotFound, PreconditionFailed, TrivialGrading
from gradedalg.modules import (
    GradedModule,
    ModuleFamily,
    _injectives,
    _projectives,
    cover_maps,
    hom_bases,
    hom_basis,
    hom_dims,
    inj,
    module_faults,
    proj,
    regular_module,
    shift,
    simple,
    simple_classes,
    tops,
    width,
    zero_module,
)
from gradedalg.selfinj import frobenius_functional_search, global_dimension, is_graded_selfinjective
from helpers import (
    T_twisted,
    act_left,
    act_right,
    algebra_map_fault,
    dual_bimodule_of,
    left_mult,
    pair_morphism_faults,
    right_mult,
    validate_morphism,
)


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
        images = [phi(a, m) for m in mods]
        entries = [(k, l, 0) for k in range(len(mods)) for l in range(len(mods))]
        want = hom_dims(ModuleFamily.of(a, mods), entries)
        assert hom_dims(ModuleFamily.of(t_of(a), images), entries) == want, name


def test_phi_identity_on_morphisms(truncated):
    a = truncated(3)
    m = regular_module(a)
    n = inj(a, 0, -2)
    fm, fn = phi(a, m), phi(a, n)
    for f in hom_basis(m, n):
        from gradedalg.modules import GradedMorphism

        moved = GradedMorphism(fm, fn, f.matrix)
        validate_morphism(moved)  # the same matrix intertwines over t(A)


def adapted(a, n):
    """Whether every basis vector of a module over t(A) lies in one component."""
    return bool(equiv._components(a, ModuleFamily.of(n.algebra, [n]))[1][0])


def is_projective(m):
    return cover_maps(ModuleFamily.of(m.algebra, [m]))[0][1].shape[1] == m.dim


def test_psi_on_component_mixed_basis(graded_corpus, monkeypatch):
    # conjugate Phi(regular) by a random invertible block on every degree
    # slice, which mixes the components; psi must give back the regular
    # module up to isomorphism, and a projective is determined by its top.
    # psi rewrites such a module in its split basis once and reads the
    # components again: every vector of that basis lies in one component, of
    # the same degrees
    rng = np.random.default_rng(7)
    calls = []
    real_components = equiv._components
    monkeypatch.setattr(
        equiv, "_components", lambda a, fam: calls.append(fam.modules()[0]) or real_components(a, fam)
    )
    unadapted = 0
    for name, a in graded_corpus:
        r = regular_module(a)
        f = phi(a, r)
        g = modp.zeros(f.dim, f.dim)
        for deg in np.unique(f.degrees):
            cols = np.flatnonzero(f.degrees == deg)
            while True:
                block = rng.integers(0, a.p, size=(cols.size, cols.size))
                if modp.invert(block, a.p) is not None:
                    break
            g[np.ix_(cols, cols)] = block
        ginv = modp.invert(g, a.p)
        mixed = GradedModule(f.algebra, f.degrees, np.einsum("ab,ibc,cd->iad", ginv, f.action, g) % a.p)
        mixed.validate()
        mixes = not adapted(a, mixed)
        unadapted += mixes
        calls.clear()
        m = equiv.psi(a, mixed)
        m.validate()
        assert calls[0].equals(mixed) and len(calls) == 1 + mixes, name  # one rewrite, if any
        for n in calls[1:]:
            assert adapted(a, n), name
            assert sorted(n.degrees.tolist()) == sorted(mixed.degrees.tolist()), name
        assert sorted(m.degrees.tolist()) == sorted(r.degrees.tolist()), name
        (got, K), (want, _) = cover_maps(ModuleFamily.of(a, [m, r]))
        assert K.shape[1] == m.dim and Counter(got) == Counter(want), name
    assert unadapted


def test_psi_refuses_a_module_the_split_leaves_unadapted(truncated):
    # doubling the action of Ae_0 over t(k[x]/(x^3)) makes every diagonal
    # unit act as twice a projection: the split basis is no better, so psi
    # names the member instead of rewriting it again and again, alone and in
    # a family after an adapted member
    a = truncated(3)
    t = t_of(a)
    m = proj(t, 0)
    doubled = GradedModule(t, m.degrees, 2 * m.action % a.p)
    assert not adapted(a, doubled)
    want = r"^the split basis is not adapted to the components of t\(A\) \(member {}\)$"
    with pytest.raises(CheckFailed, match=want.format(0)):
        psi(a, doubled)
    with pytest.raises(CheckFailed, match=want.format(1)):
        equiv.psis(a, ModuleFamily.of(t, [m, doubled, doubled]))


def test_psi_rewrite_leaves_the_generators_uncomputed():
    # the split that psi falls back on reads the idempotents of t(A) alone,
    # so unpacking a module that mixes components never needs generators(t(A))
    a = corpus.truncated_poly(3)  # a fresh algebra, and so a fresh t(A)
    f = phi(a, regular_module(a))
    g = modp.identity(f.dim)
    for deg in np.unique(f.degrees):
        cols = np.flatnonzero(f.degrees == deg)
        g[cols[0], cols] = 1  # add every vector of the slice to its first
    ginv = modp.invert(g, a.p)
    mixed = GradedModule(f.algebra, f.degrees, np.einsum("ab,ibc,cd->iad", ginv, f.action, g) % a.p)
    assert not adapted(a, mixed)
    m = psi(a, mixed)
    assert (generators.__wrapped__,) not in f.algebra._cache
    m.validate()
    assert is_projective(m) and sorted(m.degrees.tolist()) == sorted(a.degrees.tolist())


def test_well_graded_biconditional_with_extension(graded_corpus):
    for name, a in graded_corpus:
        t = t_of(a)
        assert is_left_well_graded(a)[0] == is_left_well_graded(t)[0], name


def test_split_trivial_extension_roundtrip(truncated):
    t = t_of(truncated(3))
    b, x = split_trivial_extension(t)
    assert b.dim + x.dim == t.dim
    x.validate()
    assert b.top_degree() == 0
    # B |x X is t again, its basis in the order of degree_indices
    order = np.concatenate([t.degree_indices(0), t.degree_indices(1)])
    back = construct.trivial_extension(b, x)
    assert back.names == [t.names[i] for i in order]
    assert np.array_equal(back.table, t.table[np.ix_(order, order, order)])


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
        _, x = split_trivial_extension(t)
        dual = dual_bimodule_of(x)
        for i in range(b.dim):
            lhs = act_right(dual, modp.identity(b.dim)[i]) @ ext.generator % p
            rhs = act_left(dual, s[:, i]) @ ext.generator % p
            assert np.array_equal(lhs, rhs), name


def test_extract_sigma_deterministic(truncated):
    t = t_of(truncated(4))
    e1 = extract_sigma(t, seed=3)
    e2 = extract_sigma(t, seed=3)
    assert np.array_equal(e1.sigma.matrix, e2.sigma.matrix)
    assert np.array_equal(e1.generator, e2.generator)


def test_library_refuses_a_negative_seed_or_cutoff(truncated):
    # numpy's generators take no negative seed, and a negative cutoff bounds
    # no resolution, so its answer would be vacuous
    a = truncated(3)
    calls = [
        (lambda: extract_sigma(t_of(a), seed=-1), "seed"),
        (lambda: theorem_pipeline(a, seed=-1), "seed"),
        (lambda: frobenius_functional_search(a, seed=-1), "seed"),
        (lambda: global_dimension(a, cutoff=-1), "cutoff"),
    ]
    for call, hypothesis in calls:
        with pytest.raises(PreconditionFailed) as err:
            call()
        assert err.value.hypothesis == hypothesis
    assert global_dimension(a, cutoff=0).to_dict() == {"finite": False, "value": None, "cutoff": 0}


def test_extract_sigma_rejects_bad_input(a4, truncated):
    with pytest.raises(PreconditionFailed) as err:
        extract_sigma(t_of(a4))
    assert err.value.hypothesis == "well-graded"
    with pytest.raises(PreconditionFailed):
        extract_sigma(truncated(3))  # c = 2, not a trivial extension shape


def twisted(b, sigma, fam, sign=1):
    """The family moved along T(B)-gr = T(B^sigma)-gr, or back with sign -1:
    ``_transports`` by ``_twist``, each of whose images must be a module."""
    target = T_twisted(b, sigma) if sign == 1 else T_of(b)
    out = _transports(fam, target, lambda g: _twist(sigma, sign * g))
    assert module_faults(out) == [None] * fam.dims.size
    return out


def test_twist_transport_identity(truncated):
    b = degree_zero_subalgebra(t_of(truncated(3)))
    tb = T_of(b)
    ident = AlgebraAutomorphism(b, modp.identity(b.dim)).validate()
    fam = ModuleFamily.of(tb, [proj(tb, i, 0) for i in range(tb.n_idempotents)])
    assert np.array_equal(twisted(b, ident, fam).action, fam.action)


def test_twist_transport_degree_zero_concentration(truncated):
    # on a module concentrated in degree 0 nothing is twisted
    b = degree_zero_subalgebra(t_of(truncated(3)))
    tb = T_of(b)
    t = t_of(truncated(3))
    ext = extract_sigma(t)
    mods = [simple(tb, i, 0) for i in range(tb.n_idempotents)]
    assert all(set(m.degrees.tolist()) == {0} for m in mods)
    fam = ModuleFamily.of(tb, mods)
    assert np.array_equal(twisted(b, ext.sigma, fam).action, fam.action)


def test_twist_transport_round_trip(truncated, exterior2):
    # the twist by the extracted sigma and back, over a family of shifted
    # projectives, gives every member back, degrees and tables
    for a in (truncated(3), exterior2):
        t = t_of(a)
        ext = extract_sigma(t)
        b = ext.base
        tb = T_of(b)
        fam = ModuleFamily.of(tb, [proj(tb, i, d) for i in range(tb.n_idempotents) for d in (-1, 0, 2)])
        fw = twisted(b, ext.sigma, fam)
        assert fw.algebra.same_as(T_twisted(b, ext.sigma))
        back = twisted(b, ext.sigma, fw, sign=-1)
        assert back.same_members(fam).all()


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
        pairs = [(la, lb) for la, _ in samples for lb, _ in samples]
        family = ModuleFamily.of(a, [m for _, m in samples])
        indices = [(k, l) for k in range(len(samples)) for l in range(len(samples))]
        homs = dict(zip(pairs, hom_bases(family, indices)))
        got = [c.detail.split(" vs ")[0] for c in cert.checks if c.family == "hom-dim"]
        assert got == [str(len(homs[la, lb])) for la, _ in samples for lb, _ in samples]
        want = [f"F(id_{la}) = id" for la, _ in samples[:9]]
        pairs = 0
        for la, _ in samples:
            if pairs == 6:
                break
            both_ways = [lb for lb, _ in samples if lb != la and len(homs[la, lb]) and len(homs[lb, la])]
            if not both_ways:
                continue
            pairs += 1
            lb = both_ways[0]
            for _ in homs[la, lb]:
                want.append(f"F on hom {la} -> {lb}")
                want += [f"F(g.f) = F(g).F(f) on {la} -> {lb} -> {la}"] * len(homs[lb, la])
        got = [c.name for c in cert.checks if c.family == "functoriality"]
        assert got == want


def test_pipeline_splits_no_shifted_source(rebased_nakayama, monkeypatch):
    # Hom(M(d), N(d')) = Hom(M, N(d' - d)) is solved on the bases M and N,
    # and N(d' - d) reads the split of N: the only members of the families
    # passed to ``_splits`` are the bases, the images of the functor and the
    # tops that ``tops`` builds, never a module that ``shift`` built with
    # d != 0.  Family members are compared by algebra, degrees and action
    a = rebased_nakayama(3, 2, 32)
    real_splits, made = modules._splits, []

    def splits(fam):
        made.extend(fam.modules())
        return real_splits(fam)

    built = {"shifted": [], "base": [], "image": [], "top": []}

    def spy(kind, fn, keep=lambda out, *args: out):
        # records keep(output, *arguments) under kind, unless it is None
        def wrapper(*args):
            out = fn(*args)
            if keep(out, *args) is not None:
                built[kind].append(keep(out, *args))
            return out

        return wrapper

    real_shift = modules.shift
    for ns in (modules, equiv):
        monkeypatch.setattr(ns, "_splits", splits)
        monkeypatch.setattr(ns, "shift", spy("shifted", real_shift, lambda out, m, d: out if d else None))
    for name in ("proj", "inj"):
        monkeypatch.setattr(equiv, name, spy("base", getattr(equiv, name)))
    # the images are the one family that the pipeline moves to T(b(A)); G
    # moves families back to t(A)
    image = lambda out, fam, target, change: None if target is t_of(a) else out.modules()
    monkeypatch.setattr(equiv, "_transports", spy("image", equiv._transports, image))
    # the simple bases are the tops of the Ae_i, from one call
    monkeypatch.setattr(equiv, "tops", spy("top", equiv.tops))
    assert theorem_pipeline(a).passed
    assert len(built["top"]) == 1
    built["image"] = [m for family in built["image"] for m in family]
    built["top"] = [m for family in built["top"] for m in family]
    assert len(built["top"]) == a.n_idempotents  # one top per simple sample
    key = lambda m: (id(m.algebra), m.degrees.tobytes(), m.action.tobytes())
    ids = {kind: {key(m) for m in mods} for kind, mods in built.items()}
    assert len(built["base"]) == 2 * a.n_idempotents and len(built["shifted"]) == 36
    assert ids["base"] | ids["top"] | ids["image"] <= {key(m) for m in made}
    assert not ids["shifted"] & {key(m) for m in made}
    assert all(key(m) in ids["base"] | ids["image"] | ids["top"] for m in made)


def corrupt_image(monkeypatch, k, corrupt):
    """Make F's pass corrupt the action of member k of its family with
    ``corrupt``, applied to its (dim t(A), d^2) block of columns."""
    real_phis = equiv.phis

    def corrupted(a, fam):
        out = real_phis(a, fam)
        action, cols = out.action.copy(), out.member == k
        action[:, cols] = corrupt(action[:, cols]) % a.p
        return out.like(out.algebra, out.degrees, action)

    monkeypatch.setattr(equiv, "phis", corrupted)


def test_pipeline_names_the_sample_of_a_failed_image(truncated, monkeypatch):
    # the first image the pipeline builds is F(Ae_0(-1)); double its action
    corrupt_image(monkeypatch, 0, lambda block: 2 * block)
    want = r"^image: Ae_0\(-1\) failed \(module action is not unital\)$"
    with pytest.raises(CheckFailed, match=want) as err:
        theorem_pipeline(truncated(2))
    assert err.value.transcript["counterexample"]["sample"] == "Ae_0(-1)"


def test_pipeline_records_the_round_trips_before_a_failed_third_image(truncated, monkeypatch):
    # the images are checked family-wide, but the certificate still reads as
    # the samples in turn: the round trips of the first two, then the failed
    # image of the third, D(e_0 A)(-1), and nothing after it; G never sees
    # the third image or a later one
    corrupt_image(monkeypatch, 2, lambda block: 2 * block)
    unpacked, real_psis = [], equiv.psis
    monkeypatch.setattr(equiv, "psis", lambda a, fam: unpacked.append(fam.dims.size) or real_psis(a, fam))
    want = r"^image: D\(e_0A\)\(-1\) failed \(module action is not unital\)$"
    with pytest.raises(CheckFailed, match=want) as err:
        theorem_pipeline(truncated(2))
    assert unpacked == [2]
    checks = err.value.transcript["certificate"]["checks"]
    assert [(c["family"], c["name"], c["passed"]) for c in checks] == [
        ("target", "T(b(A)) graded self-injective", True),
        ("round-trip", "Ae_0(-1)", True),
        ("round-trip", "S_0(-1)", True),
        ("image", "D(e_0A)(-1)", False),
    ]
    assert err.value.transcript["counterexample"]["sample"] == "D(e_0A)(-1)"


def test_pipeline_names_a_failed_round_trip(truncated, monkeypatch):
    # a G that moves one degree of the fourth sample fails that sample's round
    # trip, after the first three, and the transcript holds what G returned
    real_psis = equiv.psis

    def moved(a, fam):
        out = real_psis(a, fam)
        degrees = out.degrees.copy()
        degrees[np.flatnonzero(out.owner == 3)[:1]] += 1
        return out.like(out.algebra, degrees, out.action)

    monkeypatch.setattr(equiv, "psis", moved)
    with pytest.raises(CheckFailed, match=r"^round-trip: Ae_0\(0\) failed \(G\(F\(M\)\) != M\)$") as err:
        theorem_pipeline(truncated(2))
    checks = err.value.transcript["certificate"]["checks"]
    assert [c["name"] for c in checks if c["family"] == "round-trip"] == ["Ae_0(-1)", "S_0(-1)", "D(e_0A)(-1)", "Ae_0(0)"]
    counterexample = err.value.transcript["counterexample"]
    want = proj(truncated(2), 0, 0)
    assert counterexample["sample"] == "Ae_0(0)" and counterexample["module"] == want.to_dict()
    assert counterexample["returned"]["degrees"] != want.degrees.tolist()


def test_pipeline_unpacks_an_image_that_mixes_components(truncated, monkeypatch):
    # F(Ae_0(-1)) over k[x]/(x^3), c = 2, in a basis that adds each vector of
    # a degree slice to its first is still a module, but its slice of degree
    # 1 mixes the two components: G splits it and returns Ae_0(-1) in another
    # basis, so its round trip fails, after those of the first three samples
    p = truncated(3).p

    def mix(block):
        d = int(np.sqrt(block.shape[1]))
        g = modp.identity(d)
        g[1, 2] = 1  # its degrees are 0, 1, 1
        actions = block.reshape(-1, d, d)
        return (modp.invert(g, p) @ actions % p @ g).reshape(block.shape)

    corrupt_image(monkeypatch, 3, mix)
    with pytest.raises(CheckFailed, match=r"^round-trip: Ae_0\(-1\) failed ") as err:
        theorem_pipeline(truncated(3))
    checks = err.value.transcript["certificate"]["checks"]
    assert [c["family"] for c in checks] == ["target", "round-trip", "round-trip", "round-trip", "round-trip"]
    returned = err.value.transcript["counterexample"]["returned"]
    assert returned["slice_dims"] == proj(truncated(3), 0, -1).to_dict()["slice_dims"]
    # a split that fails is raised as the one-sample G raises it, at its sample
    refused = []

    def refuse(fam):
        refused.append(fam.dims.size)
        raise CheckFailed("the idempotents do not split the module into a basis (member 0)")

    monkeypatch.setattr(equiv, "_splits", refuse)
    with pytest.raises(CheckFailed, match=r"^the idempotents do not split the module into a basis \(member 0\)$"):
        theorem_pipeline(truncated(3))
    assert refused == [1, 1]  # the family's one mixed member, then G on sample 3 alone


def test_pipeline_calls_no_one_module_functor(rebased_nakayama, monkeypatch):
    # F, the image checks and G each treat the sample family at once, and
    # the hom bases of functoriality come from one call
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in ("phi", "psi", "hom_bases"):
        monkeypatch.setattr(equiv, name, counted(name, getattr(equiv, name)))
    monkeypatch.setattr(modules, "hom_basis", counted("hom_basis", modules.hom_basis))
    monkeypatch.setattr(GradedModule, "validate", counted("validate", GradedModule.validate))
    cert = theorem_pipeline(rebased_nakayama(3, 2, 32))
    assert cert.passed and calls == {"hom_bases": 1}
    assert Counter(c.family for c in cert.checks)["round-trip"] == len(cert.samples)


def test_pipeline_checks_no_algebra_map(monkeypatch):
    # sigma and h = diag(I, theta) are decided by the check of theta in
    # _sigma_of, so the pipeline validates no bimodule and no automorphism
    # on its own
    checked = []
    for cls in (Bimodule, AlgebraAutomorphism):
        real = cls.validate
        monkeypatch.setattr(cls, "validate", lambda self, real=real: checked.append(self) or real(self))
    cert = theorem_pipeline(corpus.truncated_poly(4))
    assert cert.passed and checked == []
    construct.x_bimodule(corpus.truncated_poly(3)).validate()  # the spies see a call
    assert len(checked) == 1


def test_certificate_transport_is_an_algebra_map(equivalence_corpus, rebased_nakayama32):
    # oracle for the trivial-extension lemma that lets the pipeline skip the
    # check of h: h = diag(I, theta) from the certificate is an algebra map
    # t(A) -> T(B^sigma), checked on every generator of t(A); a theta that
    # is not a bimodule map makes it fail
    for name, a in [*equivalence_corpus, ("rebased N(3,2)", rebased_nakayama32)]:
        cert = theorem_pipeline(a)
        t = t_of(a)
        b = degree_zero_subalgebra(t)
        sigma = AlgebraAutomorphism(b, cert.sigma)
        h = modp.identity(t.dim)
        h[b.dim :, b.dim :] = cert.iso
        assert cert.passed and algebra_map_fault(h, t, T_twisted(b, sigma)) is None, name
    h[b.dim :, b.dim] = 2 * h[b.dim :, b.dim] % b.p
    assert algebra_map_fault(h, t, T_twisted(b, sigma)).startswith("is not multiplicative at ")


def test_pipeline_builds_the_twisted_extension_once(rebased_nakayama, monkeypatch):
    # t(A) and T(b(A)): two trivial extensions, and the one twisted dual that
    # _sigma_of checks theta against, with no T(B^sigma) built around it and
    # no generators of B; nothing about t(A) is decided but the join that
    # built it, so the only entry cached on it is its degree-0 part,
    # recorded by that join
    calls = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(construct, "trivial_extension")
    counted(equiv, "twisted_dual_bimodule")
    a = rebased_nakayama(3, 2, 32)  # a fresh algebra, and so a fresh t(A)
    assert theorem_pipeline(a).passed
    assert calls == {"trivial_extension": 2, "twisted_dual_bimodule": 1}
    assert list(t_of(a)._cache) == [(degree_zero_subalgebra.__wrapped__,)]
    assert (generators.__wrapped__,) not in degree_zero_subalgebra(t_of(a))._cache


@pytest.mark.parametrize("side", ["left", "right"])
def test_extract_sigma_checks_the_iso_on_both_actions(rebased_nakayama, monkeypatch, side):
    # double one action of D(B^sigma), as _sigma_of builds it, at the last
    # generator of B, so that the iso X -> D(B^sigma) intertwines every
    # basis element before it; b(N(4,3)) has rad^2 != 0, so not every basis
    # element is a generator
    t = t_of(rebased_nakayama(4, 3, 43))
    b = degree_zero_subalgebra(t)
    gens = generators(b)
    assert len(gens) < b.dim
    g = int(gens[-1])
    real = equiv.twisted_dual_bimodule
    corrupted = []

    def twisted(base, sigma):
        out = real(base, sigma)
        corrupted.append(out)
        actions = {"left": np.array(out.left_action), "right": np.array(out.right_action)}
        actions[side][g] = 2 * actions[side][g] % b.p
        return Bimodule(base, out.names, actions["left"], actions["right"])

    monkeypatch.setattr(equiv, "twisted_dual_bimodule", twisted)
    want = rf"^iso does not intertwine the {side} action at {re.escape(b.names[g])}$"
    with pytest.raises(CheckFailed, match=want):
        extract_sigma(t)
    assert len(corrupted) == 1  # the one D(B^sigma)


def inner_automorphism(b):
    """The matrix of b -> u b u^-1 for u = sum_r 2^r e_r: column j is u b_j u^-1."""
    p = b.p
    u = (2 ** np.arange(b.n_idempotents)) @ b.idempotents % p
    u_inv = modp.invert(left_mult(b, u), p) @ b.unit % p
    return left_mult(b, u) @ right_mult(b, u_inv) % p


def test_extract_sigma_checks_m_b_against_the_automorphism(truncated, monkeypatch):
    # hand back sigma composed with the inner automorphism by u = sum_r 2^r e_rr
    # of b(k[x]/(x^3)): still an automorphism, but not the one m defines
    t = t_of(truncated(3))
    b = degree_zero_subalgebra(t)
    p = b.p
    inner = inner_automorphism(b)
    assert not np.array_equal(inner, modp.identity(b.dim))
    real = equiv.AlgebraAutomorphism
    monkeypatch.setattr(equiv, "AlgebraAutomorphism", lambda alg, mat: real(alg, mat @ inner % p))
    with pytest.raises(CheckFailed, match=r"^m b != sigma\(b\) m on the basis$"):
        extract_sigma(t)


def test_extract_sigma_refuses_a_sigma_that_moves_the_unit(truncated, monkeypatch):
    # hand back sigma with its first idempotent doubled: invertible, but it
    # moves 1, and it is not the map that m defines, which is checked first
    t = t_of(truncated(3))
    b = degree_zero_subalgebra(t)
    scale = np.ones(b.dim, dtype=np.int64)
    scale[np.flatnonzero(b.idempotents[0])[0]] = 2
    real = equiv.AlgebraAutomorphism
    monkeypatch.setattr(equiv, "AlgebraAutomorphism", lambda alg, mat: real(alg, mat * scale % b.p))
    with pytest.raises(CheckFailed, match=r"^m b != sigma\(b\) m on the basis$"):
        extract_sigma(t)


def ref_theta_refusal(b, x, theta, twisted):
    """The check of sigma and theta as it stood with T(B^sigma) built: the
    join of B |x D(B^sigma), then theta on the generators of B.  The refusal
    it gave, or None."""
    try:
        trivial_extension(b, twisted)
    except ActionFault as exc:
        return f"extracted map is not an automorphism: {exc}"
    gens = generators(b)
    for side in ("left", "right"):
        src, tgt = getattr(x, f"{side}_action"), getattr(twisted, f"{side}_action")
        fault = intertwine_fault(theta, src[gens], tgt[gens], gens, b.p)
        if fault is not None:
            return f"iso does not intertwine the {side} action at {b.names[fault[0]]}"
    return None


def ref_sigma_of(t, seed=0):
    """_sigma_of on the split of t as it stood with T(B^sigma) built: m from
    D(X), then ``ref_theta_refusal``.  The SigmaExtraction, or the refusal."""
    b, x = split_trivial_extension(t)
    p = b.p
    m_vec, used = ref_generator_search(t, seed)
    if m_vec is None:
        return "no generator with bijective multiplication maps"
    dual = dual_bimodule_of(x)
    lm = ((dual.left_action @ m_vec) % p).T
    rm = ((dual.right_action @ m_vec) % p).T
    sigma = AlgebraAutomorphism(b, (modp.invert(lm, p) @ rm) % p)
    theta = lm.T % p
    refusal = ref_theta_refusal(b, x, theta, equiv.twisted_dual_bimodule(b, sigma))
    return refusal or SigmaExtraction(b, sigma, m_vec, theta, used)


def no_generator_extension(uppertri):
    """T_2(k) |x T_2(k), the regular bimodule: D(X) = D(B) has no generator,
    as B is not Frobenius."""
    b = uppertri(2)
    return trivial_extension(b, Bimodule(b, b.names, b.left, b.right))


def test_sigma_of_equals_the_construction_through_t_twisted(equivalence_corpus, rebased_nakayama, uppertri):
    # sigma, the generator, the iso and the trials used are those of the
    # construction that built T(B^sigma) and checked theta on the generators,
    # and so is a search that finds no generator
    cases = [*equivalence_corpus, ("rebased N(3,2)", rebased_nakayama(3, 2, 32))]
    cases.append(("rebased N(4,3)", rebased_nakayama(4, 3, 43)))
    found = Counter()
    for name, t in [(name, t_of(a)) for name, a in cases] + [("T2 |x T2", no_generator_extension(uppertri))]:
        b, x = split_trivial_extension(t)
        for seed in (0, 5, 7):
            want = ref_sigma_of(t, seed)
            found[isinstance(want, SigmaExtraction)] += 1
            if not isinstance(want, SigmaExtraction):
                with pytest.raises(GeneratorNotFound, match=f"^{want}$"):
                    _sigma_of(b, x, seed)
                continue
            got = _sigma_of(b, x, seed)
            assert got.base is want.base and got.trials_used == want.trials_used, name
            for field in ("generator", "iso"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), (name, field)
            assert np.array_equal(got.sigma.matrix, want.sigma.matrix), name
    assert found[True] > 20 and found[False] == 3


def test_sigma_of_refuses_exactly_where_the_join_and_the_generators_refuse(
    truncated, rebased_nakayama32, monkeypatch
):
    # one check of theta on every basis element against the oracle of the
    # join of B |x D(B^sigma) and theta on the generators of B: every
    # single-entry corruption of D(B^sigma)'s two actions, D(B^sigma) itself,
    # and D(B^sigma') for sigma' = sigma composed with an inner automorphism,
    # a bimodule that theta does not intertwine
    real = equiv.twisted_dual_bimodule
    verdicts = Counter()
    for a in (truncated(4), rebased_nakayama32):
        b, x = split_trivial_extension(t_of(a))
        p = b.p
        monkeypatch.setattr(equiv, "twisted_dual_bimodule", real)
        ext = _sigma_of(b, x, 0)
        honest = real(b, ext.sigma)
        bimodules = [honest, real(b, AlgebraAutomorphism(b, ext.sigma.matrix @ inner_automorphism(b) % p))]
        # a bimodule, so the join accepts it, but theta does not intertwine it
        assert ref_theta_refusal(b, x, ext.iso, bimodules[1]).startswith("iso does not intertwine")
        for side in ("left", "right"):
            for entry in np.ndindex(honest.left_action.shape):
                actions = {"left": np.array(honest.left_action), "right": np.array(honest.right_action)}
                actions[side][entry] = (actions[side][entry] + 1) % p
                bimodules.append(Bimodule(b, honest.names, actions["left"], actions["right"]))
        for y in bimodules:
            monkeypatch.setattr(equiv, "twisted_dual_bimodule", lambda base, s: y)
            want = ref_theta_refusal(b, x, ext.iso, y)
            try:
                _sigma_of(b, x, 0)
                got = None
            except CheckFailed as exc:
                got = str(exc)
            assert (got is None) == (want is None), (got, want)
            verdicts[got is None, y is bimodules[1]] += 1
    # the honest bimodule passes on both algebras, the inner twist is refused
    # although the join accepts it, and so is every corruption
    assert verdicts == {(True, False): 2, (False, True): 2, (False, False): 432 + 1458}


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


def ref_generator_search(t, seed):
    """(generator, trials used): up to 128 seeded random draws, or (None, 128)."""
    b, x = split_trivial_extension(t)
    dual, p = dual_bimodule_of(x), b.p

    def bijective(m_vec):
        return all(modp.invert(((act @ m_vec) % p).T, p) is not None
                   for act in (dual.left_action, dual.right_action))

    rng = np.random.default_rng(seed)
    for used in range(1, 129):
        m_vec = rng.integers(0, p, size=x.dim, dtype=np.int64)
        if bijective(m_vec):
            return m_vec, used
    return None, 128


def test_extract_sigma_search_matches_reference(truncated, rebased_nakayama32, swap_twisted_extension):
    # the draw loop keeps the generator and the trial count
    for t in (t_of(truncated(3)), t_of(rebased_nakayama32), swap_twisted_extension):
        for seed in (0, 7):
            ext = extract_sigma(t, seed=seed)
            m_vec, used = ref_generator_search(t, seed)
            assert np.array_equal(ext.generator, m_vec) and ext.trials_used == used


def test_pipeline_two_idempotents_top_degree_two(product_c2):
    cert = theorem_pipeline(product_c2)
    assert cert.passed
    assert len(cert.samples) == 3 * 2 * 5


def test_pipeline_nonsplit_endomorphism_field(nonsplit_dual_numbers):
    from gradedalg.selfinj import graded_nakayama

    a = nonsplit_dual_numbers
    # End(S) = F_{p^2}: the top of Ae is 2-dimensional and one summand
    m = proj(a, 0)
    summands, K = cover_maps(ModuleFamily.of(a, [m]))[0]
    assert tops(ModuleFamily.of(a, [m]))[0].dim == 2 and summands == [(0, 0)] and K.shape == (m.dim, m.dim)
    nd = graded_nakayama(a)
    assert nd.permutation == [0] and nd.shifts == [-1]
    cert = theorem_pipeline(a)
    assert cert.passed


def test_pipeline_records_a_failed_morphism_check(truncated, monkeypatch):
    # the pipeline makes one morphism check, on the image family, with a map
    # for each functoriality record, whose verdicts are those of the check of
    # each pair alone; a refused morphism check is a failed functoriality check
    calls, real = [], equiv.morphism_faults
    monkeypatch.setattr(equiv, "morphism_faults", lambda *args: calls.append(args) or real(*args))
    cert = theorem_pipeline(truncated(2))
    assert cert.passed and len(calls) == 1
    fam, pairs, stacks = calls[0]
    mods = fam.modules()
    assert fam.algebra.dim == cert.dims["T(b(A))"] and len(mods) == len(cert.samples)
    assert sum(map(len, stacks)) == sum(c.family == "functoriality" for c in cert.checks)
    want = [pair_morphism_faults(mods[k], mods[l], stack) for (k, l), stack in zip(pairs, stacks)]
    assert real(fam, pairs, stacks) == want and want[0] == [None]
    monkeypatch.setattr(equiv, "morphism_faults", lambda fam, pairs, stacks: [["refused"] * len(s) for s in stacks])
    with pytest.raises(CheckFailed, match=r"^functoriality: F\(id_") as err:
        theorem_pipeline(truncated(2))
    checks = err.value.transcript["certificate"]["checks"]
    assert checks[-1]["family"] == "functoriality" and not checks[-1]["passed"]


def test_t_of_and_phi_share_one_extension(truncated):
    a = truncated(4)
    assert t_of(a) is t_of(a)
    assert phi(a, regular_module(a)).algebra is t_of(a)


def _decide_every_cached_fact():
    """Call every cached function on a fresh k[x]/(x^3), its t(A), a module
    over each and sigma."""
    a = corpus.truncated_poly(3)
    t = t_of(a)
    for alg in (a, t):
        alg.left, alg.right
        radical(alg), generators(alg), semisimple_quotient(alg), simple_classes(alg)
        degree_zero_subalgebra(alg), is_graded_selfinjective(alg)
        _projectives(alg), _injectives(alg)
        m = regular_module(alg)
        hom_dims(ModuleFamily.of(alg, [m]), [(0, 0, 1)])
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
