"""Graded algebra constructions and decision procedures over prime fields.

The package computes block (Beilinson-style) algebras and trivial
extensions of finite-dimensional positively graded algebras over F_p,
decides well-gradedness, graded self-injectivity and the graded Frobenius
property, extracts Nakayama permutations and twisting automorphisms, and
constructively certifies the equivalence between the graded module
categories of a well-graded self-injective algebra and of the trivial
extension of its block algebra.
"""

from .algebra import (
    Bimodule,
    GradedAlgebra,
    corner,
    degree_zero_subalgebra,
    is_basic,
    is_left_well_graded,
    is_right_well_graded,
    is_well_graded,
    quotient_algebra,
    radical,
    validate_algebra,
)
from .construct import (
    AlgebraAutomorphism,
    T_of,
    beilinson,
    dual_bimodule,
    t_of,
    trivial_extension,
    twisted_dual_bimodule,
    x_bimodule,
)
from .corpus import gen_example
from .equiv import (
    EquivalenceCertificate,
    SigmaExtraction,
    extract_sigma,
    phi,
    phis,
    psi,
    psis,
    theorem_pipeline,
)
from .fileio import dumps, load, loads, save
from .modp import DEFAULT_PRIME
from .modules import (
    GradedModule,
    GradedMorphism,
    ModuleFamily,
    cover_maps,
    direct_sum,
    hom_bases,
    hom_basis,
    hom_dims,
    inj,
    module_faults,
    morphism_faults,
    proj,
    projective_cover,
    regular_module,
    shift,
    simple,
    submodule,
    syzygies,
    syzygy,
    tops,
    width,
    zero_module,
)
from .selfinj import (
    GldimResult,
    NakayamaData,
    SelfInjectivity,
    frobenius_functional_search,
    global_dimension,
    graded_nakayama,
    is_Ac_faithful,
    is_graded_frobenius,
    is_graded_selfinjective,
)

__version__ = "0.1.0"
