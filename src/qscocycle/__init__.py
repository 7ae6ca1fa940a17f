"""Desk-scale numerics for Fock-adapted contraction operator cocycles.

Block generators on h + (h (x) k), their associated contraction semigroups,
exact cocycle matrix elements through the semigroup product decomposition,
Schur-criterion and convergence probes, and an independent
repeated-interaction oracle for cross-validation.
"""

from .cocycle import (
    StepFunction,
    cocycle_defect,
    exp_inner,
    full_matrix_element,
    sliced_element,
)
from .generator import (
    BlockGenerator,
    Classification,
    chi,
    classify,
    component,
    contractivity_defect,
    form_defect,
    from_hlc,
    yosida_approx,
)
from .models import OscillatorSpec, birth_death, inverse_oscillator, random_contractive
from .opcore import mat_exp, max_herm_eig, op_norm, psd_inv_sqrt
from .reconstruct import (
    ConvergenceReport,
    Probe,
    ProbeReport,
    make_probe,
    schur_criterion_check,
    screen_family,
    trotter_kato_pipeline,
    varpi_matrix,
)
from .semigroups import (
    SemigroupFamily,
    coords_from_f,
    coords_to_f,
    dual_generator,
    g_generator,
    generator_from_semigroups,
)
from .toyfock import (
    oracle_matrix_element,
    oracle_state_norm,
    step_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BlockGenerator",
    "Classification",
    "ConvergenceReport",
    "OscillatorSpec",
    "Probe",
    "ProbeReport",
    "SemigroupFamily",
    "StepFunction",
    "birth_death",
    "chi",
    "classify",
    "cocycle_defect",
    "component",
    "contractivity_defect",
    "coords_from_f",
    "coords_to_f",
    "dual_generator",
    "exp_inner",
    "form_defect",
    "from_hlc",
    "full_matrix_element",
    "g_generator",
    "generator_from_semigroups",
    "inverse_oscillator",
    "make_probe",
    "mat_exp",
    "max_herm_eig",
    "op_norm",
    "oracle_matrix_element",
    "oracle_state_norm",
    "psd_inv_sqrt",
    "random_contractive",
    "schur_criterion_check",
    "screen_family",
    "sliced_element",
    "step_matrix",
    "trotter_kato_pipeline",
    "varpi_matrix",
    "yosida_approx",
]
