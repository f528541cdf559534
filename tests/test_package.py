from __future__ import annotations

import multilambda
from multilambda import analysis, config, dynamics, errors, model, runner, spectral

MODULES = (analysis, config, dynamics, errors, model, runner, spectral)

# The package's exports when they were still listed by hand in
# ``__init__.py``, less ``write_csv``, which was deleted with its last caller.
EARLIER_NAMES = {
    "__version__", "MultiLambdaSystem", "PulsePair", "PulseShape", "StateVector", "SSums",
    "DetuningProducts", "build_hamiltonian", "s_sums", "detuning_products", "det_closed_form",
    "det_offres_sum_form", "det_offres_pair_form", "det_single_res_sum_form",
    "det_single_res_pair_form", "det_double_res", "dark_state", "zero_eigvec_amplitudes",
    "eigendecompose", "SpectralSnapshot", "track_spectrum", "track_curve", "track_vectors",
    "Side", "AsymptoticEigenvalues", "asymptotic_eigenvalues_offres",
    "asymptotic_eigenvalues_res", "asymptotics_valid", "IntegratorConfig",
    "PropagationResult", "propagate", "propagate_batch", "pf_degenerate_prediction", "Regime",
    "ZeroEigenvalue", "AtState", "AtClassification", "classify", "at_window_boundaries",
    "no_at_intervals", "reduce_degenerate", "EffectiveTwoState", "effective_two_state",
    "adiabatic_eliminate", "LzEstimate", "lz_estimate", "ScanAxis", "ScanSpec", "OutputSpec",
    "RunConfig", "parse_config", "load_config", "ScanRow", "evaluate_point", "run_scan",
    "format_csv", "report_text", "MultiLambdaError", "ConfigError", "ParseError",
    "ValidationError", "NumericalError", "ToleranceNotMet", "NormDriftExceeded",
    "AmbiguousTracking", "ZeroDetuningInSum", "BothEnvelopesZero", "NonSymmetricInput",
    "DegenerateSums", "NotSingleResonance", "NotProportional", "NoCrossing",
    "PreconditionViolated", "WrongResonanceCount",
}

# Deleted because each restated another route: the pair-form determinants
# and the detuning products (``det_pair_form``), the effective two-state
# model (``adiabatic_eliminate``) and the one-member pulse-shape enum.
REMOVED_NAMES = {
    "DetuningProducts", "detuning_products", "det_offres_pair_form",
    "det_single_res_pair_form", "det_double_res", "EffectiveTwoState",
    "effective_two_state", "PulseShape",
}


def test_every_module_export_is_a_package_attribute():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(multilambda, name) is getattr(module, name), name
    for name in multilambda.__all__:
        assert hasattr(multilambda, name), name


def test_export_list_has_no_duplicates():
    assert len(multilambda.__all__) == len(set(multilambda.__all__))


def test_earlier_exports_kept():
    assert len(EARLIER_NAMES) == 74
    assert EARLIER_NAMES - REMOVED_NAMES <= set(multilambda.__all__)
    assert not REMOVED_NAMES & set(multilambda.__all__)
    assert "write_csv" not in multilambda.__all__
