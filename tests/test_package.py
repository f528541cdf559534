from __future__ import annotations

import dataclasses
import inspect

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

# Deleted because each restated another route: the sum-form and pair-form
# determinants and the detuning products (``det_closed_form``), the effective
# two-state model (``adiabatic_eliminate``), the one-member pulse-shape enum,
# the per-snapshot record (one row of ``track_spectrum``'s stacked result) and
# the per-regime tail asymptotics with their resonance-index check
# (``asymptotic_eigenvalues``, which reads the resonance from the system),
# the detuning sums built per call (``MultiLambdaSystem.sums``), the
# one-field state wrapper (states are plain complex arrays of N+2 amplitudes),
# the error classes that each restated ``PreconditionViolated``, whose
# message now names the failed condition, the per-label curve lookups
# (one index into ``track_spectrum``'s stacked fields), the two kinds of
# ``ConfigError``, which no caller told apart: the command line exits 2 for
# both, and a parse error's line is in its message, and the two-field
# output wrapper (``RunConfig.csv_path`` and ``report_path``).
REMOVED_NAMES = {
    "DetuningProducts", "detuning_products", "det_offres_pair_form",
    "det_single_res_pair_form", "det_double_res", "EffectiveTwoState",
    "effective_two_state", "PulseShape", "det_offres_sum_form",
    "det_single_res_sum_form", "det_pair_form", "SpectralSnapshot",
    "asymptotic_eigenvalues_offres", "asymptotic_eigenvalues_res", "NotSingleResonance",
    "s_sums", "StateVector", "ZeroDetuningInSum", "BothEnvelopesZero", "NonSymmetricInput",
    "DegenerateSums", "WrongResonanceCount", "NotProportional", "track_curve", "track_vectors",
    "ParseError", "ValidationError", "OutputSpec",
}

# One error class per way a caller handles a failure, each with its direct base.
ERROR_TREE = {
    "MultiLambdaError": Exception,
    "ConfigError": errors.MultiLambdaError,
    "NumericalError": errors.MultiLambdaError,
    "ToleranceNotMet": errors.NumericalError,
    "NormDriftExceeded": errors.NumericalError,
    "AmbiguousTracking": errors.NumericalError,
    "PreconditionViolated": errors.MultiLambdaError,
    "NoCrossing": errors.PreconditionViolated,
}

# Members of ``SSums`` deleted when each sum came to be held once, in its
# scaled form: the plain copies of the sums and of their scales, the tuple
# that held the scaled ones, and the wrappers that restated a field's
# ``is_zero()`` (``bracket`` now returns the scaled bracket).
REMOVED_MEMBERS = {
    "s_a2", "s_b2", "s_ab", "s_a2_scale", "s_b2_scale", "s_ab_scale", "residual_scale",
    "unit", "a2_is_zero", "b2_is_zero", "ab_is_zero", "residual_is_zero", "bracket_is_zero",
}


def test_every_module_export_is_a_package_attribute():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(multilambda, name) is getattr(module, name), name
    for name in multilambda.__all__:
        assert hasattr(multilambda, name), name


def test_export_list_has_no_duplicates():
    assert len(multilambda.__all__) == len(set(multilambda.__all__))


def test_no_single_field_public_dataclass():
    # A one-field public dataclass is a thin wrapper around its field.
    for name in multilambda.__all__:
        obj = getattr(multilambda, name)
        if dataclasses.is_dataclass(obj):
            assert len(dataclasses.fields(obj)) != 1, name


def test_no_public_switch_field():
    # An init field that equality ignores is a construction-mode flag riding
    # on a value; every init field of an exported dataclass must compare.
    for name in multilambda.__all__:
        obj = getattr(multilambda, name)
        if dataclasses.is_dataclass(obj):
            for f in dataclasses.fields(obj):
                assert f.compare or not f.init, f"{name}.{f.name}"


def test_earlier_exports_kept():
    assert len(EARLIER_NAMES) == 74
    assert EARLIER_NAMES - REMOVED_NAMES <= set(multilambda.__all__)
    assert not REMOVED_NAMES & set(multilambda.__all__)
    assert "write_csv" not in multilambda.__all__


def test_error_tree():
    assert len(ERROR_TREE) == 8
    assert {name: getattr(errors, name).__bases__ for name in errors.__all__} == {
        name: (base,) for name, base in ERROR_TREE.items()
    }
    assert not REMOVED_NAMES & set(dir(errors))


def test_removed_members_stay_removed():
    sums = multilambda.MultiLambdaSystem((1, 2), (1, 0.5), (0.5, 1.5)).sums
    members = set(dir(sums))
    assert not REMOVED_MEMBERS & members
    assert not {name for name in members if name.endswith("_scale")}
    assert [f.name for f in dataclasses.fields(sums)] == ["a2", "b2", "ab", "residual"]


def test_integrator_config_has_no_window_settings():
    # the pulses set the window and the step cap: t_start, t_end, max_step
    # and window() are gone; the entry point, not store_every, decides
    # which nodes a result stores
    cfg = multilambda.IntegratorConfig
    assert [f.name for f in dataclasses.fields(cfg)] == ["rel_tol", "abs_tol"]
    assert not hasattr(cfg, "window")


def test_every_propagation_starts_in_the_initial_state():
    # no start-state option; no right-hand-side counter, which restated
    # 12 * (n_accepted + n_rejected) + 1
    assert list(inspect.signature(multilambda.propagate).parameters) == [
        "system", "pulses", "config"
    ]
    assert list(inspect.signature(multilambda.propagate_batch).parameters) == [
        "points", "config"
    ]
    assert [f.name for f in dataclasses.fields(multilambda.PropagationResult)] == [
        "time_grid", "trajectory", "final_pf", "final_norm_error", "max_intermediate_pop",
        "n_accepted", "n_rejected", "h_min", "h_max",
    ]
