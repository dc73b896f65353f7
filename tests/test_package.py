"""The package's public surface."""

import ast
import inspect
import textwrap

import qng


def test_every_public_class_and_function_has_a_docstring():
    # read from the source: a dataclass without one gets its signature as
    # __doc__, which documents nothing
    missing = []
    for name in qng.__all__:
        obj = getattr(qng, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            node = ast.parse(textwrap.dedent(inspect.getsource(obj))).body[0]
            if not ast.get_docstring(node):
                missing.append(name)
    assert missing == []


def test_public_surface():
    # an addition to or a removal from the API edits this list on purpose
    assert sorted(qng.__all__) == [
        "ChannelSpec", "GaussianMapSpec", "StateFamily", "ThresholdResult",
        "TruncatedState", "TruncationError", "WitnessReport", "apply_loss",
        "apply_map", "beta_opt", "bound_at_zero", "bounds", "build_bound_curve",
        "delta_a", "delta_b", "epsilon_threshold", "error_model", "fock",
        "make_coherent", "make_displaced_squeezed", "make_fock", "make_pac",
        "make_pss", "make_squeezed", "mapped_photon_probs", "mix", "moments",
        "normalized_bound_stats", "photon_probs", "pure_bound", "q_opt",
        "qs_fock", "qs_origin", "qs_origin_error", "quasiprob", "refine_map",
        "witness", "witness_at_loss", "witness_curve"]
