"""Analytic bounds (Lemma 1, Theorem 2, message-count formulas) and latency
histograms; both use only the standard library."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "bounds": [
        "TimingParameters",
        "campbell_randell_reference_messages",
        "campbell_randell_resolution_calls",
        "exception_graph_level_size",
        "lemma1_completion_bound",
        "messages_all_exceptions",
        "messages_single_exception",
        "romanovsky96_messages",
        "signalling_messages_simple",
        "signalling_messages_worst_case",
        "theorem2_worst_case_messages",
    ],
    "histograms": ["LatencyHistogram"],
})
