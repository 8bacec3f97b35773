"""E8 — Section 5: Lavi–Swamy decomposition exact; truthful in expectation.

The experiment runs the mechanism on the compiled fast path
(cold-persistent pricing + warm VCG probes) and additionally checks
payoff/marginal parity against the seed-era oracles
(``reference_decomposition`` + ``reference_vcg_payments``) on the same
small instance.
"""

from conftest import run_and_record

from repro.experiments import run_e8


def test_e8_mechanism(benchmark):
    out = run_and_record(benchmark, run_e8, "e08")
    assert out.summary["mass_error"] <= 1e-7
    assert out.summary["welfare_error"] <= 1e-7
    assert out.summary["max_misreport_gain"] <= 1e-6
    # fast path vs reference (pre-fast-path) parity on the same instance
    assert out.summary["marginals_identical"]
    assert out.summary["pool_identical"]
    assert out.summary["payment_parity_gap"] <= 1e-6
