"""Report files pinned byte for byte, from hand-built results.

The parameters cover all three report units (a compliance, an angle, a
length); the values include one that rounds at the sixth decimal, a ratio
that rounds at the third, ``-0.0`` and a tiny negative that prints as
``-0.000000``.
"""

from dataclasses import replace

import numpy as np
import pytest

from armcal.estimator import EstimationResult, IterationSnapshot
from armcal.reports import (
    write_compare_report,
    write_parameter_report,
    write_ratio_report,
    write_trace_report,
)
from armcal.simulator import MonteCarloReport

NAMES = ("k2_1", "theta4", "a2")


def _result(method, x_hat, ci3, iterations=()):
    unused = np.zeros(2)
    return EstimationResult(parameters=NAMES, x_hat=np.array(x_hat), covariance=np.eye(3),
                            ci3=np.array(ci3), predicted=unused, method=method, weights=unused,
                            sigma=unused, iterations=iterations, stop_reason="tolerance")


OLS = _result("ols", [1.2345678e-07, -0.0, 1.23456789e-3], [2.5e-09, 1e-5, 2e-5])
SNAPSHOTS = (
    IterationSnapshot(1, np.array([1.25e-07, 3e-6, -1e-12]), np.array([2.1e-09, 5e-6, 1.7e-5])),
    IterationSnapshot(2, np.array([1.2345678e-07, -0.0, 1.23456789e-3]), np.array([2.025e-09, 4e-6, 1.6e-5])),
)
IRLS = _result("irls", SNAPSHOTS[1].x_hat, SNAPSHOTS[1].ci3, SNAPSHOTS)

_ESTIMATES = np.array([[1.2e-07, 1e-6, 1e-3], [1.3e-07, -1e-6, 1.5e-3],
                       [1.25e-07, 0.0, 1.25e-3], [1.35e-07, 2e-6, 1e-3]])
MC = MonteCarloReport(
    parameters=NAMES,
    truth=np.array([1.25e-07, -0.0, 1.2e-3]),
    trials=5,
    failures=((3, "RankDeficientError", "rank deficient (2/3)"),),
    estimates={"ols": _ESTIMATES, "wls": _ESTIMATES * 0.5, "irls": _ESTIMATES[::-1] * 0.25},
    ci3={"ols": np.full((4, 3), 3e-6), "wls": np.full((4, 3), 2e-6), "irls": np.full((4, 3), 1.5e-6)},
    predicted_cov={},
    irls_ci_traces=(np.array([[3e-6, 2e-6, 1e-6], [2e-6, 1e-6, 5e-7], [1e-6, 1e-6, 1e-6]]),
                    np.array([[1e-6, 4e-6, 2e-6], [2e-6, 3e-6, 1e-6]])),
    irls_iterations=np.array([3, 2, 2, 2]),
    irls_converged=np.ones(4, dtype=bool),
    nested_per_param=np.full(3, 0.5),
    nested_all_fraction=0.75,
)

EXPECTED = {
    "parameters.txt": """\
# parameter estimates with +/-3 sigma half-widths (report units)
parameter  unit        ols_estimate  ols_ci3   irls_estimate  irls_ci3
---------  ----------  ------------  --------  -------------  --------
k2_1       urad/(N.m)  0.123457      0.002500  0.123457       0.002025
theta4     deg         -0.000000     0.000573  -0.000000      0.000229
a2         mm          1.234568      0.020000  1.234568       0.016000
""",
    "parameters.tsv": """\
method\tparameter\testimate_si\tci3_si
ols\tk2_1\t1.2345678e-07\t2.5e-09
ols\ttheta4\t-0.0\t1e-05
ols\ta2\t0.00123456789\t2e-05
irls\tk2_1\t1.2345678e-07\t2.025e-09
irls\ttheta4\t-0.0\t4e-06
irls\ta2\t0.00123456789\t1.6e-05
""",
    "ratios.txt": """\
# three-sigma CI half-widths: ols baseline vs irls
parameter  unit        ols       irls      ratio
---------  ----------  --------  --------  -----
k2_1       urad/(N.m)  0.002500  0.002025  1.235
theta4     deg         0.000573  0.000229  2.500
a2         mm          0.020000  0.016000  1.250
""",
    "ratios.tsv": """\
parameter\tci3_baseline_si\tci3_refined_si\tratio
k2_1\t2.5e-09\t2.025e-09\t1.234567901234568
theta4\t1e-05\t4e-06\t2.5000000000000004
a2\t2e-05\t1.6e-05\t1.2500000000000002
""",
    "trace.txt": """\
# reweighting trace: 2 iterations, converged=True (tolerance)
iteration  parameter  unit        estimate   ci3
---------  ---------  ----------  ---------  --------
1          k2_1       urad/(N.m)  0.125000   0.002100
1          theta4     deg         0.000172   0.000286
1          a2         mm          -0.000000  0.017000
2          k2_1       urad/(N.m)  0.123457   0.002025
2          theta4     deg         -0.000000  0.000229
2          a2         mm          1.234568   0.016000
""",
    "trace.tsv": """\
iteration\tvalue:k2_1\tci_lo:k2_1\tci_hi:k2_1\tvalue:theta4\tci_lo:theta4\tci_hi:theta4\tvalue:a2\tci_lo:a2\tci_hi:a2
1\t1.25e-07\t1.229e-07\t1.271e-07\t3e-06\t-2.0000000000000003e-06\t8.000000000000001e-06\t-1e-12\t-1.7000001e-05\t1.6999999e-05
2\t1.2345678e-07\t1.2143178e-07\t1.2548177999999998e-07\t-0.0\t-4e-06\t4e-06\t0.00123456789\t0.00121856789\t0.0012505678899999999
""",
    "comparison.txt": """\
# 5 trials, 1 failed; WLS CI nested in OLS CI in 75.0% of trials
# failed trial 3: RankDeficientError: rank deficient (2/3)
parameter  unit        truth      ols_mean  ols_std   ols_ci3   wls_mean  wls_std   wls_ci3   irls_mean  irls_std  irls_ci3  ci_ratio
---------  ----------  ---------  --------  --------  --------  --------  --------  --------  ---------  --------  --------  --------
k2_1       urad/(N.m)  0.125000   0.127500  0.006455  3.000000  0.063750  0.003227  2.000000  0.031875   0.001614  1.500000  1.500
theta4     deg         -0.000000  0.000029  0.000074  0.000172  0.000014  0.000037  0.000115  0.000007   0.000018  0.000086  1.500
a2         mm          1.200000   1.187500  0.239357  0.003000  0.593750  0.119678  0.002000  0.296875   0.059839  0.001500  1.500
""",
    "comparison.tsv": """\
parameter\ttruth_si\tols_mean_si\tols_std_si\tols_ci3_si\twls_mean_si\twls_std_si\twls_ci3_si\tirls_mean_si\tirls_std_si\tirls_ci3_si\tci_ratio
k2_1\t1.25e-07\t1.275e-07\t6.454972243679035e-09\t3e-06\t6.375e-08\t3.2274861218395174e-09\t2e-06\t3.1875e-08\t1.6137430609197587e-09\t1.5e-06\t1.5
theta4\t-0.0\t5e-07\t1.2909944487358056e-06\t3e-06\t2.5e-07\t6.454972243679028e-07\t2e-06\t1.25e-07\t3.227486121839514e-07\t1.5e-06\t1.5
a2\t0.0012\t0.0011875\t0.00023935677693908455\t3e-06\t0.00059375\t0.00011967838846954228\t2e-06\t0.00029687500000000005\t5.983919423477113e-05\t1.5e-06\t1.5
""",
    "trace_mean.tsv": """\
iteration\tmean_ci3:k2_1\tmean_ci3:theta4\tmean_ci3:a2
1\t2e-06\t3e-06\t1.5e-06
2\t2e-06\t2e-06\t7.5e-07
""",
}


@pytest.mark.parametrize("write, args, names", [
    (write_parameter_report, ([OLS, IRLS],), ("parameters.txt", "parameters.tsv")),
    (write_ratio_report, (OLS, IRLS), ("ratios.txt", "ratios.tsv")),
    (write_trace_report, (IRLS,), ("trace.txt", "trace.tsv")),
    (write_compare_report, (MC,), ("comparison.txt", "comparison.tsv", "trace_mean.tsv")),
], ids=["parameters", "ratios", "trace", "comparison"])
def test_report_bytes(write, args, names, tmp_path):
    paths = write(tmp_path, *args)
    assert [p.name for p in paths] == list(names)
    for path in paths:
        assert path.read_bytes() == EXPECTED[path.name].encode("utf-8"), path.name


def test_trace_mean_without_traces_is_a_header(tmp_path):
    write_compare_report(tmp_path, replace(MC, irls_ci_traces=()))
    assert (tmp_path / "trace_mean.tsv").read_text() == EXPECTED["trace_mean.tsv"].splitlines()[0] + "\n"


def test_trace_without_iterations_is_headers_only(tmp_path):
    txt, tsv = write_trace_report(tmp_path, replace(IRLS, iterations=()))
    assert txt.read_text().splitlines() == [
        "# reweighting trace: 0 iterations, converged=True (tolerance)",
        "iteration  parameter  unit  estimate  ci3",
        "---------  ---------  ----  --------  ---",
    ]
    assert tsv.read_text() == EXPECTED["trace.tsv"].splitlines()[0] + "\n"
