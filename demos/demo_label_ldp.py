"""Label-LDP guarantee of negative label smoothing, numerically.

For a K-class model trained with smooth rate alpha < 0 and loss bounds
gamma1 (target) / gamma2 (non-target), the prediction distribution leaks at
most epsilon about the true label. This script sweeps alpha, compares the
closed-form epsilon with a brute-force max over label pairs, and shows the
zero-leakage endpoint alpha = 1 - gamma1/gamma2.

Run with:  python3 demos/demo_label_ldp.py
"""

import numpy as np

from unlearn_forge import privacy

K, gamma1, gamma2 = 10, 2.0, 1.0
endpoint = 1.0 - gamma1 / gamma2
print(f"K = {K}, gamma1 = {gamma1}, gamma2 = {gamma2}, "
      f"zero-leakage endpoint alpha = {endpoint}")

print(f"\n{'alpha':>8}{'epsilon':>12}{'brute force':>14}{'p_target':>12}{'p_other':>12}")
# validity needs gamma1 - gamma2*(1 + (1-K)/K * alpha) > 0, i.e. alpha > -10/9
for alpha in np.linspace(-1.1, -0.1, 11):
    params = privacy.LdpParams(K=K, alpha=float(alpha), gamma1=gamma1,
                               gamma2=gamma2)
    eps = privacy.label_ldp_epsilon(params)
    rep = privacy.verify_ratio_bound(params)
    pt, po = privacy.optimal_prediction_distribution(params)
    print(f"{alpha:8.2f}{eps:12.6f}{rep.empirical_max_log_ratio:14.6f}"
          f"{pt:12.6f}{po:12.6f}")

params = privacy.LdpParams(K=K, alpha=endpoint, gamma1=gamma1, gamma2=gamma2)
print(f"\nat the endpoint: epsilon = {privacy.label_ldp_epsilon(params):.2e} "
      f"(predictions carry no label information)")
