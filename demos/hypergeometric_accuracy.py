"""Accuracy of the 2F1 evaluator against its quadrature oracle.

The capture integral needs 2F1(1, 2/eta; 1+2/eta; x) on x <= 0 over many
orders of magnitude of |x|. The evaluator is scipy.special.hyp2f1 (with the
closed form at eta = 2); the oracle is adaptive quadrature of the Euler
integral. This demo reports the worst relative disagreement per decade of
|x|, for the model's usual exponents and for one just above eta = 2, and
writes that table to hypergeometric_accuracy.csv.
"""

import numpy as np

from loracell import hyp2f1, hyp2f1_oracle

ETAS = (2.1, 2.75, 4.0, 2.0 / (1.0 - 2e-5))
DECADES = range(-6, 9)


def main():
    print(f"{'|x| decade':<18}" + "".join(f"{'eta=' + format(eta, '.6g'):>16}"
                                          for eta in ETAS))
    rows = []
    for k in DECADES:
        line = f"{f'1e{k}..1e{k + 1}':<18}"
        rows.append([k])
        for eta in ETAS:
            b = 2.0 / eta
            worst = 0.0
            for ax in np.geomspace(10.0 ** k, 10.0 ** (k + 1), 20):
                got = hyp2f1(1.0, b, 1.0 + b, -float(ax))
                ref = hyp2f1_oracle(1.0, b, 1.0 + b, -float(ax))
                worst = max(worst, abs(got - ref) / abs(ref))
            line += f"{worst:>16.2e}"
            rows[-1].append(worst)
        print(line)
    header = "log10_x_decade," + ",".join(f"worst_rel_err_eta{eta:.6g}" for eta in ETAS)
    np.savetxt("hypergeometric_accuracy.csv", rows, delimiter=",", header=header,
               comments="", fmt="%.6g")
    print("wrote hypergeometric_accuracy.csv")
    print("\nlogarithmic limit 2F1(1,1;2;-x) = ln(1+x)/x:")
    worst = max(
        abs(hyp2f1(1.0, 1.0, 2.0, -float(x)) - np.log1p(x) / x) / (np.log1p(x) / x)
        for x in np.geomspace(1e-3, 1e3, 25)
    )
    print(f"worst relative error {worst:.2e}")


if __name__ == "__main__":
    main()
