"""Time-on-air per spreading factor and the pure-ALOHA baseline.

Prints the per-SF packet durations for a 1-byte application payload (14-byte
PHY payload including LoRaWAN MAC overhead) and tabulates S = G e^{-2G},
whose maximum 1/(2e) = 18.4% sits at G = 0.5. Writes the per-SF table to
airtime_and_aloha.csv.
"""

import numpy as np

from loracell import lora_airtime, per_node_rate, pure_aloha_throughput


def main():
    print("Time on air, 125 kHz, CR 4/5, 14-byte PHY payload")
    print(f"{'SF':>4} {'ToA [ms]':>10} {'per-node rate @ G=1, N=300 [pkt/s]':>38}")
    toas, rows = [], []
    for sf in range(7, 13):
        toa = lora_airtime(sf)
        toas.append(toa)
        rate = per_node_rate(1.0, 300, toa)
        rows.append((sf, toa * 1000, rate))
        print(f"{sf:>4} {toa * 1000:>10.3f} {rate:>38.5f}")
    np.savetxt("airtime_and_aloha.csv", rows, delimiter=",",
               header="sf,toa_ms,rate_g1_n300_pkt_s", comments="", fmt="%.6g")
    print("wrote airtime_and_aloha.csv")
    print(f"mean ToA: {np.mean(toas) * 1000:.3f} ms "
          f"(N2 traffic mix, all six SFs equally populated)\n")

    print("Pure-ALOHA channel utilization")
    print(f"{'G [E]':>6} {'S = G e^-2G [E]':>17}")
    for g in np.arange(0.1, 1.05, 0.1):
        print(f"{g:>6.1f} {pure_aloha_throughput(float(g)):>17.5f}")
    print(f"\nmaximum: S(0.5) = {pure_aloha_throughput(0.5):.5f} "
          "(about four SF7 packets per second)")


if __name__ == "__main__":
    main()
