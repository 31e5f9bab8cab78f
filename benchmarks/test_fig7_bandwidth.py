"""Sec. V / Fig. 7 -- storage-format bandwidth utilization on TBS.

Paper: SDC wastes >61.54% of traffic on padding, CSR stays below 38.2%
utilization, and the DDC + adaptive codec reaches a 1.47x average
bandwidth-utilization improvement.

Fig. 7 reads the weights in the forward pass, so its numbers are the
forward column of the both-passes table (``repro report fig7both``).
"""

import numpy as np

from repro.analysis import render_dict_table, run_fig7_both_passes


def test_fig7(once):
    both = once(run_fig7_both_passes, sparsities=(0.5, 0.75, 0.875), size=256)
    res = {}
    for key, row in both.items():
        workload, fmt = key.split(" ")
        res.setdefault(workload, {})[fmt] = row["forward_util"]
    print()
    print(render_dict_table(res, key_header="workload", title="Fig. 7 -- bandwidth utilization per format"))

    gains = []
    for row in res.values():
        # DDC beats every baseline format at every sparsity degree.
        assert row["ddc"] > row["sdc"]
        assert row["ddc"] > row["csr"]
        assert row["ddc"] > row["dense"]
        gains.append(row["ddc"] / max(row["sdc"], row["csr"]))

    # Average improvement at least the paper's 1.47x.
    assert np.mean(gains) >= 1.47

    # CSR fragmentation keeps it under 50% utilization (paper: <38.2%).
    assert all(row["csr"] < 0.5 for row in res.values())
