"""E12 -- MTBF vs machine size: why fault tolerance became critical.

Paper, Section 1: "because of the extraordinarily large component count
of such machines -- for instance, the IBM BlueGene/L supercomputer ...
will have 65,536 nodes -- their mean time between failures (MTBF) may be
orders of magnitude shorter than the execution times of the applications
they are intended to run ... it is all-too-common practice to run an
application, or a part of it, many times to achieve one successful
completion."

Analytic table across machine sizes, cross-validated against the
discrete-event simulation at every size -- including the full 65,536
nodes, which the vectorized :class:`~repro.cluster.ShardFleet` cohort
and its counter-based per-node streams make cheap enough to run as an
experiment-grid sweep.
"""

from __future__ import annotations

import math

from repro.analysis import expected_time_without_ckpt_s, mtbf_table
from repro.cluster import system_mtbf_s
from repro.obs import to_json
from repro.reporting import render_table
from repro.runner import Cell, GridRunner
from repro.runner.experiments import e12_mtbf_cell, e12_parallel_cell

from conftest import report

NODE_MTBF_H = 100_000.0  # an optimistic 11-year node MTBF
SIZES = [1, 64, 1024, 8192, 65_536]
JOB_DAYS = 7.0

# Simulated sweep: a short node MTBF keeps virtual time small while the
# analytic 1/n law being validated is scale-free.
SIM_NODE_MTBF_S = 50.0
SIM_SIZES = [64, 1024, 8192, 65_536]
SIM_TRIALS = 300

# Sharded-engine sweep past the single-core ceiling: counter-based
# per-node streams make a 1,048,576-node cohort one vectorized draw per
# trial, partitioned across 4 shards.
PAR_NODE_MTBF_S = 50.0
PAR_SIZES = [262_144, 1_048_576]
PAR_TRIALS = 200


def analytic_rows():
    rows = []
    for r in mtbf_table(NODE_MTBF_H, SIZES):
        week_s = JOB_DAYS * 86_400
        exp_scratch = expected_time_without_ckpt_s(
            week_s, NODE_MTBF_H * 3600, r.n_nodes
        )
        rows.append(
            (
                r.n_nodes,
                round(r.system_mtbf_h, 2),
                round(r.p_complete_1d, 4),
                (
                    "inf"
                    if math.isinf(r.expected_attempts_1d)
                    else round(r.expected_attempts_1d, 2)
                ),
                round(exp_scratch / week_s, 2),
            )
        )
    return rows


def simulated_rows():
    """Fleet-vectorized system-MTBF sweep through the grid runner.

    Each cell measures mean time-to-first-failure over ``SIM_TRIALS``
    trials drawn from the per-node streams; a 65,536-node machine costs
    one vectorized draw per trial instead of 65,536 scheduled events,
    so BlueGene/L scale is just another row.
    """
    cells = [
        Cell(
            "e12", e12_mtbf_cell,
            {"n_nodes": n, "node_mtbf_s": SIM_NODE_MTBF_S,
             "n_trials": SIM_TRIALS},
            seed=12,
        )
        for n in SIM_SIZES
    ]
    doc = GridRunner(workers=1).run(cells)
    rows = []
    for c in sorted(doc["cells"], key=lambda c: c["params"]["n_nodes"]):
        r = c["result"]
        rows.append(
            (
                r["n_nodes"],
                round(r["sim_system_mtbf_s"], 4),
                round(r["analytic_system_mtbf_s"], 4),
                round(r["sim_system_mtbf_s"] / r["analytic_system_mtbf_s"], 3),
            )
        )
    return rows


def parallel_rows():
    """E12 past one core: 262,144- and 1,048,576-node machines on the
    conservative time-windowed parallel engine (4 shards), validating
    the same 1/n law -- plus the hard gate that the folded obs export
    of the engine-driven probe is byte-identical at 1 and 4 shards.
    """
    cells = [
        Cell(
            "e12p", e12_parallel_cell,
            {"n_nodes": n, "node_mtbf_s": PAR_NODE_MTBF_S,
             "n_trials": PAR_TRIALS, "shards": 4},
            seed=12,
        )
        for n in PAR_SIZES
    ]
    doc = GridRunner(workers=1).run(cells)
    rows = []
    for c in sorted(doc["cells"], key=lambda c: c["params"]["n_nodes"]):
        r = c["result"]
        rows.append(
            (
                r["n_nodes"],
                r["shards"],
                round(r["sim_system_mtbf_s"], 6),
                round(r["analytic_system_mtbf_s"], 6),
                round(r["sim_system_mtbf_s"] / r["analytic_system_mtbf_s"], 3),
                r["windows"],
            )
        )
    # Byte-identity gate at the smaller size (one extra probe run).
    one = e12_parallel_cell(
        {"n_nodes": PAR_SIZES[0], "node_mtbf_s": PAR_NODE_MTBF_S,
         "n_trials": 1, "shards": 1}, seed=12)
    four = e12_parallel_cell(
        {"n_nodes": PAR_SIZES[0], "node_mtbf_s": PAR_NODE_MTBF_S,
         "n_trials": 1, "shards": 4}, seed=12)
    identical = to_json(one["obs"]) == to_json(four["obs"])
    return rows, identical


def measure():
    return analytic_rows(), simulated_rows(), parallel_rows()


def test_e12_mtbf_scaling(run_once):
    rows, sim_rows, (par_rows, par_identical) = run_once(measure)
    text = render_table(
        [
            "nodes",
            "system MTBF (h)",
            "P(1-day job survives)",
            "expected attempts (1-day job)",
            "E[time]/ideal (1-week job)",
        ],
        rows,
        title=f"E12. Failure scaling with machine size (node MTBF {NODE_MTBF_H:.0f} h).",
    )
    text += "\n\n" + render_table(
        ["nodes", "simulated system MTBF (s)", "analytic (s)", "ratio"],
        sim_rows,
        title=(
            f"Cross-validation: fleet-vectorized simulation, "
            f"{SIM_NODE_MTBF_S:.0f} s node MTBF, {SIM_TRIALS} trials/row."
        ),
    )
    text += "\n\n" + render_table(
        ["nodes", "shards", "simulated system MTBF (s)", "analytic (s)",
         "ratio", "windows"],
        par_rows,
        title=(
            f"Beyond one core: sharded parallel engine, "
            f"{PAR_NODE_MTBF_S:.0f} s node MTBF, {PAR_TRIALS} trials/row; "
            f"1-vs-4-shard obs exports byte-identical: "
            f"{'yes' if par_identical else 'NO'}."
        ),
    )
    report("e12_mtbf_scaling", text)

    by_n = {r[0]: r for r in rows}
    # System MTBF falls inversely with node count: at BlueGene/L scale a
    # 11-year node MTBF yields a machine MTBF of ~1.5 hours -- orders of
    # magnitude below day/week application runtimes.
    assert by_n[1][1] > 99_000
    assert by_n[65_536][1] < 2.0
    # A single node virtually always finishes a 1-day job...
    assert by_n[1][2] > 0.999
    # ...while at full scale the job almost never survives and the
    # expected number of scratch attempts explodes.
    assert by_n[65_536][2] < 0.001
    assert by_n[65_536][3] == "inf" or by_n[65_536][3] > 100
    # A week-long job's expected scratch completion time is absurd.
    assert by_n[65_536][4] > 100
    # The discrete-event simulation agrees with the analytic 1/n MTBF
    # law within 10% at every size -- including the BlueGene/L-scale
    # 65,536-node row, which must be present in the sweep.
    sim_by_n = {r[0]: r for r in sim_rows}
    assert 65_536 in sim_by_n
    for n in SIM_SIZES:
        sim, analytic = sim_by_n[n][1], system_mtbf_s(SIM_NODE_MTBF_S, n)
        assert abs(sim - analytic) / analytic < 0.10
    # The sharded engine carries the law past one core: the
    # million-node machine is present, still on the 1/n line, and the
    # engine-driven probe run folds to the same bytes at 1 and 4 shards.
    par_by_n = {r[0]: r for r in par_rows}
    assert 1_048_576 in par_by_n
    for n in PAR_SIZES:
        sim, analytic = par_by_n[n][2], system_mtbf_s(PAR_NODE_MTBF_S, n)
        assert abs(sim - analytic) / analytic < 0.10
    assert par_identical
