#!/usr/bin/env python3
"""The paper's figures, regenerated from the tree.

    python benchmarks/figures.py                 every figure (~2-3 min)
    python benchmarks/figures.py NAME [NAME ...]  just these

``FIGURES`` maps each stem under ``benchmarks/results/`` to a function
that runs the figure's driver, asserts the figure's shape, and returns
the rendered text (or ``(text, data)`` when the figure also has a JSON
sibling).  ``main`` writes ``<stem>.txt`` behind a machine-model header,
plus ``<stem>.json`` when there is data.  Every file is a pure function
of the tree: host time is measured by ``benchmarks/host``, not here, so
``git diff --exit-code -- benchmarks/results`` after a run is the check.
EXPERIMENTS.md walks through the expected shapes.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Tuple, Union

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np                                          # noqa: E402

from repro import apps, bench                               # noqa: E402
from repro.apps.graphs import sequential_transitive_closure  # noqa: E402
from repro.bench import format_series_table, format_speedup  # noqa: E402
from repro.core.cost_model import (LinearCostParams, best_radix,  # noqa: E402
                                   crossover_block_size,
                                   padded_beats_two_phase, padded_bruck_time,
                                   radix_cost, two_phase_bruck_time)
from repro.core.registry import get_algorithm               # noqa: E402
from repro.core.tuner import AutoTuner                      # noqa: E402
from repro.simmpi import (MACHINE_MODEL_VERSION, THETA,     # noqa: E402
                          ExecutionConfig, format_phase_table, format_summary,
                          run_spmd)
from repro.simmpi.tensor import TensorAlltoallv             # noqa: E402
from repro.timing import predict_alltoallv, predict_uniform  # noqa: E402
from repro.workloads import (NormalBlocks, PowerLawBlocks,  # noqa: E402
                             UniformBlocks, block_size_matrix, build_vargs,
                             distribution_by_name)

RESULTS = ROOT / "benchmarks" / "results"

Figure = Callable[[], Union[str, Tuple[str, dict]]]
FIGURES: Dict[str, Figure] = {}


def figure(fn: Figure) -> Figure:
    """Register ``fn`` under its own name, which is its results stem."""
    FIGURES[fn.__name__] = fn
    return fn


def run_alltoallv(algorithm: str, sizes, kernel_kwargs=None, **config):
    """Functional run of one registered non-uniform algorithm on the
    per-rank simulator.  ``kernel_kwargs`` go to the kernel (e.g.
    ``group_size``); ``config`` overrides :class:`ExecutionConfig` fields.

    The defaults are Theta, full tracing, coop and the phantom wire: a
    figure is a simulated-clock artifact, and phantom clocks are
    bit-identical to the bytes wire's (``test_backend_equivalence.py``).
    """
    fn = get_algorithm(algorithm, kind="nonuniform").fn
    config = ExecutionConfig(**{"machine": THETA, "trace": True,
                                "backend": "coop", "wire": "phantom",
                                **config})
    fill = config.wire == "bytes"

    def prog(comm):
        vargs = build_vargs(comm.rank, sizes, fill=fill)
        fn(comm, *vargs.as_tuple(), **(kernel_kwargs or {}))

    return run_spmd(prog, sizes.shape[0], config=config)


def render(name: str) -> Dict[str, str]:
    """The committed files of figure ``name``, keyed by file name."""
    out = FIGURES[name]()
    text, data = out if isinstance(out, tuple) else (out, None)
    files = {f"{name}.txt": f"# machine-model v{MACHINE_MODEL_VERSION}\n"
                            f"{text}\n"}
    if data is not None:
        doc = {"name": name, "machine_model_version": MACHINE_MODEL_VERSION,
               "data": data}
        files[f"{name}.json"] = json.dumps(doc, indent=2,
                                           sort_keys=True) + "\n"
    return files


def series_tables(panels) -> list:
    """One series table plus a blank line per :class:`FigureData`."""
    lines = []
    for fd in panels:
        lines += [format_series_table(fd.title, fd.x_header, fd.series,
                                      fd.xs), ""]
    return lines


# --- Fig. 2: uniform Bruck variants at N = 32 B -------------------------
# Zero-rotation is fastest everywhere, the datatype variants slowest, and
# the rotation share grows with P (paper §2.2).

FIG2_PROCS = (256, 512, 1024, 2048, 4096)


@figure
def fig2a_uniform_variants():
    fd = bench.fig2a_uniform_variants(procs=FIG2_PROCS)
    lines = [format_series_table(fd.title, fd.x_header, fd.series, fd.xs),
             ""]
    for p in FIG2_PROCS:
        lines.append(f"P={p}: fastest = {fd.winner(p)}")
        assert fd.winner(p) == "zero_rotation_bruck"
    return "\n".join(lines)


@figure
def fig2b_phase_breakdown():
    out = bench.fig2b_phase_breakdown(procs=FIG2_PROCS)
    lines = ["Fig. 2b: phase breakdown (ms), explicit-memcpy variants"]
    for p in FIG2_PROCS:
        lines.append(f"\nP = {p}")
        lines.append(f"{'variant':>22} {'init_rot':>10} {'comm':>10} "
                     f"{'final_rot':>10} {'index':>8}")
        for name, phases in out[p].items():
            lines.append(
                f"{name:>22} {phases['initial_rotation'] * 1e3:>10.4f} "
                f"{phases['communication'] * 1e3:>10.4f} "
                f"{phases['final_rotation'] * 1e3:>10.4f} "
                f"{phases['index_setup'] * 1e3:>8.5f}")
    return "\n".join(lines)


# --- Eqs. (1)-(3): the closed forms and Eq. (3)'s crossover -------------
# Padded wins only for tiny N; the analytic crossover N* declines with P.

@figure
def model_equations():
    procs = (128, 512, 2048, 8192, 32768)
    lines = ["Eq. (1)/(2) times (ms) and Eq. (3) predicate",
             f"{'P':>6} {'N':>6} {'padded':>12} {'two-phase':>12} "
             f"{'Eq3: padded wins':>17}"]
    for p in procs:
        prm = LinearCostParams.from_machine(THETA, nprocs=p)
        for n in (4, 8, 16, 64, 256, 1024):
            tpad = padded_bruck_time(p, n, prm)
            ttp = two_phase_bruck_time(p, n, prm)
            pred = padded_beats_two_phase(p, n, prm)
            lines.append(f"{p:>6} {n:>6} {tpad * 1e3:>12.4f} "
                         f"{ttp * 1e3:>12.4f} {str(pred):>17}")
            assert pred == (tpad < ttp)
    lines += ["", "Eq. (3) crossover N* by P:"]
    stars = []
    for p in procs:
        prm = LinearCostParams.from_machine(THETA, nprocs=p)
        stars.append(crossover_block_size(p, prm))
        lines.append(f"  P={p}: N* = {stars[-1]:.1f} bytes")
    assert all(s >= 8 for s in stars)
    assert stars == sorted(stars, reverse=True)
    return "\n".join(lines)


# --- Fig. 6: data scaling, N = 16..2048 per P ---------------------------
# Two-phase beats the vendor for small-to-moderate N, and the winning
# range shrinks with P (crossovers 1024/512/256/128 at P = 4096..32768).

def _fig6(procs):
    out = bench.fig6_data_scaling(
        procs=procs, blocks=(16, 32, 64, 128, 256, 512, 1024, 2048),
        iterations=5)
    lines = []
    for fd in out.values():
        lines.append(format_series_table(fd.title, fd.x_header, fd.series,
                                         fd.xs))
        cross = max((n for n in fd.xs
                     if fd.series["two_phase_bruck"][n].median
                     < fd.series["vendor_alltoallv"][n].median), default=0)
        lines.append(f"two-phase beats vendor up to N = {cross}\n")
    return "\n".join(lines), out


@figure
def fig6_data_scaling_small_p():
    # Under the piecewise eager model P=128 has a mid-band at N=256-512
    # where the direct schemes win: two-phase's forwarded volume crosses
    # the eager threshold first, while 127 direct messages are still
    # cheap.  Two-phase recovers by N=1024.
    text, out = _fig6((128, 512, 1024))
    for fd in out.values():
        assert fd.winner(16) in ("padded_bruck", "two_phase_bruck")
        assert fd.winner(1024) == "two_phase_bruck"
    for p in (512, 1024):
        assert out[p].winner(256) in ("padded_bruck", "two_phase_bruck")
    assert out[128].winner(256) in ("spread_out", "vendor_alltoallv")
    return text


@figure
def fig6_data_scaling_large_p():
    return _fig6((4096, 8192, 16384, 32768))[0]


@figure
def fig6_speedup_quotes():
    """The paper's §4.1 N=256 speedup series: 50.1/38.5/35.8/30.8 %."""
    procs = (512, 1024, 2048, 4096)
    out = bench.fig6_data_scaling(procs=procs, blocks=(256,), iterations=5)
    lines = ["Paper quote (N=256): two-phase is 50.1%, 38.5%, 35.8%, 30.8% "
             "faster than MPI_Alltoallv at P=512, 1024, 2048, 4096.",
             "Reproduced:"]
    for p in procs:
        series = out[p].series
        lines.append(f"  P={p}: " + format_speedup(
            "two_phase_bruck", series["two_phase_bruck"][256].median,
            "vendor_alltoallv", series["vendor_alltoallv"][256].median))
    return "\n".join(lines)


# --- Fig. 7: weak scaling at N = 64 and 512 -----------------------------
# Time grows with P; two-phase beats the vendor through 32K ranks at
# N = 64 but only through 8K at N = 512.

FIG7_PROCS = (128, 512, 1024, 4096, 8192, 16384, 32768)


@figure
def fig7_weak_scaling_n64():
    fd = bench.fig7_weak_scaling(block_nbytes=64, procs=FIG7_PROCS,
                                 iterations=5)
    tp = fd.series["two_phase_bruck"]
    vendor = fd.series["vendor_alltoallv"]
    for p in FIG7_PROCS:
        assert tp[p].median < vendor[p].median, p
    gain = 1 - tp[8192].median / vendor[8192].median
    assert 0.25 < gain < 0.8  # paper: 39.8 %
    return (format_series_table(fd.title, fd.x_header, fd.series, fd.xs)
            + f"\n\nimprovement at P=8192: {gain * 100:.1f}% (paper: 39.8%)")


@figure
def fig7_weak_scaling_n512():
    fd = bench.fig7_weak_scaling(block_nbytes=512, procs=FIG7_PROCS,
                                 iterations=5)
    for name, pts in fd.series.items():
        vals = [pts[p].median for p in FIG7_PROCS]
        assert vals == sorted(vals), name
    return format_series_table(fd.title, fd.x_header, fd.series, fd.xs)


# --- Fig. 8: sensitivity at P = 4096 ------------------------------------
# Windowed-uniform sizes (100-r)%..100% of N.  Two-phase wins every window
# at N <= 512; time shrinks with the window's average load.

@figure
def fig8_sensitivity():
    blocks, rs = (16, 64, 256, 512, 1024), (100, 80, 60, 40, 20)
    out = bench.fig8_sensitivity(nprocs=4096, blocks=blocks, r_values=rs,
                                 iterations=3)
    lines = ["Fig. 8: sensitivity at P=4096 (times in ms; windows labelled "
             "(100-r)-r as in the paper)",
             f"{'N':>6} {'window':>10} {'vendor':>10} {'two-phase':>10} "
             f"{'padded':>10}  winner"]
    for n in blocks:
        for r in rs:
            row = out[(n, r)]
            winner = min(row, key=lambda k: row[k].median)
            lines.append(f"{n:>6} {f'{100 - r}-{r}':>10} "
                         f"{row['vendor_alltoallv'].median * 1e3:>10.3f} "
                         f"{row['two_phase_bruck'].median * 1e3:>10.3f} "
                         f"{row['padded_bruck'].median * 1e3:>10.3f}  "
                         f"{winner}")
            if n <= 512:
                assert row["two_phase_bruck"].median \
                    < row["vendor_alltoallv"].median, (n, r)
    for n in (256, 1024):
        assert out[(n, 100)]["two_phase_bruck"].median \
            < out[(n, 20)]["two_phase_bruck"].median
    return "\n".join(lines)


# --- Fig. 9: the empirical performance model ----------------------------
# The two-phase frontier declines with P; the padded niche exists only at
# small N and P; even at 32K ranks N <= 128 still favours two-phase.

@figure
def fig9_performance_model():
    model = bench.fig9_performance_model(
        procs=(128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768),
        blocks=(16, 32, 64, 128, 256, 512, 1024, 2048))
    lines = [model.describe(), ""]
    for p, n in ((350, 800), (4096, 100), (4096, 2000), (32768, 64),
                 (256, 4)):
        lines.append(f"recommend(P={p}, N={n}) -> {model.recommend(p, n)}")
    frontier = {c.nprocs: c.max_block for c in model.two_phase_frontier}
    assert [frontier[p] for p in (4096, 8192, 16384, 32768)] \
        == [1024, 512, 256, 128]
    padded = {c.nprocs: c.max_block for c in model.padded_frontier}
    assert padded[128] > 0
    assert model.recommend(4096, 100) == "two_phase_bruck"
    assert model.recommend(32768, 2048) == "vendor"
    return "\n".join(lines)


# --- Fig. 10: power-law and normal sizes at P = 4096/8192 ---------------
# Under both power-law bases two-phase wins for N <= 1024; under the
# heavier normal load the vendor overtakes at a smaller N.  Machine-model
# v2: at the heaviest power-law cell (0.999, P=8192) the piecewise eager
# model pulls the crossover below 1024, so the vendor wins that one cell.

@figure
def fig10_distributions():
    procs = (4096, 8192)
    out = bench.fig10_distributions(procs=procs,
                                    blocks=(16, 64, 256, 1024, 2048),
                                    iterations=3)

    def wins(label, p, n):
        series = out[(label, p)].series
        return series["two_phase_bruck"][n].median \
            < series["vendor_alltoallv"][n].median

    for label in ("power_law_0.99", "power_law_0.999"):
        for p in procs:
            for n in (16, 64, 256, 1024):
                if (label, p, n) != ("power_law_0.999", 8192, 1024):
                    assert wins(label, p, n), (label, p, n)
    assert not wins("power_law_0.999", 8192, 1024)
    for p in procs:
        assert not wins("normal", p, 2048)
    ratio = NormalBlocks(1024).mean / PowerLawBlocks(1024, 0.99).mean
    lines = series_tables(out.values())
    lines.append(f"normal/power-law(0.99) mean-load ratio at N=1024: "
                 f"{ratio:.1f}x (paper: ~7.8x)")
    return "\n".join(lines)


# --- Fig. 11: transitive closure strong scaling -------------------------
# The real TC application at 8-48 simulated ranks (the paper: 256-2048).
# Two-phase improves Graph 1 (high diameter, cheap iterations), more so
# with P, and does not win on Graph 2 (dense, heavy iterations).

@figure
def fig11_tc_strong_scaling():
    procs = (8, 16, 32, 48)
    out = apps.fig11_tc_strong_scaling(procs=procs)
    lines = ["Fig. 11: TC strong scaling (simulated seconds, Theta profile)",
             f"{'graph':>8} {'P':>4} {'vendor':>10} {'two-phase':>10} "
             f"{'improv%':>8} {'iters':>6} {'closure':>9}"]
    gains1 = []
    for gname, per_p in out.items():
        for p, res in per_p.items():
            vendor, tp = res["vendor"], res["two_phase_bruck"]
            gain = 1 - tp.elapsed_seconds / vendor.elapsed_seconds
            if gname == "graph1":
                gains1.append(gain)
            lines.append(
                f"{gname:>8} {p:>4} {vendor.elapsed_seconds * 1e3:>10.2f} "
                f"{tp.elapsed_seconds * 1e3:>10.2f} {gain * 100:>8.1f} "
                f"{tp.iterations:>6} {tp.closure_size:>9}")
    for gname, edges in (("graph1", apps.graph1(1.0)),
                         ("graph2", apps.graph2(1.0))):
        assert out[gname][procs[0]]["vendor"].closure_size \
            == len(sequential_transitive_closure(edges))
    assert gains1[-1] > 0.02, "two-phase must win on graph1 at scale"
    assert gains1[-1] > gains1[0], "improvement must grow with P"
    it1 = out["graph1"][procs[0]]["vendor"].iterations
    it2 = out["graph2"][procs[0]]["vendor"].iterations
    lines.append(f"\niterations: graph1={it1}, graph2={it2} "
                 f"(paper: 2,933 vs 89)")
    return "\n".join(lines)


# --- Fig. 12: kCFA-8 per-iteration comm time and block size -------------
# 32 simulated ranks / ~100 iterations (the paper: 4096 / 4,300).  N stays
# small for most iterations, so two-phase wins most of them and the total.

@figure
def fig12_kcfa():
    data = apps.fig12_kcfa(nprocs=32, k=8, n_payloads=6, chain_len=12)
    tp = data.results["two_phase_bruck"]
    vendor = data.results["vendor"]
    ns = data.n_series()
    wins = data.wins("two_phase_bruck", "vendor")
    lines = ["Fig. 12: kCFA-8 (32 simulated ranks, Theta profile)",
             f"iterations: {data.iterations} (paper: 4,300 at P=4096)",
             f"total facts: {tp.total_facts}",
             f"all-to-all time: vendor={vendor.comm_seconds * 1e3:.2f} ms, "
             f"two-phase={tp.comm_seconds * 1e3:.2f} ms",
             f"total time: vendor={vendor.elapsed_seconds * 1e3:.2f} ms, "
             f"two-phase={tp.elapsed_seconds * 1e3:.2f} ms",
             f"two-phase wins {wins} of {data.iterations} iterations",
             f"N per iteration: min={min(ns)} max={max(ns)} "
             f"median={int(np.median(ns))}",
             "",
             f"{'iter':>5} {'N(bytes)':>9} {'vendor(us)':>11} "
             f"{'two-phase(us)':>13}"]
    series = zip(ns, data.comm_series("vendor"),
                 data.comm_series("two_phase_bruck"))
    for i, (n, v, t) in enumerate(series, 1):
        lines.append(f"{i:>5} {n:>9} {v * 1e6:>11.1f} {t * 1e6:>13.1f}")
    assert tp.total_facts == vendor.total_facts
    assert max(ns) > 2 * min(n for n in ns if n > 0)
    assert wins > data.iterations // 2
    assert tp.comm_seconds < vendor.comm_seconds  # paper: 74 s -> 38 s
    return "\n".join(lines)


# --- Fig. 13: Cori and Stampede2, and a ppn sweep -----------------------
# Two-phase beats the vendor on both machines.  The ppn sweep trades the
# locality-aware variants' wall-clock (one leader serializes a node's
# injection share) for far fewer inter-node messages and bytes.

@figure
def fig13_other_machines():
    procs = (128, 512, 2048, 8192, 32768)
    out = bench.fig13_other_machines(procs=procs, iterations=3)
    assert set(out) == {"cori", "stampede2"}
    for mname, fd in out.items():
        tp = fd.series["two_phase_bruck"]
        vendor = fd.series["vendor_alltoallv"]
        for p in procs:
            assert tp[p].median < vendor[p].median, (mname, p)
    return "\n".join(series_tables(out.values()))


def _inter_node(result, ppn: int):
    """(count, bytes) of messages crossing a node boundary."""
    sends = [e for tr in result.traces for e in tr.sends
             if e.src // ppn != e.dst // ppn]
    return len(sends), sum(e.nbytes for e in sends)


@figure
def fig13_ppn_sweep():
    nprocs, ppns = 256, (1, 4, 16, 64)
    pairs = (("padded_bruck", "locality_padded_bruck"),
             ("two_phase_bruck", "locality_two_phase_bruck"))
    sizes = block_size_matrix(distribution_by_name("normal", 64), nprocs,
                              seed=3)
    rows = {}
    for ppn in ppns:
        machine = THETA.with_overrides(ppn=ppn)
        rows[ppn] = {}
        for name in (a for pair in pairs for a in pair):
            res = run_alltoallv(name, sizes, machine=machine)
            rows[ppn][name] = (max(res.clocks),) + _inter_node(res, ppn)
    lines = [f"Fig. 13 (ppn sweep): locality-aware vs flat Bruck at "
             f"P={nprocs}, normal dist, N=64 B (theta)",
             "-" * 74,
             f"{'ppn':>4} {'algorithm':>26} {'sim ms':>9} "
             f"{'inter msgs':>11} {'inter MB':>9}"]
    for ppn in ppns:
        for name in (a for pair in pairs for a in pair):
            t, msgs, nbytes = rows[ppn][name]
            lines.append(f"{ppn:>4} {name:>26} {t * 1e3:>9.3f} "
                         f"{msgs:>11} {nbytes / 1e6:>9.3f}")
        lines.append("")
    for flat, loc in pairs:
        # ppn=1 is the flat machine: the locality kernels delegate.
        assert rows[1][loc] == rows[1][flat], (flat, loc)
        for ppn in ppns[1:]:
            assert rows[ppn][loc][1] < rows[ppn][flat][1], (loc, ppn)
            assert rows[ppn][loc][2] < rows[ppn][flat][2], (loc, ppn)
        # The intra-tier discount alone speeds up the flat kernels.
        assert rows[64][flat][0] < rows[1][flat][0], flat
    return "\n".join(lines)


# --- Model ablations (DESIGN.md §5) -------------------------------------
# The eager bandwidth tier carries the main result, congestion carries
# the frontier's decline with P, and rotation elimination carries
# zero-rotation's win over basic Bruck.

def _crossover(machine, p):
    best = 0
    for n in (16, 32, 64, 128, 256, 512, 1024, 2048):
        tp, vendor = (predict_alltoallv(alg, machine, p, UniformBlocks(n),
                                        seed=1).elapsed
                      for alg in ("two_phase_bruck", "vendor"))
        if tp < vendor:
            best = n
    return best


@figure
def ablation_eager_tier():
    with_tier = _crossover(THETA, 4096)
    without = _crossover(THETA.with_overrides(eager_factor=1.0), 4096)
    assert with_tier >= 512
    assert without < with_tier
    return (f"crossover N* at P=4096 with eager tier: {with_tier}\n"
            f"crossover N* at P=4096 without eager tier: {without}")


@figure
def ablation_congestion():
    free = THETA.with_overrides(congestion_procs=1e12)
    with_c = (_crossover(THETA, 4096), _crossover(THETA, 32768))
    without = (_crossover(free, 4096), _crossover(free, 32768))
    with_drop = with_c[0] / max(with_c[1], 1)
    without_drop = without[0] / max(without[1], 1)
    assert with_drop > without_drop
    return (f"frontier drop 4096->32768 with congestion: "
            f"{with_c[0]} -> {with_c[1]} ({with_drop:.0f}x)\n"
            f"without congestion: {without[0]} -> {without[1]} "
            f"({without_drop:.0f}x)")


@figure
def ablation_rotation_elimination():
    basic = predict_uniform("basic_bruck", THETA, 4096, 32)
    zero = predict_uniform("zero_rotation_bruck", THETA, 4096, 32)
    saved = basic.initial_rotation + basic.final_rotation
    gain = basic.total - zero.total
    comm_diff = abs(basic.communication - zero.communication)
    # The gain is the rotations: communication is nearly identical.
    assert comm_diff < 0.2 * saved
    assert gain > 0.6 * saved
    return (f"basic rotations cost: {saved * 1e3:.3f} ms\n"
            f"total gain of zero-rotation: {gain * 1e3:.3f} ms\n"
            f"comm time difference: {comm_diff * 1e3:.4f} ms")


# --- Radix crossover table and auto-tuner convergence -------------------
# The closed form over a (P, N) grid: latency-bound cells stay at r=2,
# bandwidth-bound ones flip to r in 8..64.  Then tensor runs of one
# crossover cell (P=512, N=1024) grow a ledger one run at a time: the
# tuner starts model-sourced and settles, from evidence, on r=8.

@figure
def radix_crossover():
    alg = "two_phase_bruck"
    procs, blocks = (512, 2048, 8192, 32768), (16, 256, 1024, 2048)
    radices = (2, 4, 8, 16, 32)
    sim_p, sim_n, sim_radices = 512, 1024, (2, 4, 8)
    rows = []
    for p in procs:
        for n in blocks:
            costs = {r: radix_cost(alg, p, n, THETA, radix=r)
                     for r in radices if r <= p}
            rows.append((p, n, costs, best_radix(
                p, n, THETA, algorithm=alg, radices=tuple(costs))))

    rounds = 3  # appends per radix: exactly AutoTuner's min_samples
    sim = {}
    with tempfile.TemporaryDirectory() as tmp:
        ledger = str(Path(tmp) / "radix_ledger.jsonl")
        tuner = AutoTuner(THETA, ledger)
        trajectory = [(0, None, tuner.decide(sim_p, sim_n,
                                             algorithm=alg))]
        config = ExecutionConfig(machine=THETA, trace="metrics",
                                 backend="tensor", wire="phantom",
                                 ledger=ledger)
        for _ in range(rounds):
            for radix in sim_radices:
                sim[radix] = run_spmd(
                    TensorAlltoallv(alg, sim_n, radix=radix),
                    sim_p, config=config)
                tuner.refresh()
                trajectory.append((len(trajectory), radix, tuner.decide(
                    sim_p, sim_n, algorithm=alg)))

    lines = [f"radix crossover: {alg} closed form (Theta profile, "
             f"per-rank seconds; * = winning radix)",
             f"{'P':>6} {'N':>5} " + " ".join(f"{'r=' + str(r):>11}"
                                              for r in radices)]
    for p, n, costs, winner in rows:
        lines.append(f"{p:>6} {n:>5} " + " ".join(
            f"{costs[r]:>10.6f}{'*' if r == winner else ' '}"
            if r in costs else f"{'n/a':>11}" for r in radices))
    lines += ["", f"simulated check (tensor backend, P={sim_p}, "
                  f"N={sim_n} const):"]
    for radix in sim_radices:
        res = sim[radix]
        lines.append(f"  r={radix}: {res.elapsed * 1e3:9.4f} ms  "
                     f"{res.total_messages:>6} msgs  "
                     f"{res.total_bytes:>9} bytes")
    lines += ["", f"auto-tuner trajectory (min_samples="
                  f"{AutoTuner(THETA).min_samples}, ledger grown one "
                  f"tensor run at a time):"]
    for runs, appended, d in trajectory:
        label = "cold" if runs == 0 else f"after run {runs} (r={appended})"
        mean = f", mean {d.expected_s * 1e3:.4f} ms" if d.expected_s else ""
        lines.append(f"  {label:>20}: radix {d.radix:>2} from "
                     f"{d.source}{mean}")

    # The dial matters: some cell flips past r=2, some stays, and the
    # winning radix is monotone in N at the largest P.
    winners = {(p, n): w for p, n, _, w in rows}
    assert any(w > 2 for w in winners.values())
    assert any(w == 2 for w in winners.values())
    big = [winners[(procs[-1], n)] for n in blocks]
    assert big == sorted(big)
    # The simulator agrees with the closed form's direction.
    assert sim[8].elapsed < sim[2].elapsed
    assert sim[8].total_messages > sim[2].total_messages
    assert sim[8].total_bytes < sim[2].total_bytes
    # Cold decisions come from the model; warm ones from the ledger alone.
    assert trajectory[0][2].source == "model"
    final = trajectory[-1][2]
    assert final.source == "ledger"
    assert final.radix == min(sim_radices, key=lambda r: sim[r].elapsed) > 2
    assert final.samples >= rounds

    data = {
        "algorithm": alg,
        "machine": "theta",
        "crossover": [
            {"nprocs": p, "max_block": n, "best_radix": winner,
             "cost_s": {str(r): costs[r] for r in costs}}
            for p, n, costs, winner in rows],
        "simulated_cell": {
            "nprocs": sim_p, "max_block": sim_n,
            "runs": [{"radix": r, "simulated_s": sim[r].elapsed,
                      "messages": sim[r].total_messages,
                      "bytes": sim[r].total_bytes} for r in sim_radices]},
        "tuner_trajectory": [
            {"ledger_runs": runs, "appended_radix": appended,
             "algorithm": d.algorithm, "radix": d.radix,
             "source": d.source, "samples": d.samples,
             "expected_s": d.expected_s}
            for runs, appended, d in trajectory],
    }
    return "\n".join(lines), data


# --- §6.1: two-phase Bruck vs SLOAV -------------------------------------
# SLOAV's overheads (extra copy passes, final rotation and scan) grow
# with the data volume; two-phase's fixed cost is one allreduce, so
# two-phase pulls ahead as P*N grows.

@figure
def sloav_comparison():
    rows = []
    for p, n in ((32, 64), (64, 256), (128, 1024), (256, 2048)):
        sizes = block_size_matrix(UniformBlocks(n), p, seed=1)
        rows.append((p, n) + tuple(
            run_alltoallv(alg, sizes, trace=False).elapsed
            for alg in ("sloav", "two_phase_bruck")))
    lines = ["§6.1: two-phase Bruck vs SLOAV (functional runs, Theta)",
             f"{'P':>6} {'N':>6} {'SLOAV(ms)':>11} {'two-phase(ms)':>14} "
             f"{'tp faster':>10}"]
    for p, n, sloav, tp in rows:
        lines.append(f"{p:>6} {n:>6} {sloav * 1e3:>11.3f} {tp * 1e3:>14.3f} "
                     f"{(1 - tp / sloav) * 100:>9.1f}%")
    gains = [1 - tp / sloav for _, _, sloav, tp in rows]
    assert gains[-1] > 0, "two-phase must beat SLOAV at the largest config"
    assert gains[-1] > gains[0]
    return "\n".join(lines)


@figure
def sloav_phase_overheads():
    sizes = block_size_matrix(UniformBlocks(256), 32, seed=2)
    sloav, tp = (run_alltoallv(alg, sizes).phase_times()
                 for alg in ("sloav", "two_phase_bruck"))
    assert "final_rotation" not in tp and "scan" not in tp
    return "\n".join([
        format_phase_table(sloav,
                           header="SLOAV phase split (max over ranks, ms):"),
        format_phase_table(tp, header="two-phase phase split (ms):")])


# --- §6: grouped (leader-based) alltoallv -------------------------------
# The leader scheme slashes cross-group messages, but its two extra
# store-and-forward hops carry full volume, so Bruck stays faster here.

@figure
def grouped_related_work():
    p, n = 64, 64
    sizes = block_size_matrix(UniformBlocks(n), p, seed=1)
    rows = {f"grouped(g={g})": run_alltoallv("grouped", sizes,
                                             {"group_size": g})
            for g in (2, 4, 8, 16)}
    for alg in ("spread_out", "two_phase_bruck"):
        rows[alg] = run_alltoallv(alg, sizes)
    lines = [f"§6 grouped alltoallv at P={p}, N={n} (Theta profile)",
             f"{'scheme':>18} {'time(ms)':>10} {'messages':>9} "
             f"{'wire bytes':>11}"]
    for name, res in rows.items():
        lines.append(f"{name:>18} {res.elapsed * 1e3:>10.3f} "
                     f"{res.total_messages:>9} {res.total_bytes:>11}")
    g8, spread = rows["grouped(g=8)"], rows["spread_out"]
    assert g8.total_messages < spread.total_messages / 4
    assert g8.total_bytes > spread.total_bytes
    assert rows["two_phase_bruck"].elapsed < g8.elapsed
    lines += ["", format_summary(rows["two_phase_bruck"],
                                 "two_phase_bruck run detail:")]
    return "\n".join(lines)


# --- Executor scaling: coop vs the tensor backend -----------------------
# The same two-phase run under both backends.  Simulated clocks are
# asserted bit-identical wherever both run; host time is measured (tensor
# must overtake coop somewhere in the overlap) but not printed.

@figure
def backend_scaling():
    n, coop_max, alg = 32, 1024, "two_phase_bruck"
    rows, overtakes = [], False
    for p in (32, 64, 128, 256, 512, 1024, 2048, 4096):
        sizes = block_size_matrix(PowerLawBlocks(n), p, seed=3)
        start = time.perf_counter()
        res = run_spmd(TensorAlltoallv(alg, sizes), p, config=ExecutionConfig(
            machine=THETA, trace="metrics", backend="tensor", wire="phantom"))
        tensor_wall = time.perf_counter() - start
        if p <= coop_max:
            # coop on the bytes wire: the executor under real transport.
            start = time.perf_counter()
            coop = run_alltoallv(alg, sizes, trace=False, wire="bytes")
            overtakes |= tensor_wall < time.perf_counter() - start
            assert coop.clocks == res.clocks
        rows.append((p, res))
    assert rows[-1][0] > coop_max and rows[-1][1].elapsed > 0
    assert overtakes, "tensor never beat coop in the overlap region"
    lines = [f"executor scaling: {alg}, power-law N={n} (Theta profile)",
             f"{'P':>6} {'simulated(ms)':>14} {'messages':>9}"]
    for p, res in rows:
        lines.append(f"{p:>6} {res.elapsed * 1e3:>14.4f} "
                     f"{res.total_messages:>9}")
    lines += ["", f"coop and tensor clocks asserted bit-identical through "
                  f"P={coop_max}; coop is not attempted past it (practical "
                  f"per-rank-program limit); the tensor backend continues "
                  f"to P={rows[-1][0]} here and to P=32768 in the "
                  f"tensor-scale-smoke CI job."]
    data = {
        "algorithm": alg,
        "distribution": f"power_law(N={n})",
        "machine": "theta",
        "rows": [
            {"nprocs": p,
             "simulated_s": res.elapsed,
             "messages": res.total_messages,
             "bytes": res.total_bytes,
             "max_in_flight": res.metrics.max_in_flight,
             "queue_wait_total_s": res.metrics.queue_wait_total,
             "attribution": res.critical_path().bucket_totals()}
            for p, res in rows],
    }
    return "\n".join(lines), data


# --- Wire modes: phantom vs the bytes wire ------------------------------
# Phantom envelopes carry only nbytes, with the identical simulated
# charges: clocks, messages and bytes are asserted equal per row.  Host
# time is measured, not printed: the copy-heavy headline row (padded,
# P=256) must run >= 2x faster on phantom.  The bar was 5x before the
# vectorized zero-copy bytes path cut the bytes wire's host time ~20x.

@figure
def wire_modes():
    rows, speedup = [], {}
    for alg, p, n in (("two_phase_bruck", 256, 4096),
                      ("padded_bruck", 256, 8192),
                      ("two_phase_bruck", 512, 8192)):
        sizes = block_size_matrix(PowerLawBlocks(n), p, seed=3)
        wall, res = {}, {}
        for wire in ("bytes", "phantom"):
            start = time.perf_counter()
            res[wire] = run_alltoallv(alg, sizes, trace=False, wire=wire)
            wall[wire] = time.perf_counter() - start
        ph, by = res["phantom"], res["bytes"]
        assert ph.clocks == by.clocks
        assert ph.total_messages == by.total_messages
        assert ph.total_bytes == by.total_bytes
        speedup[(alg, p, n)] = wall["bytes"] / wall["phantom"]
        rows.append(f"{alg:>16} {p:>5} {n:>6} {ph.elapsed * 1e3:>14.4f}")
    headline = speedup[("padded_bruck", 256, 8192)]
    assert headline >= 2.0, \
        f"headline phantom speedup {headline:.1f}x below 2.0x"
    return "\n".join(
        ["wire modes: bytes vs phantom transport, power-law "
         "(Theta profile, coop backend)",
         f"{'algorithm':>16} {'P':>5} {'N':>6} {'simulated(ms)':>14}",
         *rows, "",
         "simulated clocks, message counts and wire bytes are asserted "
         "bit-identical per row; phantom differs only in host-side data "
         "movement."])


# --- Reliability transport and verified-transport overheads -------------
# Simulated completion time against the clean fabric under seeded plans;
# every cell is deterministic.  Retransmissions serialize behind the RTO
# backoff, so chatty schemes pay more; the zero-drop row is the pure ack
# cost (one o_send per delivered message).

@figure
def fault_overhead():
    nprocs, n, seed = 64, 1024, 11
    lines = ["reliability transport overhead vs drop rate "
             f"(P={nprocs}, power-law N={n}, Theta profile, coop "
             "backend, phantom wire, fixed fault seed)",
             f"{'algorithm':>16} {'drop':>6} {'clean(ms)':>10} "
             f"{'retry(ms)':>10} {'overhead':>9} {'drops':>6} "
             f"{'retries':>8}"]
    for alg in ("two_phase_bruck", "spread_out", "padded_bruck"):
        sizes = block_size_matrix(PowerLawBlocks(n), nprocs, seed=3)
        clean = run_alltoallv(alg, sizes, trace="metrics", fault_plan=None,
                              fault_seed=seed,
                              on_fault="fail-fast").elapsed
        for rate in (0.0, 0.01, 0.05, 0.10):
            res = run_alltoallv(alg, sizes, trace="metrics",
                                fault_plan=f"drop:p={rate}" if rate else None,
                                fault_seed=seed, on_fault="retry",
                                reliability="retry")
            counts = res.metrics.fault_counts
            lines.append(
                f"{alg:>16} {rate:>6.2f} {clean * 1e3:>10.4f} "
                f"{res.elapsed * 1e3:>10.4f} "
                f"{(res.elapsed / clean - 1.0) * 100.0:>8.2f}% "
                f"{counts.get('drop', 0):>6} {counts.get('retry', 0):>8}")
            assert res.elapsed >= clean
    lines += ["", "overhead = simulated completion time vs the same "
                  "algorithm on a clean fabric without the transport; the "
                  "0.00 row is the pure ack cost (one o_send per delivered "
                  "message)."]
    return "\n".join(lines)


# Verify = retry plus a checksum and auth tag per message: its clean rows
# price two hash passes per message, its Byzantine rows add one
# retransmission per detection.  The workload is spread_out, which ships
# no count metadata, so the unverified chaos cell degrades bytes instead
# of aborting on a corrupted count (test_chaos.py's arm 4).

@figure
def verify_overhead():
    byzantine, seed = "corrupt:p=0.02;forge:p=0.01", 23
    tiers = (("none", None, "fail-fast"), ("retry", "retry", "retry"),
             ("verify", "verify", "retry"))
    lines = [f"verified-transport overhead (spread_out, power-law "
             f"N=1024, Theta profile, coop backend, phantom wire, "
             f"byzantine plan '{byzantine}' seed={seed})",
             f"{'P':>4} {'fabric':>9} {'tier':>7} {'sim(ms)':>10} "
             f"{'overhead':>9} {'messages':>9} {'bytes':>12} "
             f"{'detected':>9} {'rejected':>9}"]
    for nprocs in (64, 256):
        sizes = block_size_matrix(PowerLawBlocks(1024), nprocs, seed=3)
        for fabric, plan in (("clean", None), ("byzantine", byzantine)):
            for label, reliability, on_fault in tiers:
                if plan and reliability is None:
                    continue  # undetected tampering: nothing to time
                res = run_alltoallv("spread_out", sizes, trace="metrics",
                                    fault_plan=plan,
                                    fault_seed=seed,
                                    on_fault=on_fault,
                                    reliability=reliability)
                if reliability is None:
                    base = res.elapsed
                m = res.metrics
                lines.append(
                    f"{nprocs:>4} {fabric:>9} {label:>7} "
                    f"{res.elapsed * 1e3:>10.4f} "
                    f"{(res.elapsed / base - 1.0) * 100.0:>8.2f}% "
                    f"{m.total_messages:>9} {m.total_bytes:>12} "
                    f"{m.fault_counts.get('corrupt_detected', 0):>9} "
                    f"{m.fault_counts.get('forge_rejected', 0):>9}")
                assert res.elapsed >= base
    lines += ["", "overhead = simulated completion time vs the bare lossy "
                  "wire on a clean fabric at the same P.  verify's clean "
                  "rows price the integrity tier itself (two hash passes "
                  "per message); its byzantine rows add one retransmission "
                  "per detection.  retry/byzantine completes but its "
                  "buffers are NOT byte-correct (no integrity checking) — "
                  "clock comparison only."]
    return "\n".join(lines)


def main(names) -> int:
    unknown = [n for n in names if n not in FIGURES]
    if unknown:
        print(f"unknown figure: {' '.join(unknown)}\nvalid names: "
              f"{' '.join(sorted(FIGURES))}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    for name in names or FIGURES:
        start = time.perf_counter()
        for fname, content in render(name).items():
            (RESULTS / fname).write_text(content)
        print(f"{name}: {time.perf_counter() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
