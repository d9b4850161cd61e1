"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``predict``    analytic simulated time of one alltoallv configuration
``run``        functional simulator run with byte verification
``trace``      functional run exported as a Chrome/Perfetto timeline
``recommend``  the Fig. 9 advisor: which algorithm for (P, N)?
``profiles``   list the machine profiles and their constants
``sweep``      a data-scaling sweep (one Fig. 6 panel) as a table

Examples
--------
::

    python -m repro predict -a two_phase_bruck -p 8192 -n 256
    python -m repro run -a padded_bruck -p 32 -n 64 --machine local
    python -m repro run -a two_phase_bruck -p 1024 -n 8
    python -m repro run -a sloav -p 32768 -n 64 --backend tensor \\
        --wire phantom --dist const
    python -m repro trace --algorithm two_phase_bruck --nprocs 64 \\
        --out trace.json --critical-path
    python -m repro trace -a two_phase_bruck -p 32768 -n 64 --dist const \\
        --backend tensor --level metrics
    python -m repro run -a two_phase_bruck -p 1024 -n 512 \\
        --backend tensor --wire phantom --dist const --radix auto \\
        --ledger runs.jsonl
    python -m repro recommend -p 350 -n 800
    python -m repro sweep -p 4096
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from .bench import fig6_data_scaling, format_series_table
from .core import PerformanceModel, alltoallv
from .core.registry import list_algorithms
from .simmpi import (
    BACKENDS,
    KNOWN_FAULT_CLAUSES,
    ON_FAULT_POLICIES,
    PROFILES,
    WIRE_MODES,
    ExecutionConfig,
    SimMPIError,
    TensorAlltoallv,
    get_profile,
    run_spmd,
)
from .timing import predict_alltoallv
from .workloads import (
    block_size_matrix,
    build_vargs,
    distribution_by_name,
    verify_recv,
)

ALGORITHM_CHOICES = list_algorithms("nonuniform")


def _radix_arg(value: str):
    """``--radix`` argument: a digit base >= 2, or ``auto`` (run only)."""
    if value == "auto":
        return "auto"
    try:
        radix = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"radix must be an integer >= 2 or 'auto', got {value!r}")
    if radix < 2:
        raise argparse.ArgumentTypeError(
            f"radix must be >= 2, got {radix}")
    return radix


def _check_radix_capable(algorithm: str, radix) -> Optional[str]:
    from .core.registry import get_algorithm, radix_algorithms
    if radix in (2, "auto"):
        return None
    if not get_algorithm(algorithm, "nonuniform").supports_radix:
        return (f"algorithm {algorithm!r} does not support --radix "
                f"{radix}; radix-capable: "
                f"{', '.join(radix_algorithms('nonuniform'))}")
    return None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("-p", "--nprocs", type=int, required=True,
                   help="number of ranks")
    p.add_argument("-n", "--max-block", type=int, required=True,
                   help="maximum block size N in bytes")
    p.add_argument("--dist", default="uniform",
                   choices=["uniform", "normal", "power_law", "const"],
                   help="block-size distribution (default: uniform); "
                        "'const' sends exactly N bytes to every peer — "
                        "the only form that scales to 32K ranks (no "
                        "P x P matrix is materialized)")
    p.add_argument("--machine", default="theta", choices=sorted(PROFILES),
                   help="machine profile (default: theta)")
    p.add_argument("--ppn", type=int, default=None, metavar="R",
                   help="ranks per node (two-level hierarchical machine "
                        "model: intra-node messages use the cheaper "
                        "intra-tier constants and pay no network "
                        "congestion); default: the profile's own ppn "
                        "(1 = flat)")
    p.add_argument("--seed", type=int, default=0)


def _resolve_machine(args: argparse.Namespace):
    machine = get_profile(args.machine)
    ppn = getattr(args, "ppn", None)
    if ppn is not None:
        machine = machine.with_overrides(ppn=ppn)
    return machine


def cmd_predict(args: argparse.Namespace) -> int:
    if args.dist == "const":
        print("error: the analytic predictor takes a distribution; "
              "use --dist uniform/normal/power_law", file=sys.stderr)
        return 2
    error = _check_radix_capable(args.algorithm, args.radix)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    machine = _resolve_machine(args)
    dist = distribution_by_name(args.dist, args.max_block)
    result = predict_alltoallv(args.algorithm, machine, args.nprocs, dist,
                               seed=args.seed, radix=args.radix)
    radix_note = f", radix={args.radix}" if args.radix != 2 else ""
    print(f"{result.algorithm} at P={args.nprocs}, N={args.max_block} "
          f"({args.dist}, {machine.name}, {result.mode} mode"
          f"{radix_note}): "
          f"{result.elapsed * 1e3:.4f} simulated ms")
    return 0


def _check_backend_limits(backend: str, nprocs: int,
                          dist: str) -> Optional[str]:
    """Per-backend practical rank caps for functional (simulator) runs."""
    if backend == "coop" and nprocs > 4096:
        return ("functional runs are practical up to 4096 ranks on the "
                "coop backend; pass --backend tensor (with --wire "
                "phantom) beyond that, or use `predict`")
    if backend == "tensor" and dist != "const" and nprocs > 8192:
        return ("a sampled P x P size matrix above 8192 ranks does not "
                "fit in memory; pass --dist const for paper-scale runs")
    return None


def cmd_run(args: argparse.Namespace) -> int:
    error = (_check_backend_limits(args.backend, args.nprocs, args.dist)
             or _check_radix_capable(args.algorithm, args.radix))
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    machine = _resolve_machine(args)
    if args.radix == "auto":
        from .core.tuner import AutoTuner
        tuner = AutoTuner(machine, args.ledger)
        decision = tuner.decide(args.nprocs, args.max_block,
                                algorithm=args.algorithm)
        radix = decision.radix
        if decision.source == "ledger":
            print(f"auto-tuner: radix {radix} from {decision.samples} "
                  f"ledger runs (mean {decision.expected_s * 1e3:.4f} ms)",
                  file=sys.stderr)
        else:
            print(f"auto-tuner: radix {radix} from the analytic model "
                  f"(no warm ledger cell for this (P, N))",
                  file=sys.stderr)
    else:
        radix = args.radix
    phantom = args.wire == "phantom"
    # Per-event traces at thousands of ranks are pure overhead here;
    # aggregate metrics keep large-P runs fast.  The tensor backend
    # records vectorized aggregates at any P.
    if args.backend == "tensor":
        trace = "metrics"
    else:
        trace = "metrics" if args.nprocs > 256 else True
    try:
        config = ExecutionConfig(machine=machine, trace=trace,
                                 backend=args.backend,
                                 wire=args.wire, fault_plan=args.faults,
                                 fault_seed=args.fault_seed,
                                 on_fault=args.on_fault,
                                 reliability=args.reliability,
                                 ledger=args.ledger)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.dist == "const":
        sizes = None
    else:
        dist = distribution_by_name(args.dist, args.max_block)
        sizes = block_size_matrix(dist, args.nprocs, seed=args.seed)

    byzantine_plan = (config.fault_plan is not None and any(
        r.kind in ("corrupt", "forge") for r in config.fault_plan.rules))
    verified_transport = (config.reliability is not None
                          and config.reliability.verify)
    if args.backend == "tensor":
        prog = TensorAlltoallv(
            args.algorithm,
            args.max_block if sizes is None else sizes,
            radix=radix)
        verify = False
    else:
        if sizes is None:
            sizes = np.full((args.nprocs, args.nprocs), args.max_block,
                            dtype=np.int64)
        # Byte verification assumes exactly-once, untampered delivery.
        # It holds on a clean fabric and under the retry transport —
        # unless the plan injects corrupt/forge, in which case only the
        # verify tier restores byte-exactness.  Degrade mode legitimately
        # zero-fills excised ranks' blocks, and fail-fast plans error
        # out before verification matters.
        verify = not phantom and (
            config.fault_plan is None
            or (args.on_fault == "retry"
                and (not byzantine_plan or verified_transport)))

        def prog(comm):
            vargs = build_vargs(comm.rank, sizes, fill=not phantom)
            start = comm.clock
            alltoallv(comm, *vargs.as_tuple(), algorithm=args.algorithm,
                      radix=radix)
            if verify:
                verify_recv(comm.rank, sizes, vargs.recvbuf)
            return comm.clock - start

        # Workload labels for the run ledger (tensor specs already
        # carry .algorithm/.radix/.max_block; the closure needs
        # stamping).
        prog.radix = radix
        prog.max_block = args.max_block
    prog.algorithm = args.algorithm
    prog.distribution = args.dist

    try:
        result = run_spmd(prog, args.nprocs, config=config)
    except (SimMPIError, ValueError) as exc:
        print(f"run failed with {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    if verify:
        verified = "delivery byte-verified on every rank"
    elif phantom:
        verified = "buffers unverified (phantom wire: size-only transport)"
    elif byzantine_plan and not verified_transport:
        verified = ("buffers unverified (corrupt/forge injected without "
                    "--reliability verify: Byzantine delivery possible)")
    else:
        verified = "buffers unverified (faults injected without retry)"
    elapsed = max(r for r in result.returns if r is not None) \
        if args.backend != "tensor" else max(result.clocks)
    radix_note = f", radix={radix}" if radix != 2 else ""
    print(f"{args.algorithm} at P={args.nprocs}, N={args.max_block} "
          f"({args.dist}, {machine.name}, {args.backend} backend, "
          f"{args.wire} wire{radix_note}): "
          f"{elapsed * 1e3:.4f} simulated ms, "
          f"{result.total_messages} messages, {result.total_bytes} bytes "
          f"on the wire; {verified}")
    if result.metrics is not None and result.metrics.fault_counts:
        counts = ", ".join(f"{k}={v}" for k, v in
                           sorted(result.metrics.fault_counts.items()))
        print(f"injected faults: {counts}")
    if result.degraded_ranks:
        print(f"degraded ranks (excised by crashes or convicted by the "
              f"verified transport): {result.degraded_ranks}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    events_on = args.level in ("full", "events")
    # Per-event traces (and the --out document, one slice per copy run)
    # stay practical up to 1024 ranks.  Aggregate metrics are bounded and
    # run at any P the chosen backend reaches (32K on tensor).
    if events_on and args.nprocs > 1024:
        print("error: per-event traced runs are practical up to 1024 "
              "ranks; use --level metrics (with --backend coop or tensor) "
              "for large-P aggregate observability", file=sys.stderr)
        return 2
    if args.backend == "tensor" and events_on:
        print("error: the tensor backend records no per-event traces; "
              "pass --level metrics", file=sys.stderr)
        return 2
    if args.out and not events_on:
        print("error: the Chrome/Perfetto export needs per-event traces; "
              "drop --out or use --level full/events", file=sys.stderr)
        return 2
    if args.dist == "const" and args.backend != "tensor":
        print("error: --dist const is the tensor backend's scale form; "
              "pass --backend tensor (or pick a sampled distribution)",
              file=sys.stderr)
        return 2
    error = _check_backend_limits(args.backend, args.nprocs, args.dist)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    machine = _resolve_machine(args)
    trace = True if args.level == "full" else args.level
    # Event-level runs keep the byte wire (and verification) of the
    # original trace command; metrics-level runs go phantom so large P
    # doesn't move gigabytes of host memory for identical clocks.
    wire = "bytes" if events_on and args.backend != "tensor" else "phantom"
    config = ExecutionConfig(machine=machine, trace=trace,
                             backend=args.backend, wire=wire,
                             fault_plan=args.faults,
                             fault_seed=args.fault_seed,
                             ledger=args.ledger)

    if args.backend == "tensor":
        if args.dist == "const":
            sizes = args.max_block
        else:
            dist = distribution_by_name(args.dist, args.max_block)
            sizes = block_size_matrix(dist, args.nprocs, seed=args.seed)
        prog = TensorAlltoallv(args.algorithm, sizes)
    else:
        dist = distribution_by_name(args.dist, args.max_block)
        sizes = block_size_matrix(dist, args.nprocs, seed=args.seed)
        fill = wire == "bytes"
        clean = args.faults is None

        def prog(comm):
            vargs = build_vargs(comm.rank, sizes, fill=fill)
            alltoallv(comm, *vargs.as_tuple(), algorithm=args.algorithm)
            if fill and clean:
                verify_recv(comm.rank, sizes, vargs.recvbuf)

    # Workload labels for the run ledger (tensor specs already carry
    # .algorithm; the closure needs stamping).
    prog.algorithm = args.algorithm
    prog.distribution = args.dist

    try:
        result = run_spmd(prog, args.nprocs, config=config)
    except (SimMPIError, ValueError) as exc:
        print(f"run failed with {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    print(result.summary(
        title=f"{args.algorithm} at P={args.nprocs}, N={args.max_block} "
              f"({args.dist}, {machine.name}, {args.backend} backend):"))
    if args.critical_path:
        try:
            print()
            print(result.critical_path().format())
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.out:
        result.export_chrome_trace(args.out,
                                   critical_path=args.critical_path)
        print(f"timeline written to {args.out} — load it in "
              f"chrome://tracing or https://ui.perfetto.dev")
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    machine = get_profile(args.machine)
    print(f"fitting the empirical model on {machine.name}...",
          file=sys.stderr)
    model = PerformanceModel.fit(machine)
    choice, radix = model.recommend_radix(args.nprocs, args.max_block)
    radix_note = f" (radix {radix})" if radix != 2 else ""
    print(f"P={args.nprocs}, N={args.max_block} -> {choice}{radix_note}")
    print(f"(two-phase wins up to N≈"
          f"{model.two_phase_threshold(args.nprocs):.0f} at this P; "
          f"padded up to N≈{model.padded_threshold(args.nprocs):.0f})")
    if args.ledger:
        from .core.tuner import AutoTuner
        tuner = AutoTuner(machine, args.ledger, model=model)
        d = tuner.decide(args.nprocs, args.max_block)
        extra = (f", mean {d.expected_s * 1e3:.4f} ms over "
                 f"{d.samples} runs" if d.source == "ledger" else "")
        print(f"ledger: {d.algorithm} radix {d.radix} "
              f"(source={d.source}{extra})")
    return 0


def cmd_profiles(_args: argparse.Namespace) -> int:
    for name in sorted(PROFILES):
        m = PROFILES[name]
        print(f"{name:>10}: alpha={m.alpha * 1e6:.1f}us "
              f"beta={1 / m.beta / 1e6:.0f}MB/s "
              f"o={m.o_send * 1e6:.1f}/{m.o_recv * 1e6:.1f}us "
              f"eager<= {m.eager_threshold}B x{m.eager_factor} "
              f"congestion K={m.congestion_procs:.0f}")
        print(f"{'':>10}  ppn={m.ppn} "
              f"intra: alpha={m.alpha_intra * 1e6:.2f}us "
              f"beta={1 / m.beta_intra / 1e6:.0f}MB/s "
              f"o={m.o_send_intra * 1e6:.2f}/{m.o_recv_intra * 1e6:.2f}us "
              f"x{m.eager_factor_intra} (no congestion)")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    out = fig6_data_scaling(machine=get_profile(args.machine),
                            procs=(args.nprocs,),
                            iterations=args.iterations)
    fd = out[args.nprocs]
    print(format_series_table(fd.title, fd.x_header, fd.series, fd.xs))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Bruck non-uniform all-to-all reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="analytic simulated time")
    p.add_argument("-a", "--algorithm", required=True,
                   choices=ALGORITHM_CHOICES)
    _add_common(p)
    p.add_argument("--radix", type=_radix_arg, default=2, metavar="R",
                   help="digit base of the Bruck schedule (default: 2; "
                        "radix-capable algorithms only)")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("run", help="functional simulator run")
    p.add_argument("-a", "--algorithm", required=True,
                   choices=ALGORITHM_CHOICES)
    _add_common(p)
    p.add_argument("--backend", default="coop", choices=BACKENDS,
                   help="executor backend: coop (default; cooperative "
                        "scheduler, thousands of ranks) or tensor "
                        "(vectorized whole-fabric engine, tens of "
                        "thousands of ranks; requires --wire phantom)")
    p.add_argument("--wire", default="bytes", choices=WIRE_MODES,
                   help="payload transport: bytes (default; real data, "
                        "byte-verified) or phantom (size-only envelopes — "
                        "identical simulated clocks, no data movement, "
                        "no verification)")
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="fault-plan spec, ';'-separated clauses drawn "
                        f"from {{{', '.join(KNOWN_FAULT_CLAUSES)}}}, e.g. "
                        "'drop:p=0.02;delay:d=50us,jitter=20us;"
                        "corrupt:p=0.05;forge:p=0.02;"
                        "crash:rank=3,step=40;straggler:ranks=0:3,factor=4'")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed of the fault engine's per-message RNG "
                        "(default: 0); same (plan, seed) => bit-identical "
                        "fault decisions on every backend")
    p.add_argument("--on-fault", default="fail-fast",
                   choices=ON_FAULT_POLICIES,
                   help="failure policy: fail-fast (typed error), retry "
                        "(reliable transport: retransmit + dedup + "
                        "reassemble), or degrade (excise crashed ranks, "
                        "survivors complete)")
    p.add_argument("--reliability", default=None,
                   choices=["none", "retry", "verify"],
                   help="transport tier: none (lossy wire), retry (acked "
                        "retransmission; implied by --on-fault retry), or "
                        "verify (retry plus per-message checksum + auth "
                        "tag — detects corrupt/forge injections)")
    p.add_argument("--ledger", default=None, metavar="PATH",
                   help="append one structured JSON record of this run "
                        "to the JSONL ledger at PATH (runs recording "
                        "metrics only)")
    p.add_argument("--radix", type=_radix_arg, default=2, metavar="R",
                   help="digit base of the Bruck schedule: an integer "
                        ">= 2, or 'auto' to let the ledger-driven "
                        "auto-tuner pick (warm: best observed mean for "
                        "this (P, N-band); cold: the analytic closed "
                        "form)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "trace", help="observed functional run: summary, critical path, "
                      "Chrome/Perfetto timeline")
    p.add_argument("-a", "--algorithm", default="two_phase_bruck",
                   choices=ALGORITHM_CHOICES)
    p.add_argument("-p", "--nprocs", type=int, required=True,
                   help="number of ranks")
    p.add_argument("-n", "--max-block", type=int, default=64,
                   help="maximum block size N in bytes (default: 64)")
    p.add_argument("--dist", default="uniform",
                   choices=["uniform", "normal", "power_law", "const"],
                   help="block-size distribution (default: uniform); "
                        "'const' is the tensor backend's paper-scale "
                        "form (no P x P matrix)")
    p.add_argument("--machine", default="theta", choices=sorted(PROFILES))
    p.add_argument("--ppn", type=int, default=None, metavar="R",
                   help="ranks per node (hierarchical machine model)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--backend", default="coop", choices=BACKENDS,
                   help="executor backend (default: coop); metrics-"
                        "level tracing works at any P coop/tensor reach")
    p.add_argument("--level", default="full",
                   choices=["full", "events", "metrics"],
                   help="observability level: full (events + metrics, "
                        "<= 1024 ranks), events (per-event traces only, "
                        "<= 1024 ranks), metrics (aggregates only — any "
                        "P, the only level the tensor backend records)")
    p.add_argument("--critical-path", action="store_true",
                   help="print the critical-path walk and per-rank "
                        "makespan attribution (and highlight the path "
                        "in the --out timeline)")
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="fault-plan spec (same grammar as `run --faults`)")
    p.add_argument("--fault-seed", type=int, default=0)
    p.add_argument("--ledger", default=None, metavar="PATH",
                   help="append one structured JSON record of this run "
                        "to the JSONL ledger at PATH")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the trace-event JSON here (needs --level "
                        "full/events, <= 1024 ranks; omit to print the "
                        "summary only)")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("recommend", help="Fig. 9 advisor")
    p.add_argument("-p", "--nprocs", type=int, required=True)
    p.add_argument("-n", "--max-block", type=int, required=True)
    p.add_argument("--machine", default="theta", choices=sorted(PROFILES))
    p.add_argument("--ledger", default=None, metavar="PATH",
                   help="also report what the ledger-driven auto-tuner "
                        "would pick from the observed runs at PATH")
    p.set_defaults(fn=cmd_recommend)

    p = sub.add_parser("profiles", help="list machine profiles")
    p.set_defaults(fn=cmd_profiles)

    p = sub.add_parser("sweep", help="data-scaling sweep at one P")
    p.add_argument("-p", "--nprocs", type=int, required=True)
    p.add_argument("--machine", default="theta", choices=sorted(PROFILES))
    p.add_argument("--iterations", type=int, default=3)
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "predict" and args.algorithm == "sloav":
        print("error: sloav has no analytic predictor; use `run`",
              file=sys.stderr)
        return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
