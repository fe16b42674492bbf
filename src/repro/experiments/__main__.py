"""Command-line entry point: ``python -m repro.experiments <id|all>``.

Besides running experiments, ``repro-experiments list-policies`` (or
``--list-policies``) prints the :mod:`repro.registry` policy catalog —
every spec's canonical name, capability flags, parameter defaults,
aliases and summary — without building a workload.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.base import (
    EXPERIMENT_SEED,
    SCALES,
    all_experiment_ids,
    get_context,
    run_experiment,
)


def render_policy_catalog() -> str:
    """The registry's policy catalog as an aligned monospace table."""
    from repro import registry
    from repro.util.specs import render_value
    from repro.util.tables import render_table

    rows = []
    for spec in registry.list_specs():
        rows.append(
            (
                spec.name,
                ",".join(spec.flags) or "-",
                (
                    "&".join(
                        f"{k}={render_value(v)}"
                        for k, v in sorted(spec.defaults.items())
                    )
                    or "-"
                ),
                ",".join(spec.aliases) or "-",
                spec.summary,
            )
        )
    table = render_table(
        ("policy", "flags", "defaults", "aliases", "summary"),
        rows,
        title="registered policy specs (select with name?param=value&...)",
        align_right=False,
    )
    return table


def run_sweep_command(args: argparse.Namespace) -> int:
    """The ``sweep`` subcommand: a fig10-style (policy x capacity) grid.

    With ``--dry-run`` the plan — grid shape, estimated accesses, the
    chunking and the serial-vs-parallel decision — is printed from the
    workload *config alone*, without generating a trace, so a paper- or
    grown-scale sweep can be sanity-checked in milliseconds before
    committing real hours to it.
    """
    from repro.experiments.fig10 import (
        CAPACITY_FRACTIONS,
        POLICIES,
        capacities_for,
    )
    from repro.parallel import plan_sweep
    from repro.util.units import format_bytes

    policies = tuple(args.policies.split(",")) if args.policies else POLICIES
    config = SCALES[args.scale]()
    n_cells = len(policies) * len(CAPACITY_FRACTIONS)
    est_accesses = config.estimated_accesses
    est_bytes = config.estimated_total_bytes
    plan = plan_sweep(n_cells, est_accesses, args.jobs)

    print(f"sweep plan: scale={args.scale} seed={args.seed} jobs={args.jobs}")
    print(
        f"  grid: {len(policies)} policies x {len(CAPACITY_FRACTIONS)} "
        f"capacities = {n_cells} cells"
    )
    print(f"  policies: {', '.join(policies)}")
    print(
        "  capacities: "
        + ", ".join(
            format_bytes(c, 1) for c in capacities_for(est_bytes)
        )
        + f"  (fractions of ~{format_bytes(est_bytes, 1)} estimated data)"
    )
    print(
        f"  est. accesses: {est_accesses:,} per cell, "
        f"{plan.total_accesses:,} total"
    )
    mode = "parallel" if plan.use_parallel else "serial"
    print(
        f"  decision: {mode} — {plan.reason}"
        + (
            f"\n  chunking: {plan.n_chunks} chunks of "
            f"{plan.cells_per_chunk} cell(s) on {plan.workers} workers"
            if plan.use_parallel
            else ""
        )
    )
    if args.dry_run:
        return 0

    from repro.engine import sweep as run_sweep

    ctx = get_context(args.scale, args.seed, args.jobs)
    caps = capacities_for(ctx.trace.total_bytes())
    t0 = time.perf_counter()
    result = run_sweep(
        ctx.trace,
        policies,
        caps,
        partition=ctx.partition,
        jobs=args.jobs,
    )
    elapsed = time.perf_counter() - t0
    for name in policies:
        rates = result.miss_rates(name)
        for cap, rate in zip(caps, rates):
            print(f"  {name}@{format_bytes(cap, 1)}: miss rate {rate:.4f}")
    print(f"({elapsed:.2f}s, {plan.total_accesses:,} accesses estimated)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the paper's tables and figures from the calibrated "
            "synthetic DZero workload."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help=(
            "experiment ids (or 'all'); known: "
            f"{', '.join(all_experiment_ids())}; 'list-policies' prints "
            "the policy catalog; 'sweep' runs (or with --dry-run, plans) "
            "a fig10-style policy/capacity grid"
        ),
    )
    parser.add_argument(
        "--list-policies",
        action="store_true",
        help="print the registered cache-policy specs and exit",
    )
    parser.add_argument(
        "--scale",
        default="default",
        choices=tuple(SCALES),
        help=(
            "workload scale preset (default: 'default', 5%% of paper "
            "scale); 'paper' and 'grown' (10x paper) go through the "
            "on-disk trace store and take minutes + GBs on first use"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=EXPERIMENT_SEED,
        help=f"workload seed (default: {EXPERIMENT_SEED})",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for the sweep-backed experiments (fig10, "
            "null_model, robustness, ablations); default: 1 (serial). "
            "Parallel results are identical to serial by construction."
        ),
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero if any qualitative check fails",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help=(
            "with 'sweep': print the planned grid (cells, estimated "
            "accesses, chunking, serial-vs-parallel decision) and exit "
            "without generating a trace or replaying anything"
        ),
    )
    parser.add_argument(
        "--policies",
        metavar="NAMES",
        help=(
            "with 'sweep': comma-separated registry specs to sweep "
            "(default: the Figure 10 pair, file-lru,filecule-lru)"
        ),
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        help="also write a self-contained markdown report to PATH",
    )
    parser.add_argument(
        "--matrix-json",
        metavar="PATH",
        help=(
            "write the robustness-matrix scores as JSON to PATH (only "
            "meaningful when running the robustness-matrix experiment)"
        ),
    )
    parser.add_argument(
        "--detection-json",
        metavar="PATH",
        help=(
            "write the detector score matrix as JSON to PATH (only "
            "meaningful when running the detection experiment)"
        ),
    )
    args = parser.parse_args(argv)

    if args.list_policies or "list-policies" in args.experiments:
        print(render_policy_catalog())
        return 0
    if "sweep" in args.experiments:
        if args.experiments != ["sweep"]:
            parser.error("'sweep' cannot be combined with experiment ids")
        if args.jobs < 1:
            parser.error(f"--jobs must be >= 1, got {args.jobs}")
        return run_sweep_command(args)
    if args.dry_run:
        parser.error("--dry-run is only meaningful with the 'sweep' command")
    if args.policies:
        parser.error("--policies is only meaningful with the 'sweep' command")
    if not args.experiments:
        parser.error("no experiment ids given (or use --list-policies)")

    ids = (
        all_experiment_ids()
        if "all" in args.experiments
        else list(dict.fromkeys(args.experiments))
    )
    unknown = [i for i in ids if i not in all_experiment_ids()]
    if unknown:
        parser.error(f"unknown experiment ids: {', '.join(unknown)}")

    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    ctx = get_context(args.scale, args.seed, args.jobs)
    print(
        f"workload: scale={ctx.scale}, seed={ctx.seed}, {ctx.trace!r}, "
        f"{len(ctx.partition)} filecules"
        + (f", {ctx.jobs} sweep workers" if ctx.jobs > 1 else ""),
        flush=True,
    )
    if args.report:
        from repro.experiments.report import generate_report

        path = generate_report(args.report, ctx, experiment_ids=ids)
        print(f"wrote report to {path}")

    failures = 0
    for experiment_id in ids:
        t0 = time.perf_counter()
        result = run_experiment(experiment_id, ctx)
        elapsed = time.perf_counter() - t0
        print()
        print(result.render())
        print(f"({elapsed:.2f}s)")
        if not result.all_checks_pass:
            failures += 1

    if args.matrix_json:
        if "robustness-matrix" not in ids:
            parser.error("--matrix-json requires running robustness-matrix")
        from repro.experiments.robustness_matrix import (
            build_matrix,
            write_matrix_json,
        )

        # build_matrix is memoized per context: this reuses the run above.
        path = write_matrix_json(args.matrix_json, build_matrix(ctx))
        print(f"wrote robustness matrix to {path}")
    if args.detection_json:
        if "detection" not in ids:
            parser.error("--detection-json requires running detection")
        from repro.experiments.detection import (
            build_detection,
            write_detection_json,
        )

        # build_detection is memoized per context: reuses the run above.
        path = write_detection_json(args.detection_json, build_detection(ctx))
        print(f"wrote detection scores to {path}")
    if failures:
        print(f"\n{failures} experiment(s) with failing checks", file=sys.stderr)
        if args.strict:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
