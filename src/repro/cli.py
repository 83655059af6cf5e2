"""Command-line entry point: regenerate the paper's tables and figures.

Usage (installed as ``sophon-repro``)::

    sophon-repro table1
    sophon-repro fig1a --dataset openimages
    sophon-repro fig3 --dataset imagenet --samples 1500
    sophon-repro fig4 --cores 0 1 2 3 4 5
    sophon-repro frontier --bandwidth 50 --json frontier.json
    sophon-repro audit 17
    sophon-repro adaptive --epochs 4 --shards 2 --telemetry-dir /tmp/t
    sophon-repro all

``fig1d``, ``fig3`` and ``fig4`` accept ``--telemetry-dir DIR`` to write
the run's metrics as replayable JSONL and Prometheus text; ``audit``
explains one sample's offload decision and its simulated journey;
``replay`` renders a previously exported telemetry JSONL log without
re-running anything.  Record building goes through
:func:`repro.parallel.build_records`, which vectorizes whenever the
pipeline and dataset allow it.
"""

import argparse
import contextlib
import sys
import time
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.cluster.spec import standard_cluster
from repro.core.efficiency import efficiency_distribution
from repro.core.profiler import StageTwoProfiler
from repro.data.catalog import make_imagenet, make_openimages
from repro.harness.fig1 import (
    benefit_fraction,
    gpu_utilization_by_model,
    minstage_fractions,
    representative_samples,
    size_trace,
)
from repro.harness.fig3 import ample_cpu_comparison
from repro.harness.fig4 import limited_cpu_sweep
from repro.harness.table1 import render_capability_matrix
from repro.preprocessing.pipeline import standard_pipeline
from repro.utils.tables import render_table


def _dataset(name: str, samples: Optional[int], seed: int):
    if name == "openimages":
        return make_openimages(num_samples=samples, seed=seed)
    if name == "imagenet":
        return make_imagenet(num_samples=samples, seed=seed)
    raise SystemExit(f"unknown dataset {name!r}; pick openimages or imagenet")


@contextlib.contextmanager
def _scoped_registry(args: argparse.Namespace) -> Iterator[Optional[object]]:
    """A fresh default metrics registry while --telemetry-dir is set."""
    if getattr(args, "telemetry_dir", None) is None:
        yield None
        return
    from repro.telemetry.registry import MetricsRegistry, use_registry

    with use_registry(MetricsRegistry()) as registry:
        yield registry


def _emit_telemetry(args: argparse.Namespace, name: str, registry) -> None:
    if registry is None:
        return
    from repro.harness.telemetry import emit_artifacts

    for path in emit_artifacts(args.telemetry_dir, name, registry=registry):
        print(f"telemetry written to {path}")


def cmd_table1(args: argparse.Namespace) -> None:
    from repro.harness.table1 import render_published_matrix

    print("Published systems (the paper's Table 1):")
    print(render_published_matrix())
    print("\nImplemented policies in this reproduction:")
    print(render_capability_matrix())


def cmd_sweep(args: argparse.Namespace) -> None:
    from repro.harness.export import write_csv
    from repro.harness.sweeps import grid_sweep

    dataset = _dataset(args.dataset, args.samples, args.seed)
    axes = {}
    if args.cores:
        axes["storage_cores"] = args.cores
    if args.bandwidths:
        axes["bandwidth_mbps"] = args.bandwidths
    if not axes:
        raise SystemExit("give at least one axis (--cores / --bandwidths)")
    table = grid_sweep(dataset, standard_cluster(), axes, seed=args.seed)
    print(table.render())
    if args.csv:
        write_csv(table.to_csv(), args.csv)
        print(f"csv written to {args.csv}")


def cmd_fig1a(args: argparse.Namespace) -> None:
    dataset = _dataset(args.dataset, args.samples, args.seed)
    sample_a, sample_b = representative_samples(dataset, seed=args.seed)
    print(f"Sample A (shrinks mid-pipeline, id={sample_a}):")
    print(size_trace(dataset, sample_a, seed=args.seed).render())
    print(f"\nSample B (smallest raw, id={sample_b}):")
    print(size_trace(dataset, sample_b, seed=args.seed).render())


def cmd_fig1b(args: argparse.Namespace) -> None:
    for name in ("openimages", "imagenet"):
        dataset = _dataset(name, args.samples, args.seed)
        fractions = minstage_fractions(dataset, seed=args.seed)
        rows = [(stage, f"{frac:.1%}") for stage, frac in fractions.items()]
        print(f"[{dataset.name}] minimum-size stage fractions "
              f"(benefit: {benefit_fraction(fractions):.1%})")
        print(render_table(("Stage", "Fraction"), rows))
        print()


def cmd_fig1c(args: argparse.Namespace) -> None:
    dataset = _dataset(args.dataset, args.samples, args.seed)
    records = StageTwoProfiler().profile(dataset, standard_pipeline(), seed=args.seed)
    print(f"[{dataset.name}] {efficiency_distribution(records)}")


def cmd_fig1d(args: argparse.Namespace) -> None:
    dataset = _dataset(args.dataset, args.samples, args.seed)
    spec = standard_cluster().with_bandwidth(args.bandwidth)
    with _scoped_registry(args) as registry:
        utilizations = gpu_utilization_by_model(dataset, spec, seed=args.seed)
        if registry is not None:
            gauge = registry.gauge(
                "harness_gpu_utilization",
                "GPU busy fraction over the epoch",
                labels=["run"],
            )
            for model, util in utilizations:
                gauge.set(util, run=model)
    rows = [(model, f"{util:.0%}") for model, util in utilizations]
    print(f"[{dataset.name}] GPU utilization at {args.bandwidth:.0f} Mbps, no offload")
    print(render_table(("Model", "GPU util"), rows))
    _emit_telemetry(args, "fig1d", registry)


def cmd_fig3(args: argparse.Namespace) -> None:
    dataset = _dataset(args.dataset, args.samples, args.seed)
    cluster = standard_cluster(storage_cores=args.storage_cores)
    with _scoped_registry(args) as registry:
        comparison = ample_cpu_comparison(dataset, cluster, seed=args.seed)
        if registry is not None:
            from repro.harness.telemetry import record_epoch_stats

            for result in comparison.results:
                record_epoch_stats(result.stats, result.policy_name, registry)
    print(comparison.render())
    _emit_telemetry(args, "fig3", registry)
    if getattr(args, "csv", None):
        from repro.harness.export import comparison_to_csv, write_csv

        write_csv(comparison_to_csv(comparison), args.csv)
        print(f"csv written to {args.csv}")


def cmd_fig4(args: argparse.Namespace) -> None:
    dataset = _dataset(args.dataset, args.samples, args.seed)
    with _scoped_registry(args) as registry:
        sweep = limited_cpu_sweep(dataset, cores=tuple(args.cores), seed=args.seed)
        if registry is not None:
            from repro.harness.telemetry import record_epoch_stats

            for cores in sweep.cores:
                for policy, result in sorted(sweep.results[cores].items()):
                    record_epoch_stats(
                        result.stats, f"{policy}@{cores}c", registry
                    )
    print(sweep.render())
    _emit_telemetry(args, "fig4", registry)
    gains = ", ".join(f"{g:.2f}s" for g in sweep.sophon_marginal_gains())
    print(f"\nSOPHON marginal gain per added core: {gains}")
    if getattr(args, "csv", None):
        from repro.harness.export import sweep_to_csv, write_csv

        write_csv(sweep_to_csv(sweep), args.csv)
        print(f"csv written to {args.csv}")


def cmd_frontier(args: argparse.Namespace) -> None:
    from repro.data.synthetic import ImageContentConfig, SyntheticImageDataset
    from repro.harness.frontier import DEFAULT_FLOORS, fidelity_frontier

    # The fidelity sweep needs real pixels (streams are re-encoded
    # progressively and prefix PSNRs measured), so it runs on a
    # materialized synthetic dataset rather than the metadata traces.
    dataset = SyntheticImageDataset(
        num_samples=args.samples,
        seed=args.seed,
        content=ImageContentConfig(min_side=64, max_side=256),
        name=f"synthetic-{args.dataset}",
    )
    floors = (
        DEFAULT_FLOORS
        if not args.floors
        else (None,) + tuple(float(f) for f in args.floors)
    )
    spec = standard_cluster().with_bandwidth(args.bandwidth)
    frontier = fidelity_frontier(
        dataset, spec=spec, floors=floors, seed=args.seed
    )
    print(frontier.render())
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(frontier.to_json())
        print(f"json written to {args.json}")
    else:
        print(frontier.to_json())


def cmd_plan(args: argparse.Namespace) -> None:
    from repro.core.policy import PolicyContext
    from repro.core.serialize import plan_to_json
    from repro.core.sophon import Sophon
    from repro.workloads.models import get_model_profile

    dataset = _dataset(args.dataset, args.samples, args.seed)
    spec = standard_cluster(storage_cores=args.storage_cores)
    context = PolicyContext(
        dataset=dataset,
        pipeline=standard_pipeline(),
        spec=spec,
        model=get_model_profile(args.model),
        seed=args.seed,
    )
    plan = Sophon().plan(context)
    print(f"[{dataset.name}] {plan.reason}")
    print(f"split histogram: {plan.split_histogram()}")
    if plan.expected is not None:
        print(f"expected epoch: {plan.expected.epoch_time_s:.2f}s "
              f"(bottleneck: {plan.expected.bottleneck.value})")
    if args.save:
        with open(args.save, "w") as handle:
            handle.write(plan_to_json(plan))
        print(f"plan saved to {args.save}")


def cmd_stalls(args: argparse.Namespace) -> None:
    from repro.cluster.trainer import TrainerSim
    from repro.core.policy import PolicyContext
    from repro.core.sophon import Sophon
    from repro.metrics import stall_breakdown
    from repro.workloads.models import get_model_profile

    dataset = _dataset(args.dataset, args.samples, args.seed)
    spec = standard_cluster(storage_cores=args.storage_cores)
    model = get_model_profile(args.model)
    context = PolicyContext(
        dataset=dataset, pipeline=standard_pipeline(), spec=spec,
        model=model, seed=args.seed,
    )
    plan = Sophon().plan(context)
    trainer = TrainerSim(dataset, context.pipeline, model, spec, seed=args.seed)
    plain = trainer.run_epoch(None, epoch=1, record_timeline=True)
    offloaded = trainer.run_epoch(list(plan.splits), epoch=1, record_timeline=True)
    print(f"[{dataset.name}] no-off : {stall_breakdown(plain.timeline)}")
    print(f"[{dataset.name}] sophon : {stall_breakdown(offloaded.timeline)}")


def cmd_ext_llm(args: argparse.Namespace) -> None:
    from repro.core.decision import DecisionEngine
    from repro.workloads.text import (
        TextCorpusSpec,
        llm_ingestion_records,
        offloadable_fraction,
    )

    records = llm_ingestion_records(
        TextCorpusSpec(num_docs=args.samples), seed=args.seed
    )
    plan = DecisionEngine().plan(
        records, standard_cluster(storage_cores=48), gpu_time_s=60.0
    )
    raw = sum(r.stage_sizes[0] for r in records)
    packed = sum(r.stage_sizes[-1] for r in records)
    print(f"LLM ingestion: raw {raw / 1e6:.1f} MB -> packed {packed / 1e6:.1f} MB "
          f"({packed / raw:.2f}x growth)")
    print(f"offloadable documents: {offloadable_fraction(records):.0%}")
    print(f"decision: {plan.reason}")


def cmd_audit(args: argparse.Namespace) -> None:
    """Explain one sample end-to-end: decision record + simulated spans."""
    from repro.cluster.sharded import ShardedTrainerSim, round_robin_placement
    from repro.cluster.trainer import TrainerSim
    from repro.core.decision import DecisionConfig, DecisionEngine
    from repro.core.policy import PolicyContext
    from repro.telemetry.audit import AuditLog
    from repro.workloads.models import get_model_profile

    dataset = _dataset(args.dataset, args.samples, args.seed)
    if not 0 <= args.sample_id < len(dataset):
        raise SystemExit(
            f"sample {args.sample_id} out of range; dataset has {len(dataset)} samples"
        )
    spec = standard_cluster(storage_cores=args.storage_cores)
    model = get_model_profile(args.model)
    context = PolicyContext(
        dataset=dataset, pipeline=standard_pipeline(), spec=spec,
        model=model, seed=args.seed,
    )
    audit = AuditLog()
    plan = DecisionEngine(DecisionConfig()).plan(
        context.records(), spec, gpu_time_s=context.epoch_gpu_time_s, audit=audit
    )
    print(f"[{dataset.name}] {plan.reason}\n")
    print(audit.explain(args.sample_id))

    trainer: TrainerSim
    if args.shards is not None:
        trainer = ShardedTrainerSim(
            dataset, context.pipeline, model, spec,
            placement=round_robin_placement(len(dataset), args.shards),
            num_shards=args.shards, seed=args.seed,
        )
    else:
        trainer = TrainerSim(
            dataset, context.pipeline, model, spec, seed=args.seed
        )
    stats = trainer.run_epoch(list(plan.splits), epoch=args.epoch, record_spans=True)
    events = stats.spans.for_sample(args.sample_id, args.epoch) if stats.spans else []
    print(f"\nsimulated spans for sample {args.sample_id} "
          f"(epoch {args.epoch}, virtual seconds):")
    for event in events:
        attrs = _format_attrs(event.attrs)
        line = f"  [{event.t_s:12.6f}] {event.phase} {event.name}"
        print(f"{line}  {attrs}" if attrs else line)


#: Sorted attr-key orders seen while rendering spans.  A big replay log
#: holds millions of events but only a handful of distinct attr shapes,
#: so the per-event ``sorted()`` is hoisted into this one-per-shape cache.
_ATTR_KEY_ORDERS: Dict[Tuple[str, ...], List[str]] = {}


def _format_attrs(attrs: Mapping[str, object]) -> str:
    """``k=v`` pairs in sorted key order, one ``sorted()`` per key shape."""
    if not attrs:
        return ""
    keys = tuple(attrs)
    order = _ATTR_KEY_ORDERS.get(keys)
    if order is None:
        order = sorted(keys)
        _ATTR_KEY_ORDERS[keys] = order
    return " ".join(f"{k}={attrs[k]}" for k in order)


def _span_breakdowns(events) -> List[str]:
    """Per-epoch / per-shard / per-tenant summary lines for a span log.

    Epochs come from the ``-e<N>`` suffix every trainer trace id carries
    (samples ``s<id>-e<N>`` and batches ``b<i>-e<N>`` alike); shard and
    tenant groups come from the ``shard`` / ``job`` span attrs; service
    and client request phases group by span name.  Groups nobody recorded
    are omitted, so single-epoch single-node logs render exactly as
    before.
    """
    import re

    epoch_pattern = re.compile(r"-e(\d+)$")
    lines: List[str] = []
    epochs: dict = {}
    for event in events:
        match = epoch_pattern.search(event.trace_id)
        if match:
            per = epochs.setdefault(int(match.group(1)), [0, set()])
            per[0] += 1
            per[1].add(event.trace_id)
    if len(epochs) > 1:
        lines.append("per-epoch:")
        for epoch in sorted(epochs):
            count, traces = epochs[epoch]
            lines.append(
                f"  epoch {epoch}: {count} events across {len(traces)} traces"
            )
    for attr, label in (("shard", "per-shard"), ("job", "per-tenant")):
        groups: dict = {}
        for event in events:
            if attr in event.attrs:
                groups[event.attrs[attr]] = groups.get(event.attrs[attr], 0) + 1
        if groups:
            lines.append(f"{label}:")
            for value in sorted(groups, key=str):
                lines.append(f"  {attr} {value}: {groups[value]} events")
    phases: dict = {}
    for event in events:
        if event.name.startswith(("service.", "client.")):
            phases[event.name] = phases.get(event.name, 0) + 1
    if phases:
        lines.append("service phases:")
        for name in sorted(phases):
            lines.append(f"  {name}: {phases[name]} events")
    return lines


def cmd_replay(args: argparse.Namespace) -> None:
    """Render an exported telemetry JSONL log without re-running the sim."""
    from repro.telemetry.exporters import read_jsonl, render_prometheus

    try:
        replayed = read_jsonl(args.log)
    except OSError as exc:
        raise SystemExit(f"cannot read {args.log}: {exc}") from exc
    except ValueError as exc:
        raise SystemExit(f"cannot replay {args.log}: {exc}") from exc

    snapshot = replayed.registry.snapshot()
    events = replayed.tracer.events
    decisions = len(replayed.audit)
    print(f"[{args.log}] {len(snapshot.series)} metric series, "
          f"{len(events)} span events, {decisions} audit records")

    if snapshot.series:
        print("\nmetrics:")
        print(render_prometheus(snapshot), end="")

    if events:
        traces = {event.trace_id for event in events}
        print(f"\nspans: {len(events)} events across {len(traces)} traces")
        for line in _span_breakdowns(events):
            print(line)
        shown = events if args.spans is None else events[: args.spans]
        for event in shown:
            attrs = _format_attrs(event.attrs)
            line = f"  [{event.t_s:12.6f}] {event.phase:7s} {event.trace_id} {event.name}"
            print(f"{line}  {attrs}" if attrs else line)
        if len(shown) < len(events):
            print(f"  ... {len(events) - len(shown)} more (raise --spans)")

    transitions = [e for e in events if e.name == "breaker.transition"]
    if transitions:
        print(f"\nbreaker transitions: {len(transitions)}")
        for event in transitions:
            print(
                f"  [{event.t_s:12.6f}] {event.attrs.get('from_state', '?')}"
                f" -> {event.attrs.get('to_state', '?')}"
                f" ({event.attrs.get('reason', 'unrecorded')})"
            )

    if decisions:
        counts = replayed.audit.outcome_counts()
        summary = ", ".join(f"{name}={counts[name]}" for name in sorted(counts))
        print(f"\naudit: {summary}")
        if args.sample is not None:
            print()
            try:
                print(replayed.audit.explain(args.sample))
            except KeyError as exc:
                raise SystemExit(str(exc)) from exc
    elif args.sample is not None:
        raise SystemExit(f"{args.log} carries no audit records to explain")


def cmd_slo(args: argparse.Namespace) -> None:
    """Re-check the SLO section of a BENCH_service.json without re-running."""
    import json

    try:
        with open(args.report, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except OSError as exc:
        raise SystemExit(f"cannot read {args.report}: {exc}") from exc
    except ValueError as exc:
        raise SystemExit(f"{args.report} is not JSON: {exc}") from exc
    slo = report.get("slo") if isinstance(report, dict) else None
    if not isinstance(slo, dict):
        raise SystemExit(
            f"{args.report} carries no slo section "
            f"(schema {report.get('schema') if isinstance(report, dict) else None!r}; "
            "re-run the loadgen to produce one)"
        )

    overrides = {}
    for spec in args.max or ():
        name, sep, value = spec.partition("=")
        if not sep:
            raise SystemExit(f"bad --max {spec!r}; want NAME=THRESHOLD")
        try:
            overrides[name] = float(value)
        except ValueError as exc:
            raise SystemExit(f"bad --max threshold {value!r}: {exc}") from exc
    objectives = slo.get("objectives", ())
    unknown = sorted(set(overrides) - {o["name"] for o in objectives})
    if unknown:
        known = ", ".join(sorted(o["name"] for o in objectives))
        raise SystemExit(
            f"--max names no recorded objective: {', '.join(unknown)} "
            f"(report has: {known})"
        )

    print(
        f"[{args.report}] {slo.get('schema')}: {slo.get('samples')} samples, "
        f"window {'all' if slo.get('window_s') is None else slo.get('window_s')}"
    )
    rows = []
    all_passed = True
    for objective in objectives:
        threshold = overrides.get(objective["name"], objective["threshold"])
        observed = objective["observed"]
        passed = True if observed is None else observed <= threshold
        burn = (
            None
            if observed is None or threshold == 0
            else observed / threshold
        )
        all_passed = all_passed and passed
        rows.append(
            (
                objective["name"],
                objective["kind"],
                "n/a" if observed is None else f"{observed:.6g}",
                f"{threshold:g}",
                "-" if burn is None else f"{burn:.2f}",
                "ok" if passed else "VIOLATED",
            )
        )
    print(render_table(
        ("Objective", "Kind", "Observed", "Threshold", "Burn", "Verdict"), rows
    ))
    if not all_passed:
        print("FAIL: SLO violated")
        raise SystemExit(1)
    print("all objectives within budget")


def cmd_adaptive(args: argparse.Namespace) -> None:
    """Multi-epoch adaptive run, optionally sharded, with combined telemetry."""
    from repro.cluster.sharded import round_robin_placement
    from repro.harness.adaptive import AdaptiveTrainingRun

    dataset = _dataset(args.dataset, args.samples, args.seed)
    spec = standard_cluster(storage_cores=args.storage_cores)
    telemetry = args.telemetry_dir is not None
    placement = (
        round_robin_placement(len(dataset), args.shards)
        if args.shards is not None
        else None
    )
    with _scoped_registry(args) as registry:
        run = AdaptiveTrainingRun(
            dataset,
            spec,
            batch_size=args.batch_size,
            seed=args.seed,
            placement=placement,
            num_shards=args.shards,
            job_name=args.job_name,
        )
        result = run.run(
            args.epochs, record_spans=telemetry, record_timeline=telemetry
        )
        if registry is not None:
            from repro.harness.telemetry import record_epoch_stats

            for epoch, stats in result.instrumented_epochs():
                record_epoch_stats(stats, f"epoch{epoch}", registry)

    rows = []
    for entry in result.epochs:
        rows.append(
            (
                entry.epoch,
                f"{entry.stats.epoch_time_s:.2f}s",
                f"{entry.stats.traffic_bytes / 1e6:.1f} MB",
                "yes" if entry.replanned else "-",
            )
        )
    shard_note = f", {args.shards} shards" if args.shards is not None else ""
    print(f"[{dataset.name}] adaptive run: {args.epochs} epochs{shard_note}, "
          f"{result.replan_count} replans, total {result.total_time_s:.2f}s")
    print(render_table(("Epoch", "Time", "Traffic", "Replanned"), rows))

    if telemetry:
        from repro.harness.telemetry import emit_combined_artifacts

        paths = emit_combined_artifacts(
            args.telemetry_dir,
            args.job_name or "adaptive",
            result.instrumented_epochs(),
            registry=registry,
        )
        for path in paths:
            print(f"telemetry written to {path}")


def cmd_report(args: argparse.Namespace) -> None:
    from repro.harness.report import generate_markdown_report

    report = generate_markdown_report(samples=args.samples, seed=args.seed)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
        print(f"report written to {args.out}")
    else:
        print(report)


def cmd_serve(args: argparse.Namespace) -> None:
    """Run the always-on decision service until interrupted, then drain."""
    import signal

    from repro.service.config import ServiceConfig
    from repro.service.server import DecisionService

    config = ServiceConfig(
        token=args.token,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        total_storage_cores=args.cores,
        journal_path=args.journal,
    )
    service = DecisionService(config).start()
    host, port = service.address
    print(f"decision service listening on http://{host}:{port}")
    if args.journal:
        print(f"journal: {args.journal} "
              f"({service.recovered_grants} grants recovered)")
    print("Ctrl-C drains gracefully (finish in-flight work, checkpoint).")
    # SIGTERM (systemd, k8s, `kill`) must drain exactly like Ctrl-C.
    def _drain_signal(_sig: int, _frame: object) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _drain_signal)
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    drained = service.drain()
    print(f"\ndrained in {drained:.3f}s")


def cmd_loadgen(args: argparse.Namespace) -> None:
    """Heavy-tailed trainer load against a service; writes BENCH_service.json."""
    from repro.service import loadgen

    argv = [
        "--clients", str(args.clients),
        "--requests", str(args.requests),
        "--seed", str(args.seed),
        "--cores", str(args.cores),
        "--mean-think-s", str(args.mean_think_s),
        "--deadline-s", str(args.deadline_s),
        "--token", args.token,
        "--out", args.out,
    ]
    if args.address:
        argv.extend(["--address", args.address])
    raise SystemExit(loadgen.main(argv))


def cmd_all(args: argparse.Namespace) -> None:
    args.dataset = "openimages"
    print("== Table 1 ==")
    cmd_table1(args)
    print("\n== Figure 1a ==")
    cmd_fig1a(args)
    print("\n== Figure 1b ==")
    cmd_fig1b(args)
    print("\n== Figure 1c ==")
    cmd_fig1c(args)
    print("\n== Figure 1d ==")
    cmd_fig1d(args)
    print("\n== Figure 3 (OpenImages) ==")
    args.dataset = "openimages"
    cmd_fig3(args)
    print("\n== Figure 3 (ImageNet) ==")
    args.dataset = "imagenet"
    cmd_fig3(args)
    print("\n== Figure 4 ==")
    args.dataset = "openimages"
    cmd_fig4(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sophon-repro",
        description="Regenerate the SOPHON paper's tables and figures.",
    )
    parser.add_argument("--samples", type=int, default=1000,
                        help="samples per synthesized dataset (default 1000)")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="capability matrix").set_defaults(func=cmd_table1)

    p = sub.add_parser("fig1a", help="per-sample size trace")
    p.add_argument("--dataset", default="openimages")
    p.set_defaults(func=cmd_fig1a)

    p = sub.add_parser("fig1b", help="minimum-size stage fractions")
    p.set_defaults(func=cmd_fig1b)

    p = sub.add_parser("fig1c", help="offloading-efficiency distribution")
    p.add_argument("--dataset", default="openimages")
    p.set_defaults(func=cmd_fig1c)

    p = sub.add_parser("fig1d", help="GPU utilization by model")
    p.add_argument("--dataset", default="openimages")
    p.add_argument("--bandwidth", type=float, default=1000.0, help="Mbps")
    p.add_argument("--telemetry-dir", help="write telemetry artifacts here")
    p.set_defaults(func=cmd_fig1d)

    p = sub.add_parser("fig3", help="policy comparison, ample storage CPUs")
    p.add_argument("--dataset", default="openimages")
    p.add_argument("--storage-cores", type=int, default=48)
    p.add_argument("--csv", help="also write the data as CSV to this path")
    p.add_argument("--telemetry-dir", help="write telemetry artifacts here")
    p.set_defaults(func=cmd_fig3)

    p = sub.add_parser("fig4", help="storage-core sweep")
    p.add_argument("--dataset", default="openimages")
    p.add_argument("--cores", type=int, nargs="+", default=[0, 1, 2, 3, 4, 5])
    p.add_argument("--csv", help="also write the data as CSV to this path")
    p.add_argument("--telemetry-dir", help="write telemetry artifacts here")
    p.set_defaults(func=cmd_fig4)

    p = sub.add_parser(
        "audit", help="explain one sample's offload decision end-to-end"
    )
    p.add_argument("sample_id", type=int, help="sample to explain")
    p.add_argument("--dataset", default="openimages")
    p.add_argument("--model", default="alexnet")
    p.add_argument("--storage-cores", type=int, default=48)
    p.add_argument("--epoch", type=int, default=1,
                   help="epoch to simulate for the span log (default 1)")
    p.add_argument("--shards", type=int, default=None,
                   help="simulate on a sharded storage tier with this many "
                   "shards (round-robin placement; spans gain shard labels)")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser(
        "adaptive", help="multi-epoch adaptive run with combined telemetry"
    )
    p.add_argument("--dataset", default="openimages")
    p.add_argument("--epochs", type=int, default=3,
                   help="epochs to simulate (>= 2; epoch 0 profiles)")
    p.add_argument("--storage-cores", type=int, default=48)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--shards", type=int, default=None,
                   help="shard the storage tier (round-robin placement)")
    p.add_argument("--job-name", default=None,
                   help="tenant label stamped onto every span")
    p.add_argument("--telemetry-dir",
                   help="write the combined multi-epoch telemetry here")
    p.set_defaults(func=cmd_adaptive)

    p = sub.add_parser(
        "frontier", help="traffic-vs-fidelity frontier (progressive records)"
    )
    p.add_argument("--dataset", default="openimages")
    p.add_argument("--bandwidth", type=float, default=50.0,
                   help="link bandwidth in Mbps (tight by default so the "
                   "fidelity pass has traffic to shed)")
    p.add_argument("--floors", type=float, nargs="+", default=None,
                   help="PSNR floors in dB to sweep (a full-fidelity "
                   "baseline point is always included)")
    p.add_argument("--json", help="write the frontier JSON to this path "
                   "(default: print it after the table)")
    p.set_defaults(func=cmd_frontier)

    p = sub.add_parser("plan", help="compute (and optionally save) a SOPHON plan")
    p.add_argument("--dataset", default="openimages")
    p.add_argument("--model", default="alexnet")
    p.add_argument("--storage-cores", type=int, default=48)
    p.add_argument("--save", help="write the plan as JSON to this path")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("stalls", help="data-stall breakdown, no-off vs sophon")
    p.add_argument("--dataset", default="openimages")
    p.add_argument("--model", default="alexnet")
    p.add_argument("--storage-cores", type=int, default=48)
    p.set_defaults(func=cmd_stalls)

    p = sub.add_parser("ext-llm", help="the section-5 LLM negative result")
    p.set_defaults(func=cmd_ext_llm)

    p = sub.add_parser(
        "replay", help="summarize an exported telemetry JSONL log"
    )
    p.add_argument("log", help="path to a telemetry .jsonl export")
    p.add_argument("--sample", type=int, default=None,
                   help="also explain this sample's audited decision")
    p.add_argument("--spans", type=int, default=None,
                   help="cap the span listing at this many events (default: all)")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser(
        "slo", help="re-check the SLO section of a BENCH_service.json"
    )
    p.add_argument("report", help="path to a BENCH_service.json report")
    p.add_argument("--max", action="append", metavar="NAME=THRESHOLD",
                   help="override one objective's threshold (repeatable), "
                   "e.g. --max plan_p99=0.5")
    p.set_defaults(func=cmd_slo)

    p = sub.add_parser("report", help="full markdown results report")
    p.add_argument("--out", help="write to this path instead of stdout")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("sweep", help="grid sweep over cluster parameters")
    p.add_argument("--dataset", default="openimages")
    p.add_argument("--cores", type=int, nargs="+",
                   help="storage_cores axis values")
    p.add_argument("--bandwidths", type=float, nargs="+",
                   help="bandwidth_mbps axis values")
    p.add_argument("--csv", help="also write the grid as CSV to this path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "serve",
        help="run the always-on decision service (Ctrl-C drains gracefully)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="0 picks a free port (printed at startup)")
    p.add_argument("--token", default="sophon-dev-token",
                   help="bearer token clients must present")
    p.add_argument("--workers", type=int, default=2,
                   help="planner worker threads")
    p.add_argument("--queue-capacity", type=int, default=16,
                   help="bounded work queue size (beyond it, requests shed)")
    p.add_argument("--cores", type=int, default=48,
                   help="storage-CPU budget admission control protects")
    p.add_argument("--journal", default=None,
                   help="append-only grant journal path (enables crash "
                   "recovery)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="heavy-tailed trainer load -> BENCH_service.json",
    )
    p.add_argument("--clients", type=int, default=4)
    p.add_argument("--requests", type=int, default=25,
                   help="plan requests per client")
    p.add_argument("--cores", type=int, default=48)
    p.add_argument("--mean-think-s", type=float, default=0.002)
    p.add_argument("--deadline-s", type=float, default=5.0)
    p.add_argument("--address", default=None,
                   help="host:port of a running service (default: in-process)")
    p.add_argument("--token", default="sophon-dev-token")
    p.add_argument("--out", default="BENCH_service.json")
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser("all", help="everything above")
    p.add_argument("--bandwidth", type=float, default=1000.0)
    p.add_argument("--storage-cores", type=int, default=48)
    p.add_argument("--cores", type=int, nargs="+", default=[0, 1, 2, 3, 4, 5])
    p.set_defaults(func=cmd_all)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
