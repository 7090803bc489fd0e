"""``python -m repro`` — the consolidated command-line interface.

One entry point over the whole library, built on :mod:`repro.api`:

``run``
    Simulate a single scenario, described by registry flags
    (``--dataset mnist --system sec6_cluster:2 --policy nopfs ...``)
    or a JSON file/string (``--scenario``). Memoized when
    ``--cache-dir`` is set; ``--json`` emits the full result.
``sweep``
    Grid execution: ``sweep run`` evaluates a ``module:attr`` grid or
    a ``--scenarios`` JSON file (optionally one ``--shard i/K``),
    ``sweep merge`` unions shard caches/manifests.
``cache``
    Result-cache lifecycle: ``gc`` / ``stats`` / ``verify``.
``experiments``
    The full-paper driver (figures/tables through one shared sweep).
``search``
    Branch-and-bound (or baseline) search over a declared space:
    ``--driver bb|random``, the same axis flags as ``run``
    plus ``--policies`` / repeatable ``--knob field=v1,v2``, budget /
    timeout / seed, and ``--manifest`` to write the byte-reproducible
    :class:`~repro.search.manifest.SearchManifest`.
``list``
    Registry and figure listings: ``list policies | datasets |
    systems | searchers | figures`` (or no argument for everything).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigurationError, PolicyError, ReproError

__all__ = ["build_scenario_from_args", "main"]


# -- run ---------------------------------------------------------------


def build_scenario_from_args(args: argparse.Namespace):
    """Construct the :class:`~repro.api.Scenario` a ``run`` invocation names.

    ``--scenario`` (a JSON file path or an inline JSON object) is the
    complete description: combining it with any axis or knob flag is an
    error rather than a silent override.
    """
    from .api import Scenario
    from .rng import DEFAULT_SEED
    from .sim import NoiseConfig

    if args.scenario is not None:
        conflicting = [
            flag
            for flag, value in (
                ("--dataset", args.dataset),
                ("--system", args.system),
                ("--policy", args.policy),
                ("--batch-size", args.batch_size),
                ("--epochs", args.epochs),
                ("--seed", args.seed),
                ("--scale", args.scale),
                ("--no-noise", args.no_noise or None),
            )
            if value is not None
        ]
        if conflicting:
            raise ConfigurationError(
                f"--scenario is a complete description; drop {', '.join(conflicting)} "
                "(edit the JSON instead)"
            )
        text = args.scenario
        if not text.lstrip().startswith("{"):
            try:
                text = Path(text).read_text()
            except OSError as exc:
                raise ConfigurationError(f"cannot read --scenario {text!r}: {exc}") from exc
        try:
            return Scenario.from_json(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"--scenario is not valid JSON: {exc}") from exc
    missing = [
        flag
        for flag, value in (
            ("--dataset", args.dataset),
            ("--system", args.system),
            ("--policy", args.policy),
        )
        if not value
    ]
    if missing:
        raise ConfigurationError(f"run needs {', '.join(missing)} (or --scenario)")
    kwargs = {}
    if args.no_noise:
        kwargs["noise"] = NoiseConfig.disabled()
    return Scenario(
        dataset=args.dataset,
        system=args.system,
        policy=args.policy,
        batch_size=32 if args.batch_size is None else args.batch_size,
        num_epochs=2 if args.epochs is None else args.epochs,
        seed=DEFAULT_SEED if args.seed is None else args.seed,
        scale=1.0 if args.scale is None else args.scale,
        **kwargs,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    from .api import Session

    scenario = build_scenario_from_args(args)
    session = Session(jobs=args.jobs, cache_dir=args.cache_dir, executor=args.executor)
    result = session.run(scenario)
    print(f"scenario: {scenario.label} [{result.scenario}] scale={scenario.scale}")
    print(f"fingerprint: {scenario.fingerprint()}")
    print(
        f"total: {result.total_time_s:.4f} s | "
        f"median epoch: {result.median_epoch_time_s():.4f} s | "
        f"stall: {result.total_stall_s:.4f} s"
    )
    shares = result.fetch_shares()
    print(
        "fetch shares: "
        + " ".join(f"{k}={100 * v:.1f}%" for k, v in sorted(shares.items()))
    )
    print(session.stats.render())
    if args.json is not None:
        payload = result.to_json()
        if args.json == "-":
            print(payload)
        else:
            Path(args.json).write_text(payload + "\n")
            print(f"result: {args.json}")
    return 0


def _configure_run(sub) -> None:
    from .sweep.executors import EXECUTORS

    run = sub.add_parser("run", help="simulate one scenario (registry flags or JSON)")
    run.add_argument("--scenario", default=None, metavar="FILE|JSON",
                     help="scenario as a JSON file path or inline JSON object")
    run.add_argument("--dataset", default=None, help="dataset spec (e.g. mnist, imagenet1k)")
    run.add_argument("--system", default=None, help="system spec (e.g. sec6_cluster:4, lassen:512)")
    run.add_argument("--policy", default=None,
                     help="policy spec (e.g. nopfs, deepio:opportunistic, pytorch:2)")
    run.add_argument("--batch-size", type=int, default=None,
                     help="per-worker batch size (default 32)")
    run.add_argument("--epochs", type=int, default=None, help="epochs to simulate (default 2)")
    run.add_argument("--seed", type=int, default=None, help="simulation seed")
    run.add_argument("--scale", type=float, default=None,
                     help="regime-true shrink factor in (0, 1] (default 1.0)")
    run.add_argument("--no-noise", action="store_true",
                     help="disable the stochastic fetch-noise model")
    run.add_argument("--jobs", type=int, default=1, help="worker processes")
    run.add_argument("--cache-dir", default=None, help="memoize results here")
    run.add_argument(
        "--executor", choices=EXECUTORS, default=None,
        help="sweep execution strategy (default: derived from --jobs)",
    )
    run.add_argument("--json", default=None, metavar="FILE|-",
                     help="write the full SimulationResult JSON to FILE ('-' = stdout)")
    run.set_defaults(func=_cmd_run)


# -- search ------------------------------------------------------------


def _coerce_knob_value(text: str):
    """Parse one ``--knob`` value: int, then float, then bool, then str."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            continue
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def build_space_from_args(args: argparse.Namespace):
    """Construct the :class:`~repro.search.SearchSpace` a ``search`` names.

    ``--space`` (a JSON file path or inline JSON object) is the
    complete description; otherwise the space is assembled from the
    axis flags, ``--policies`` and repeatable ``--knob`` flags.
    """
    from .api import Scenario
    from .rng import DEFAULT_SEED
    from .search import KnobDomain, SearchSpace

    if args.space is not None:
        conflicting = [
            flag
            for flag, value in (
                ("--dataset", args.dataset),
                ("--system", args.system),
                ("--batch-size", args.batch_size),
                ("--epochs", args.epochs),
                ("--scale", args.scale),
                ("--policies", args.policies),
                ("--knob", args.knob or None),
            )
            if value is not None
        ]
        if conflicting:
            raise ConfigurationError(
                f"--space is a complete description; drop {', '.join(conflicting)} "
                "(edit the JSON instead)"
            )
        text = args.space
        if not text.lstrip().startswith("{"):
            try:
                text = Path(text).read_text()
            except OSError as exc:
                raise ConfigurationError(f"cannot read --space {text!r}: {exc}") from exc
        try:
            return SearchSpace.from_json(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"--space is not valid JSON: {exc}") from exc
    missing = [
        flag
        for flag, value in (("--dataset", args.dataset), ("--system", args.system))
        if not value
    ]
    if missing:
        raise ConfigurationError(f"search needs {', '.join(missing)} (or --space)")
    policies = ()
    if args.policies is not None:
        policies = tuple(p.strip() for p in args.policies.split(",") if p.strip())
        if not policies:
            raise ConfigurationError("--policies must name at least one policy spec")
    knobs = []
    for spec in args.knob or ():
        name, sep, values = spec.partition("=")
        if not sep or not values:
            raise ConfigurationError(
                f"--knob wants field=v1,v2,... got {spec!r}"
            )
        knobs.append(
            KnobDomain(
                name=name.strip(),
                values=tuple(_coerce_knob_value(v.strip()) for v in values.split(",")),
            )
        )
    base = Scenario(
        dataset=args.dataset,
        system=args.system,
        # The base policy is a placeholder — candidates always override
        # it with a spec from the policy axis.
        policy=(policies[0] if policies else "naive"),
        batch_size=32 if args.batch_size is None else args.batch_size,
        num_epochs=2 if args.epochs is None else args.epochs,
        seed=DEFAULT_SEED if args.scenario_seed is None else args.scenario_seed,
        scale=1.0 if args.scale is None else args.scale,
    )
    return SearchSpace(base=base, policies=policies, knobs=tuple(knobs))


def _cmd_search(args: argparse.Namespace) -> int:
    from .api import Session
    from .search import SearchEvent, run_search

    space = build_space_from_args(args)
    session = Session(jobs=args.jobs, cache_dir=args.cache_dir, executor=args.executor)
    on_event = None
    if args.progress:

        def on_event(event):
            if isinstance(event, SearchEvent):
                fields = ", ".join(
                    f"{k}={v}" for k, v in vars(event).items() if k != "stats"
                )
                print(f"  [{type(event).__name__}] {fields}")

    manifest = run_search(
        space,
        driver=args.driver,
        session=session,
        seed=args.seed,
        budget=args.budget,
        timeout_s=args.timeout,
        timestamp=args.timestamp,
        on_event=on_event,
    )
    print(f"driver: {manifest.driver} | space: {space.size()} candidates")
    if manifest.best is None:
        print("best: none (no supported candidate evaluated)")
    else:
        print(
            f"best: {manifest.best.scenario.label} "
            f"[{manifest.best.fingerprint}] "
            f"total={manifest.best.objective_s:.4f} s"
        )
    print(manifest.stats.render())
    # A frontier batch prices each candidate once, so the cells swept
    # beyond the recorded evaluations are the speculative ones.
    speculative = session.stats.cells - manifest.stats.evaluations
    print(f"{session.stats.render()} | {speculative} speculative")
    if args.manifest is not None:
        manifest.write(args.manifest)
        print(f"manifest: {args.manifest}")
    return 0


def _configure_search(sub) -> None:
    from .rng import DEFAULT_SEED
    from .sweep.executors import EXECUTORS

    search = sub.add_parser(
        "search", help="search a scenario/policy space (branch-and-bound or baselines)"
    )
    search.add_argument("--space", default=None, metavar="FILE|JSON",
                        help="SearchSpace as a JSON file path or inline JSON object")
    search.add_argument("--dataset", default=None, help="base dataset spec (e.g. mnist)")
    search.add_argument("--system", default=None, help="base system spec (e.g. piz_daint:4)")
    search.add_argument("--batch-size", type=int, default=None,
                        help="base per-worker batch size (default 32)")
    search.add_argument("--epochs", type=int, default=None,
                        help="base epochs to simulate (default 2)")
    search.add_argument("--scale", type=float, default=None,
                        help="base regime-true shrink factor in (0, 1]")
    search.add_argument("--scenario-seed", type=int, default=None,
                        help="base scenario's simulation seed")
    search.add_argument("--policies", default=None, metavar="SPEC,SPEC,...",
                        help="policy axis (default: the Fig 8 lineup)")
    search.add_argument("--knob", action="append", default=None, metavar="FIELD=V1,V2",
                        help="searched scenario field and its values (repeatable)")
    search.add_argument("--driver", default="bb",
                        help="searcher spec: bb, bb:1.5, random (default bb)")
    search.add_argument("--budget", type=int, default=None,
                        help="maximum evaluations (default: unlimited)")
    search.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                        help="wall-clock limit (default: unlimited)")
    search.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="search seed (drives the random baseline)")
    search.add_argument("--jobs", type=int, default=1, help="worker processes")
    search.add_argument("--cache-dir", default=None, help="memoize evaluations here")
    search.add_argument(
        "--executor", choices=EXECUTORS, default=None,
        help="sweep execution strategy (default: derived from --jobs)",
    )
    search.add_argument("--manifest", default=None, metavar="FILE",
                        help="write the byte-reproducible SearchManifest here")
    search.add_argument("--timestamp", default=None, metavar="ISO8601",
                        help="stamp the manifest's created_at (omitted = unstamped)")
    search.add_argument("--progress", action="store_true",
                        help="print search events as they happen")
    search.set_defaults(func=_cmd_search)


# -- list --------------------------------------------------------------


def _figure_names() -> list[str]:
    from .experiments.paper import QUICK_PARAMS

    return list(QUICK_PARAMS)


def _cmd_list(args: argparse.Namespace) -> int:
    from .api import DATASETS, POLICIES, SEARCHERS, SYSTEMS

    sections = {
        "policies": POLICIES,
        "datasets": DATASETS,
        "systems": SYSTEMS,
        "searchers": SEARCHERS,
    }
    wanted = [args.what] if args.what else [*sections, "figures"]
    blocks: list[str] = []
    for what in wanted:
        if what == "figures":
            names = _figure_names()
            rows = [(name, "") for name in names]
        else:
            rows = sections[what].describe()
        width = max(len(name) for name, _ in rows)
        lines = [f"{what}:"]
        lines += [f"  {name.ljust(width)}  {summary}".rstrip() for name, summary in rows]
        blocks.append("\n".join(lines))
    print("\n\n".join(blocks))
    return 0


def _configure_list(sub) -> None:
    lister = sub.add_parser("list", help="list registered policies/datasets/systems/figures")
    lister.add_argument(
        "what", nargs="?", default=None,
        choices=("policies", "datasets", "systems", "searchers", "figures"),
        help="one section (default: everything)",
    )
    lister.set_defaults(func=_cmd_list)


# -- parser ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser that never matches a flag by its prefix.

    Subparsers inherit the class, so every subcommand rejects an unknown
    flag (exit 2) instead of reading it as the flag it abbreviates.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    from .sweep import cli as sweep_cli

    parser = _Parser(
        prog="python -m repro",
        description="NoPFS reproduction: scenarios, sweeps, caches, experiments.",
        epilog="Figure regeneration: python -m repro experiments --help",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _configure_run(sub)
    _configure_search(sub)

    sweep = sub.add_parser("sweep", help="sweep a grid / merge shard results")
    ssub = sweep.add_subparsers(dest="subcommand", required=True)
    sweep_cli.configure_run(ssub)
    sweep_cli.configure_merge(ssub)

    cache = sub.add_parser("cache", help="result-cache lifecycle (gc/stats/verify)")
    csub = cache.add_subparsers(dest="subcommand", required=True)
    sweep_cli.configure_gc(csub)
    sweep_cli.configure_stats(csub)
    sweep_cli.configure_verify(csub)

    # `experiments` is dispatched before argparse (its flags belong to
    # the driver); this stub only makes it show up in --help.
    sub.add_parser("experiments", help="regenerate the paper's figures (full-paper driver)")

    _configure_list(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "experiments":
        # The full-paper driver owns its flag set; hand the rest over.
        from .experiments.paper import main as experiments_main

        try:
            experiments_main(argv[1:])
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, PolicyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
