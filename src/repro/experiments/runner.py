"""Command-line entry point that regenerates the paper's figures/tables.

Usage (installed as ``glove-repro``)::

    glove-repro                       # run everything at default scale
    glove-repro -e fig3 table2        # a subset
    glove-repro -n 250 -d 7 -s 3      # bigger datasets, other seed
    glove-repro --scenario suite      # a registered workload scenario
    glove-repro --list                # registered experiments/scenarios

Every experiment prints an :class:`~repro.experiments.report.ExperimentReport`
with the rows/series of the corresponding paper artifact.  Runtime
grows quadratically with ``--n-users`` (GLOVE is O(n^2 m^2)); the
defaults finish on a laptop in minutes.

Expensive stages (dataset synthesis, GLOVE runs, pairwise matrices) are
requested through the content-addressed artifact pipeline
(:mod:`repro.core.pipeline`), so a suite run computes each anonymized
population exactly once and repeated runs reuse the on-disk store —
``--no-cache`` computes everything fresh, byte-identically.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Optional

from repro.core.config import (
    ComputeConfig,
    add_compute_arguments,
    compute_config_from_args,
)
from repro.core.engine import set_default_compute
from repro.core.pipeline import (
    Pipeline,
    add_pipeline_arguments,
    pipeline_from_args,
    set_default_pipeline,
)
from repro.core.scenarios import available_scenarios, get_scenario
from repro.experiments import (
    ablation_weights,
    attack_matrix,
    fig3,
    fig4,
    fig5,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    stability,
    stream_eval,
    table2,
    uniqueness,
    utility_eval,
)

EXPERIMENTS: Dict[str, Callable] = {
    "fig3": fig3.run,
    "fig4": fig4.run,
    "fig5": fig5.run,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "fig10": fig10.run,
    "fig11": fig11.run,
    "table2": table2.run,
    "utility": utility_eval.run,
    "stability": stability.run,
    "stream": stream_eval.run,
    "uniqueness": uniqueness.run,
    "ablation-weights": ablation_weights.run,
    "attacks": attack_matrix.run,
}

#: Fallback scale when neither flags nor a scenario specify one.
DEFAULT_N_USERS = 150
DEFAULT_DAYS = 5
DEFAULT_SEED = 0


def _experiment_name(name: str) -> str:
    """argparse type: a registered experiment name (exit 2 otherwise)."""
    if name not in EXPERIMENTS:
        raise argparse.ArgumentTypeError(
            f"unknown experiment {name!r}; available: {', '.join(sorted(EXPERIMENTS))}"
        )
    return name


def _scenario_name(name: str) -> str:
    """argparse type: a registered scenario name (exit 2 otherwise)."""
    if name not in available_scenarios():
        raise argparse.ArgumentTypeError(
            f"unknown scenario {name!r}; available: {', '.join(available_scenarios())}"
        )
    return name


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="glove-repro",
        description="Reproduce the GLOVE paper's evaluation figures and tables.",
    )
    parser.add_argument(
        "-e",
        "--experiments",
        nargs="+",
        type=_experiment_name,
        default=None,
        metavar="NAME",
        help="experiments to run (default: all; see --list)",
    )
    parser.add_argument(
        "--scenario",
        type=_scenario_name,
        default=None,
        metavar="NAME",
        help="run at a registered workload scenario's scale (see --list); "
        "explicit -n/-d/-s flags override the scenario's fields",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the registered experiments and scenarios, then exit",
    )
    parser.add_argument(
        "-n",
        "--n-users",
        type=int,
        default=None,
        help=f"synthetic users per dataset (default: {DEFAULT_N_USERS})",
    )
    parser.add_argument(
        "-d",
        "--days",
        type=int,
        default=None,
        help=f"recording period in days (default: {DEFAULT_DAYS})",
    )
    parser.add_argument(
        "-s", "--seed", type=int, default=None, help="random seed (default: 0)"
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        help="directory to save .txt/.json report artifacts",
    )
    add_compute_arguments(parser)
    add_pipeline_arguments(parser)
    return parser


def print_registry(stream=None) -> None:
    """List the registered experiments and scenarios (``--list``)."""
    stream = stream if stream is not None else sys.stdout
    print("experiments:", file=stream)
    for name in sorted(EXPERIMENTS):
        print(f"  {name}", file=stream)
    print("scenarios:", file=stream)
    for name in available_scenarios():
        sc = get_scenario(name)
        suite = f" -e {' '.join(sc.experiments)}" if sc.experiments else ""
        method = f" method={sc.method}" if sc.method != "glove" else ""
        print(
            f"  {name:<12} {sc.preset} n={sc.n_users} d={sc.days} "
            f"seed={sc.seed}{method}{suite}  {sc.description}",
            file=stream,
        )


def run_experiments(
    names: List[str],
    n_users: int,
    days: int,
    seed: int,
    stream=sys.stdout,
    output: str = None,
    compute: Optional[ComputeConfig] = None,
    pipeline: Optional[Pipeline] = None,
    method: str = "glove",
    method_options=None,
) -> Dict[str, object]:
    """Run the named experiments, printing each report; returns them.

    With ``output`` set, every report is also saved as ``.txt`` and
    ``.json`` artifacts in that directory.  ``compute`` selects the
    stretch-compute backend for every GLOVE run and k-gap matrix build
    of the session; ``pipeline`` selects the artifact store the
    experiments request datasets/anonymizations through.  Both are
    installed as the process-wide defaults for the duration, then
    restored.  ``method`` and ``method_options`` (the scenario method
    axis) are forwarded to every experiment whose signature accepts
    them, pointing the evaluation at any registered anonymizer.
    """
    import inspect

    reports = {}
    previous = set_default_compute(compute) if compute is not None else None
    previous_pipeline = set_default_pipeline(pipeline) if pipeline is not None else None
    try:
        for name in names:
            t0 = time.time()
            fn = EXPERIMENTS[name]
            kwargs = {}
            params = inspect.signature(fn).parameters
            if "method" in params and (method != "glove" or method_options):
                kwargs["method"] = method
                if method_options and "method_options" in params:
                    kwargs["method_options"] = dict(method_options)
            report = fn(n_users=n_users, days=days, seed=seed, **kwargs)
            elapsed = time.time() - t0
            reports[name] = report
            print(report.render(), file=stream)
            print(f"[{name} completed in {elapsed:.1f} s]\n", file=stream)
            if output is not None:
                from repro.experiments.artifacts import save_report

                paths = save_report(report, output)
                print(f"[artifacts: {paths['txt']}, {paths['json']}]\n", file=stream)
    finally:
        if previous is not None:
            set_default_compute(previous)
        if pipeline is not None:
            set_default_pipeline(previous_pipeline)
    return reports


def main(argv: List[str] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.list:
        print_registry()
        return 0
    scenario = get_scenario(args.scenario) if args.scenario else None

    def resolve(flag_value, scenario_value, fallback):
        if flag_value is not None:
            return flag_value
        return scenario_value if scenario is not None else fallback

    names = args.experiments
    if names is None:
        if scenario is not None and scenario.experiments:
            names = list(scenario.experiments)
        else:
            names = sorted(EXPERIMENTS)
    run_experiments(
        names,
        resolve(args.n_users, scenario.n_users if scenario else None, DEFAULT_N_USERS),
        resolve(args.days, scenario.days if scenario else None, DEFAULT_DAYS),
        resolve(args.seed, scenario.seed if scenario else None, DEFAULT_SEED),
        output=args.output,
        compute=compute_config_from_args(args),
        pipeline=pipeline_from_args(args),
        method=scenario.method if scenario is not None else "glove",
        method_options=scenario.method_options if scenario is not None else None,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
