"""Fleet campaigns: parallel multi-session runs with durable results.

One :class:`ProtocolHarness` is one sender–receiver pair; a *fleet* is
thousands of them — a declarative population of scenario sessions under
mixed reset/loss/replay stories, executed serially or across a process
pool, with every finished session appended to a crash-tolerant JSONL
store and aggregated into campaign-level verdicts.

* :mod:`~repro.fleet.spec` — :class:`CampaignSpec` / :class:`ScenarioGrid`,
  the JSON-round-trippable campaign description, and its deterministic
  expansion into seeded :class:`FleetTask` units.
* :mod:`~repro.fleet.runner` — :class:`FleetRunner`, the serial /
  ``multiprocessing`` executor with resume-after-interrupt.
* :mod:`~repro.fleet.results` — :class:`TaskRecord` and the store
  backends behind one contract: :class:`ResultStore` (single JSONL
  file) and :class:`ShardedResultStore` (spawn-key-prefix sharding for
  million-task campaigns), selected via :func:`make_store`.
* :mod:`~repro.fleet.aggregate` — :func:`summarize` /
  :func:`summarize_store` and :class:`FleetSummary`: streaming
  constant-memory campaign aggregation (quantile sketch + bounded
  outlier reservoir) with repro seeds on every worst case.

Quickstart::

    from repro.fleet import ResultStore, example_spec, run_campaign, summarize

    spec = example_spec(sessions=60)
    store = ResultStore("fleet_runs/demo/results.jsonl")
    run_campaign(spec, store, jobs=4)
    print(summarize(store.records()).render())

or from the command line::

    python -m repro fleet campaign.json --jobs 4 --out fleet_runs/demo
"""

from repro.fleet.aggregate import (
    CampaignAggregate,
    FleetSummary,
    Outlier,
    OutlierReservoir,
    QuantileSketch,
    percentile,
    summarize,
    summarize_store,
)
from repro.fleet.results import (
    DEFAULT_SHARD_BITS,
    PROGRESS_LEDGER_FILE,
    STORE_KINDS,
    MemoryResultStore,
    ResultStore,
    ShardedResultStore,
    TaskRecord,
    detect_store_kind,
    make_store,
    progress_ledger_path,
    report_metrics,
    shard_index,
)
from repro.fleet.runner import (
    FleetOutcome,
    FleetRunner,
    execute_task,
    run_campaign,
    scenario_metrics,
)
from repro.fleet.spec import (
    DEFAULT_MAX_EVENTS,
    CampaignSpec,
    FleetTask,
    SampledCampaign,
    ScenarioGrid,
    decode_params,
    encode_params,
    example_spec,
    megafleet_spec,
    validate_scenario_params,
)

__all__ = [
    "CampaignAggregate",
    "CampaignSpec",
    "DEFAULT_MAX_EVENTS",
    "DEFAULT_SHARD_BITS",
    "FleetOutcome",
    "FleetRunner",
    "FleetSummary",
    "FleetTask",
    "MemoryResultStore",
    "Outlier",
    "OutlierReservoir",
    "PROGRESS_LEDGER_FILE",
    "QuantileSketch",
    "ResultStore",
    "STORE_KINDS",
    "SampledCampaign",
    "ScenarioGrid",
    "ShardedResultStore",
    "TaskRecord",
    "decode_params",
    "detect_store_kind",
    "encode_params",
    "example_spec",
    "execute_task",
    "make_store",
    "megafleet_spec",
    "percentile",
    "progress_ledger_path",
    "report_metrics",
    "run_campaign",
    "scenario_metrics",
    "shard_index",
    "summarize",
    "summarize_store",
    "validate_scenario_params",
]
