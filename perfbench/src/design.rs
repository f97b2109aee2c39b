//! The two design workloads: graph text in, certified and
//! fission-analysed design out.
//!
//! * `ilp-dct` — the paper's DCT graph, with the exact ILP pinned at each
//!   bound N₀…N₀+3 (the shards `portfolio` races).
//! * `scale-refine` — pinned `dfg::gen::scaled` graphs on a cut-down
//!   scale-suite board, each under `multilevel` and under `memlist+kl`.
//!
//! One op is one graph text through parse → analyze → statement key →
//! partition (which includes the program's own certification audit) →
//! fission, each call in its own span. The bench's checks, its own
//! `audit_design` and `audit_fission` calls among them, run after the pass
//! is timed.

use std::collections::BTreeMap;
use std::time::Instant;

use sparcs::audit::{audit_design, audit_fission};
use sparcs::core::fission::FissionAnalysis;
use sparcs::core::list::partition_list_memory_aware;
use sparcs::core::partitioning::MemoryMode;
use sparcs::core::search::SearchCtx;
use sparcs::core::{PartitionOptions, PartitionedDesign};
use sparcs::dfg::gen::{scaled, ScaledConfig};
use sparcs::dfg::parse::to_text;
use sparcs::dfg::{Resources, TaskGraph};
use sparcs::estimate::Architecture;
use sparcs::flow::{
    design_from_partitioning, statement_key, DesignContext, FlowError, FlowSession, IlpStrategy,
    PartitionStrategy,
};
use sparcs::jpeg::{dct_task_graph, EstimateBackend};
use sparcs::multilevel::{coarsen, partition_multilevel, CoarsenConfig, MultilevelOutcome};
use sparcs::strategy::{parse_spec, MultilevelStrategy};

use crate::trace::Trace;
use crate::{another_pass, measure, median, set_up, span_ms, Args, Pass, Report};

/// The workload `I` the modelled execution time is evaluated at: the
/// paper's 245,760 computations (a 640×384 image in 4×4 blocks).
const MODELLED_WORKLOAD: u64 = 245_760;

/// ILP bounds N₀ + 0…3, the shards the portfolio races.
const ILP_BOUNDS: u32 = 4;

/// Per-bound ILP metric names: nodes, pivots, cold solves, solve time,
/// pivots per second.
const ILP_METRICS: [[&str; 5]; ILP_BOUNDS as usize] = [
    [
        "ilp.bound0.nodes",
        "ilp.bound0.pivots",
        "ilp.bound0.cold_solves",
        "ilp.bound0.solve_ms",
        "ilp.bound0.pivots_per_s",
    ],
    [
        "ilp.bound1.nodes",
        "ilp.bound1.pivots",
        "ilp.bound1.cold_solves",
        "ilp.bound1.solve_ms",
        "ilp.bound1.pivots_per_s",
    ],
    [
        "ilp.bound2.nodes",
        "ilp.bound2.pivots",
        "ilp.bound2.cold_solves",
        "ilp.bound2.solve_ms",
        "ilp.bound2.pivots_per_s",
    ],
    [
        "ilp.bound3.nodes",
        "ilp.bound3.pivots",
        "ilp.bound3.cold_solves",
        "ilp.bound3.solve_ms",
        "ilp.bound3.pivots_per_s",
    ],
];

/// The pinned scale-refine corpus: (nodes, generator seed) of each
/// `scaled` preset graph. On the [`scale_board`] each needs 2 partitions
/// and coarsens to a model above `exact_var_limit`, so the V-cycle seeds
/// its coarsest level with the memory-aware list packer, never the ILP
/// (the gate pins `initial` = `MemList`). Each graph runs under
/// `multilevel` and under `memlist+kl`.
const SCALE_GRAPHS: [(u32, u64); 3] = [(150, 13), (150, 14), (200, 12)];

/// The strategy one op runs.
#[derive(Clone, Copy)]
enum Kind {
    Ilp,
    Multilevel,
    MemlistKl,
}

impl Kind {
    /// The span around the op's partition call.
    fn span(self) -> &'static str {
        match self {
            Kind::Ilp => "ilp.solve",
            Kind::Multilevel => "multilevel.total",
            Kind::MemlistKl => "partition.memlist_kl",
        }
    }
}

/// One graph of a workload's corpus, prepared in set-up.
struct Job {
    label: String,
    text: String,
    arch: Architecture,
    kind: Kind,
    strategy: Box<dyn PartitionStrategy>,
    /// The generated graph, for the probes and the checks.
    graph: TaskGraph,
    /// Latency of the flat `memlist` seed the bench computes itself; the
    /// op's design must never be worse.
    seed_latency_ns: Option<u64>,
}

/// What one op produced.
struct Done {
    design: PartitionedDesign,
    fission: FissionAnalysis,
    modelled_ns: u64,
    key_bytes: usize,
}

fn flow_err(e: FlowError) -> String {
    e.to_string()
}

/// One op: the job's graph text to a certified, fission-analysed design.
fn design_op(t: &mut Trace, id: u64, job: &Job) -> Result<Done, String> {
    t.op(id, "op.design", |t| {
        let session = t
            .span("dfg.parse", |_| {
                FlowSession::from_text(&job.text, job.arch.clone())
            })
            .map_err(flow_err)?;
        let ctx = session.context();
        t.span("analyze", |_| {
            sparcs::analyze::analyze(&ctx.graph, &ctx.arch, MemoryMode::Net)
        })
        .map_err(|e| e.to_string())?;
        let key = t.span("cache.key", |_| statement_key(ctx, job.strategy.as_ref()));
        let stage = t
            .span(job.kind.span(), |_| {
                session.partition_with_search(job.strategy.as_ref(), &SearchCtx::unbounded())
            })
            .map_err(flow_err)?;
        let analyzed = t.span("fission", |_| stage.analyze()).map_err(flow_err)?;
        let sequencing = analyzed.choose_sequencing(MODELLED_WORKLOAD);
        let modelled_ns = analyzed.total_time_ns(sequencing, MODELLED_WORKLOAD);
        Ok(Done {
            design: analyzed.design,
            fission: analyzed.fission,
            modelled_ns,
            key_bytes: key.map_or(0, |k| k.as_str().len()),
        })
    })
}

/// Checks one op's output against what the workload must produce. The
/// audits run here, after the pass is timed: the program already ran
/// `audit_design` as its certification gate (which rejects only
/// error-class findings), and the bench repeats it to see the warnings.
fn check(t: &mut Trace, job: &Job, done: &Done) -> Result<(), String> {
    let d = &done.design;
    let design_findings = t.span("audit.design", |_| {
        audit_design(&job.graph, &job.arch, d, MemoryMode::Net)
    });
    let fission_findings = t.span("audit.fission", |_| {
        audit_fission(&job.graph, &d.partitioning, &done.fission, &job.arch)
    });
    let findings: Vec<String> = design_findings
        .iter()
        .chain(&fission_findings)
        .map(ToString::to_string)
        .collect();
    if !findings.is_empty() {
        return Err(format!("audit findings: {}", findings.join("; ")));
    }
    let partitions = d.partitioning.partition_count();
    if let Kind::Ilp = job.kind {
        // The paper's result: proven optimal, 3 partitions, Σd = 8,440 ns.
        if !d.stats.proven_optimal || partitions != 3 || d.sum_delay_ns != 8_440 {
            return Err(format!(
                "expected a proven 3-partition, 8440 ns design; got optimal={} partitions={partitions} sum={}",
                d.stats.proven_optimal, d.sum_delay_ns
            ));
        }
    }
    if let Some(seed) = job.seed_latency_ns {
        if d.latency_ns > seed {
            return Err(format!(
                "latency {} ns is worse than the flat memlist seed's {seed} ns",
                d.latency_ns
            ));
        }
    }
    Ok(())
}

/// The deterministic values of one pass.
fn gate_values(jobs: &[Job], done: &[Done]) -> BTreeMap<String, String> {
    let mut g = BTreeMap::new();
    for (job, d) in jobs.iter().zip(done) {
        let mut put = |k: &str, v: String| {
            g.insert(format!("{}.{k}", job.label), v);
        };
        let design = &d.design;
        put(
            "partitions",
            design.partitioning.partition_count().to_string(),
        );
        put("latency_ns", design.latency_ns.to_string());
        put("modelled_exec_ns", d.modelled_ns.to_string());
        if let Kind::Ilp = job.kind {
            put("nodes", design.stats.nodes.to_string());
            put("pivots", design.stats.pivots.to_string());
            put("cold_solves", design.stats.cold_solves.to_string());
        }
    }
    g
}

/// Single-layer probes, run outside the op spans so op spans stay
/// comparable with the untraced run.
fn probes(t: &mut Trace, job: &Job) {
    match job.kind {
        Kind::Multilevel => {
            let cfg = MultilevelStrategy::with_options(PartitionOptions::default()).config;
            let cfg = CoarsenConfig {
                coarsest_tasks: cfg.coarsest_tasks,
                max_levels: cfg.max_levels,
                min_shrink_per_mille: cfg.min_shrink_per_mille,
                seed: cfg.seed,
            };
            let _ = t.span("multilevel.coarsen", |_| {
                coarsen(&job.graph, &job.arch, &cfg)
            });
        }
        Kind::MemlistKl => {
            let _ = t.span("list.memlist", |_| {
                partition_list_memory_aware(&job.graph, &job.arch, MemoryMode::Net)
            });
        }
        Kind::Ilp => {}
    }
}

/// The `multilevel` strategy's configuration, called directly through
/// [`partition_multilevel`] to read the V-cycle's outcome facts (levels,
/// coarsest size, initial solver, guard winner) that the strategy trait
/// does not return. Set-up checks that its name and configuration key are
/// the production strategy's, and each run checks that it partitions
/// every graph exactly as the op did.
fn vcycle_probe(job: &Job) -> Result<MultilevelOutcome, String> {
    let ml = MultilevelStrategy::with_options(PartitionOptions::default());
    partition_multilevel(
        &job.graph,
        &job.arch,
        &ml.config,
        &ml.options,
        &SearchCtx::unbounded(),
    )
    .map_err(|e| e.to_string())
}

/// Runs passes over `jobs` for about `seconds`; returns the passes and
/// the outputs of every pass whose ops all succeeded.
fn window(
    jobs: &[Job],
    seconds: f64,
    t: &mut Trace,
    report: &mut Report,
) -> (Vec<Pass>, Vec<Vec<Done>>) {
    let start = Instant::now();
    let mut done_log = Vec::new();
    let mut passes = Vec::new();
    while another_pass(start, seconds, &passes) {
        let p0 = Instant::now();
        let first_id = report.attempted;
        let mut op_ms = Vec::with_capacity(jobs.len());
        let mut results = Vec::with_capacity(jobs.len());
        for (j, job) in jobs.iter().enumerate() {
            let o0 = Instant::now();
            results.push(design_op(t, first_id + j as u64, job));
            op_ms.push(o0.elapsed().as_secs_f64() * 1e3);
        }
        passes.push(Pass {
            secs: p0.elapsed().as_secs_f64(),
            op_ms,
        });
        // Checks and probes after the pass is timed.
        let mut done = Vec::with_capacity(jobs.len());
        for (job, result) in jobs.iter().zip(results) {
            match result {
                Ok(d) => {
                    let outcome = check(t, job, &d);
                    report.check(&job.label, outcome);
                    done.push(d);
                }
                Err(e) => report.check(&job.label, Err(e)),
            }
        }
        if t.enabled() {
            for job in jobs {
                probes(t, job);
            }
        }
        if done.len() == jobs.len() {
            report.gate_pass(gate_values(jobs, &done));
            done_log.push(done);
        }
    }
    (passes, done_log)
}

/// Measures `jobs`; returns the op outputs per pass of the last window
/// (the traced one in a traced run).
fn measure_jobs(args: &Args, jobs: &[Job], report: &mut Report) -> Vec<Vec<Done>> {
    let mut last = Vec::new();
    measure(args, report, |t, seconds, report| {
        let (passes, log) = window(jobs, seconds, t, report);
        last = log;
        passes
    });
    last
}

/// The layers every design op calls.
fn common_layers(report: &mut Report, log: &[Vec<Done>]) {
    let Some(rec) = &report.recording else {
        return;
    };
    let layers = [
        ("dfg.parse_ms", "dfg.parse"),
        ("analyze.ms", "analyze"),
        ("cache.key_ms", "cache.key"),
        ("audit.design_ms", "audit.design"),
        ("audit.fission_ms", "audit.fission"),
        ("fission.ms", "fission"),
    ];
    let values: Vec<(&'static str, f64)> = layers
        .iter()
        .map(|&(metric, span)| (metric, span_ms(rec, span)))
        .collect();
    report.layers.extend(values);
    let bytes: Vec<f64> = log.iter().flatten().map(|d| d.key_bytes as f64).collect();
    report.layers.insert("cache.key_bytes", median(&bytes));
}

pub fn run_ilp_dct(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    // The seed is ignored by design: the graph is the paper's.
    let jobs = set_up(&mut report, || {
        let dct = dct_task_graph(EstimateBackend::PaperCalibrated).map_err(|e| e.to_string())?;
        let text = to_text(&dct.graph);
        let arch = Architecture::xc4044_wildforce();
        Ok((0..ILP_BOUNDS)
            .map(|offset| Job {
                label: format!("bound{offset}"),
                text: text.clone(),
                arch: arch.clone(),
                kind: Kind::Ilp,
                strategy: Box::new(IlpStrategy::at_bound_offset(
                    PartitionOptions::default(),
                    offset,
                )),
                graph: dct.graph.clone(),
                seed_latency_ns: None,
            })
            .collect::<Vec<_>>())
    })?;
    let log = measure_jobs(args, &jobs, &mut report);
    if args.trace {
        common_layers(&mut report, &log);
        for (b, _) in jobs.iter().enumerate() {
            let runs: Vec<&PartitionedDesign> = log
                .iter()
                .filter_map(|p| p.get(b))
                .map(|d| &d.design)
                .collect();
            let Some(first) = runs.first() else { continue };
            // The solver's own wall clock, without the certification
            // audit the partition call runs after it.
            let solve_ms = runs
                .iter()
                .map(|d| d.stats.wall.as_secs_f64() * 1e3)
                .sum::<f64>()
                / runs.len() as f64;
            let [nodes, pivots, cold, solve, rate] = ILP_METRICS[b];
            let metrics = [
                (nodes, first.stats.nodes as f64),
                (pivots, first.stats.pivots as f64),
                (cold, first.stats.cold_solves as f64),
                (solve, solve_ms),
                (rate, first.stats.pivots as f64 / (solve_ms / 1e3)),
            ];
            report.layers.extend(metrics);
        }
    }
    Ok(report)
}

/// The scale-suite board of `tests/multilevel_scale.rs` (xc4044 timing,
/// 4M words) cut from 50k to 12k CLBs, so that graphs of 150–200 nodes
/// need 2 partitions and one op takes a fifth of a second, not seconds.
fn scale_board() -> Architecture {
    let mut a = Architecture::xc4044_wildforce();
    a.resources = Resources::clbs(12_000);
    a.memory_words = 4_000_000;
    a
}

pub fn run_scale_refine(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    // The corpus is pinned, so the seed is ignored (see README.md).
    let jobs = set_up(&mut report, || {
        let arch = scale_board();
        let options = PartitionOptions::default();
        let production = parse_spec("multilevel", &options).map_err(flow_err)?;
        let probe = MultilevelStrategy::with_options(options.clone());
        if production.name() != probe.name() || production.config_key() != probe.config_key() {
            return Err(
                "the V-cycle probe's configuration is not the `multilevel` strategy's".into(),
            );
        }
        let mut jobs = Vec::new();
        for kind in [Kind::Multilevel, Kind::MemlistKl] {
            for (nodes, graph_seed) in SCALE_GRAPHS {
                let graph = scaled(&ScaledConfig::preset(nodes), graph_seed);
                let ctx = DesignContext {
                    graph: graph.clone(),
                    arch: arch.clone(),
                };
                let seed = partition_list_memory_aware(&graph, &arch, MemoryMode::Net)
                    .map_err(|e| e.to_string())?;
                let seed_latency = design_from_partitioning(&ctx, seed)
                    .map_err(flow_err)?
                    .latency_ns;
                let (prefix, spec) = match kind {
                    Kind::Multilevel => ("ml", "multilevel"),
                    _ => ("kl", "memlist+kl"),
                };
                jobs.push(Job {
                    label: format!("{prefix}{nodes}s{graph_seed}"),
                    text: to_text(&graph),
                    arch: arch.clone(),
                    kind,
                    strategy: parse_spec(spec, &options).map_err(flow_err)?,
                    graph,
                    seed_latency_ns: Some(seed_latency),
                });
            }
        }
        Ok(jobs)
    })?;
    let log = measure_jobs(args, &jobs, &mut report);

    // The V-cycle facts, once per run and outside every op span. The
    // probe must partition each graph exactly as the op did.
    let mut facts = Vec::new();
    for (j, job) in jobs.iter().enumerate() {
        if !matches!(job.kind, Kind::Multilevel) {
            continue;
        }
        let outcome = vcycle_probe(job).and_then(|o| match log.first().and_then(|p| p.get(j)) {
            Some(d) if d.design.partitioning == o.partitioning => Ok(o),
            Some(_) => Err("the V-cycle probe partitioned differently from the op".into()),
            None => Err("no op output to compare the V-cycle probe with".into()),
        });
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                report.check(&job.label, Err(e));
                continue;
            }
        };
        let put = [
            ("levels", outcome.levels.to_string()),
            ("coarsest_tasks", outcome.coarsest_tasks.to_string()),
            ("initial", format!("{:?}", outcome.initial)),
            ("winner", outcome.winner.to_string()),
        ];
        for (k, v) in put {
            report.gate.insert(format!("{}.{k}", job.label), v);
        }
        facts.push(outcome);
    }

    if args.trace {
        common_layers(&mut report, &log);
        let n = facts.len().max(1) as f64;
        let gains: Vec<f64> = log
            .iter()
            .flat_map(|p| jobs.iter().zip(p))
            .filter(|(j, _)| matches!(j.kind, Kind::MemlistKl))
            .filter_map(|(j, d)| {
                let seed = j.seed_latency_ns? as f64;
                Some((seed - d.design.latency_ns as f64) / seed * 1e6)
            })
            .collect();
        let Some(rec) = &report.recording else {
            return Ok(report);
        };
        let total = span_ms(rec, "multilevel.total");
        let coarsen_ms = span_ms(rec, "multilevel.coarsen");
        let memlist_ms = span_ms(rec, "list.memlist");
        let kl_total = span_ms(rec, "partition.memlist_kl");
        let values = [
            ("multilevel.total_ms", total),
            ("multilevel.coarsen_ms", coarsen_ms),
            // A subtraction, not a span: coarsest solve, refinement, the
            // guard and the certification audit together.
            ("multilevel.uncoarsen_ms", total - coarsen_ms),
            (
                "multilevel.levels",
                facts.iter().map(|f| f.levels as f64).sum::<f64>() / n,
            ),
            (
                "multilevel.coarsest_tasks",
                facts.iter().map(|f| f.coarsest_tasks as f64).sum::<f64>() / n,
            ),
            (
                "multilevel.vcycle_win_ratio",
                facts.iter().filter(|f| f.winner == "multilevel").count() as f64 / n,
            ),
            ("list.memlist_ms", memlist_ms),
            // A subtraction too: the memlist+kl call minus its seed probe.
            ("refine.kl_ms", kl_total - memlist_ms),
            ("refine.gain_ppm", median(&gains)),
        ];
        report.layers.extend(values);
    }
    Ok(report)
}
