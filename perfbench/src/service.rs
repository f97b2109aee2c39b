//! `service-mix`: two `sparcsd` daemons (one worker each) sharing one
//! result store, driven by two closed-loop clients.
//!
//! Client `c` owns daemon `c` and waits for each result before its next
//! submit. The pinned pool mixes small `ilp` jobs on `layered` graphs
//! with 1k-node `memlist` jobs, all solved once in set-up. A client runs
//! cycles of four jobs, each on a pool graph drawn from the seed, under a
//! name no daemon has seen:
//!
//! 1. statement X on its own daemon: a fresh solve, published to the store;
//! 2. X again on the *other* daemon, which never served X: a store load
//!    and re-audit;
//! 3. statement Y on its own daemon: a fresh solve;
//! 4. Y again on its own daemon: an in-memory hit and re-audit.
//!
//! Half the submissions are repeats, and which tier answers each is fixed
//! by construction.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sparcs::audit::audit_design;
use sparcs::core::partitioning::{MemoryMode, PartitionId, Partitioning};
use sparcs::core::PartitionOptions;
use sparcs::dfg::gen::{layered, scaled, LayeredConfig, ScaledConfig};
use sparcs::dfg::parse::to_text;
use sparcs::estimate::Architecture;
use sparcs::flow::{design_from_partitioning, statement_key, DesignContext};
use sparcs::rtr::stream::splitmix64;
use sparcs::service::{Client, JobSpec, Request, Response, ResultSummary, ServiceStats};
use sparcs::strategy::parse_spec;

use crate::trace::{Recording, Span, Trace};
use crate::{median, set_up, span_ms, vm_hwm_kb, Args, Pass, Report};

/// Jobs per client pass.
const PASS_JOBS: usize = 16;
/// Small exact-ILP statements and 1k-node memlist statements in the pool.
const ILP_BASES: u64 = 3;
const MEMLIST_BASES: u64 = 3;
/// The pool's generator seed. The pool is pinned so that runs on
/// different seeds solve the same graphs; `--seed` draws the job stream.
const POOL_SEED: u64 = 1;
/// How long a client waits for one result before calling it failed.
const RESULT_WAIT_MS: u64 = 60_000;
/// The job count at which a client reads its daemon's peak resident set.
/// Every fresh job leaves its statement in the daemon's job table and
/// caches, so the daemons' peak grows with the jobs a run completes; read
/// at a fixed count it measures memory per work done, not the host's
/// speed. Runs reach it within about a third of their window even when
/// other tenants halve the host's speed.
const RSS_AT_JOBS: u64 = 160;

/// The step of the daemon start-up and shutdown polls.
fn nap() {
    std::thread::sleep(Duration::from_millis(5));
}

/// A running daemon; killed and reaped on drop if still alive.
struct Daemon {
    child: Child,
    client: Client,
}

impl Daemon {
    fn spawn(bin: &Path, dir: &Path, name: &str, store: &Path) -> Result<Daemon, String> {
        let socket = dir.join(format!("{name}.sock"));
        let child = Command::new(bin)
            .arg("--socket")
            .arg(&socket)
            .arg("--data")
            .arg(dir.join(name))
            .arg("--store")
            .arg(store)
            .args(["--workers", "1"])
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let daemon = Daemon {
            child,
            client: Client::new(socket)
                .with_timeout(Some(Duration::from_millis(RESULT_WAIT_MS + 10_000))),
        };
        let t0 = Instant::now();
        while daemon.stats().is_err() {
            if t0.elapsed() > Duration::from_secs(20) {
                return Err(format!("daemon {name} did not come up"));
            }
            nap();
        }
        Ok(daemon)
    }

    fn stats(&self) -> Result<ServiceStats, String> {
        match self.client.request(&Request::Stats) {
            Ok(Response::Stats { stats }) => Ok(stats),
            Ok(other) => Err(format!("unexpected reply {other:?}")),
            Err(e) => Err(e.to_string()),
        }
    }

    fn peak_rss_kb(&self) -> u64 {
        vm_hwm_kb(&self.child.id().to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.client.request(&Request::Shutdown);
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(5) {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            nap();
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One statement of the pool.
struct Base {
    label: String,
    partitioner: &'static str,
    /// Text without its `graph NAME` line; a job prepends its own name.
    body: String,
    name: String,
    ctx: DesignContext,
}

impl Base {
    fn spec(&self, suffix: Option<&str>) -> JobSpec {
        let name = match suffix {
            Some(s) => format!("{}-{s}", self.name),
            None => self.name.clone(),
        };
        JobSpec {
            partitioner: self.partitioner.into(),
            ..JobSpec::new(format!("graph {name}\n{}", self.body))
        }
    }
}

/// Daemons, pool and the answers set-up got for each pool statement.
struct Service {
    // Declared first: dropped (shut down) before the directory goes.
    daemons: Vec<Daemon>,
    bases: Vec<Base>,
    first: Vec<ResultSummary>,
    dir: PathBuf,
}

impl Drop for Service {
    fn drop(&mut self) {
        self.daemons.clear();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn pool() -> Vec<Base> {
    let arch = Architecture::xc4044_wildforce();
    let small = LayeredConfig {
        layers: 3,
        min_width: 2,
        max_width: 3,
        ..LayeredConfig::default()
    };
    let mut bases = Vec::new();
    for i in 0..ILP_BASES + MEMLIST_BASES {
        let graph_seed = splitmix64(POOL_SEED ^ (i + 1).wrapping_mul(0x9E37_79B9));
        let (graph, partitioner) = if i < ILP_BASES {
            (layered(&small, graph_seed), "ilp")
        } else {
            (scaled(&ScaledConfig::preset(1_000), graph_seed), "memlist")
        };
        let text = to_text(&graph);
        let body = text.split_once('\n').map_or("", |(_, b)| b).to_string();
        bases.push(Base {
            label: format!("base{i}"),
            partitioner,
            body,
            name: format!("{}-{i}", graph.name()),
            ctx: DesignContext {
                graph,
                arch: arch.clone(),
            },
        });
    }
    bases
}

fn submit_and_wait(d: &Daemon, spec: JobSpec) -> Result<ResultSummary, String> {
    let job = d.client.submit(spec).map_err(|e| e.to_string())?;
    wait_result(d, job)
}

fn wait_result(d: &Daemon, job: u64) -> Result<ResultSummary, String> {
    match d.client.request(&Request::Result {
        job,
        wait_ms: Some(RESULT_WAIT_MS),
    }) {
        Ok(Response::Result { result, .. }) => Ok(result),
        Ok(other) => Err(format!("job {job}: {other:?}")),
        Err(e) => Err(format!("job {job}: {e}")),
    }
}

fn set_up_once(args: &Args, round: usize) -> Result<Service, String> {
    let dir = PathBuf::from(".bench_run").join(format!("service-{}-{round}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let store = dir.join("store");
    let mut service = Service {
        daemons: Vec::new(),
        bases: pool(),
        first: Vec::new(),
        dir,
    };
    for name in ["a", "b"] {
        let d = Daemon::spawn(&args.sparcsd, &service.dir, name, &store)?;
        service.daemons.push(d);
    }
    // Solve the pool: statement i on daemon i mod 2.
    for (i, base) in service.bases.iter().enumerate() {
        let answer = submit_and_wait(&service.daemons[i % 2], base.spec(None))?;
        check_answer(base, &answer).map_err(|e| format!("set-up {}: {e}", base.label))?;
        service.first.push(answer);
    }
    Ok(service)
}

/// Rebuilds the served assignment client-side and audits it.
fn check_answer(base: &Base, got: &ResultSummary) -> Result<(), String> {
    let ids = got.assignment.iter().map(|&p| PartitionId(p)).collect();
    let design =
        design_from_partitioning(&base.ctx, Partitioning::new(ids)).map_err(|e| e.to_string())?;
    if design.latency_ns != got.latency_ns
        || design.sum_delay_ns != got.sum_delay_ns
        || design.partition_delays_ns != got.partition_delays_ns
        || design.partitioning.partition_count() != got.partitions
    {
        return Err("served numbers disagree with the rebuilt design".into());
    }
    let diags = audit_design(&base.ctx.graph, &base.ctx.arch, &design, MemoryMode::Net);
    if !diags.is_empty() {
        return Err(format!("audit findings: {diags:?}"));
    }
    Ok(())
}

/// What one client thread measured.
#[derive(Default)]
struct ClientLog {
    passes: Vec<Pass>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    spans: Vec<Span>,
    /// Own daemon's peak resident set in kB after [`RSS_AT_JOBS`] jobs.
    rss_kb: Option<u64>,
}

/// Where a job of the four-job cycle is sent, and whether it repeats the
/// statement of the job before it.
const CYCLE: [(Route, bool); 4] = [
    (Route::Own, false),
    (Route::Other, true),
    (Route::Own, false),
    (Route::Own, true),
];

#[derive(Clone, Copy)]
enum Route {
    Own,
    Other,
}

/// One closed-loop client: submit, wait, check, repeat, until `deadline`.
fn client(s: &Service, c: usize, stream_seed: u64, deadline: Instant, mut t: Trace) -> ClientLog {
    let mut log = ClientLog::default();
    let mut rng = splitmix64(stream_seed ^ (c as u64 + 1));
    let mut pass_start = Instant::now();
    let mut op_ms = Vec::with_capacity(PASS_JOBS);
    // Fresh statements deal the pool like a deck, reshuffled from the
    // seed whenever it runs out, so every run solves the same mix.
    let mut deck: Vec<usize> = Vec::new();
    // The pool index and spec of the last fresh statement.
    let mut last: Option<(usize, JobSpec)> = None;
    let mut k = 0u64;
    while Instant::now() < deadline {
        let (route, repeat) = CYCLE[k as usize % CYCLE.len()];
        let (b, spec) = match (&last, repeat) {
            (Some((b, spec)), true) => (*b, spec.clone()),
            _ => {
                if deck.is_empty() {
                    deck = (0..s.bases.len()).collect();
                    for i in (1..deck.len()).rev() {
                        rng = splitmix64(rng);
                        deck.swap(i, (rng % (i as u64 + 1)) as usize);
                    }
                }
                let b = deck.pop().expect("a refilled deck");
                let spec = s.bases[b].spec(Some(&format!("{stream_seed:x}-c{c}-{k}")));
                last = Some((b, spec.clone()));
                (b, spec)
            }
        };
        let daemon = match route {
            Route::Own => &s.daemons[c],
            Route::Other => &s.daemons[1 - c],
        };
        let base = &s.bases[b];
        k += 1;
        let id = (c as u64) << 32 | k;
        let o0 = Instant::now();
        let served = t.op(id, "op.job", |t| {
            let job = t
                .span("sparcsd.submit", |_| daemon.client.submit(spec))
                .map_err(|e| e.to_string())?;
            t.span("sparcsd.result", |_| wait_result(daemon, job))
        });
        op_ms.push(o0.elapsed().as_secs_f64() * 1e3);
        // Every answer, fresh or repeated, must be the one set-up got
        // for the same graph.
        let outcome = served.and_then(|got| {
            t.span("audit.design", |_| check_answer(base, &got))?;
            if got != s.first[b] {
                return Err(format!(
                    "{}: answer differs from the set-up answer",
                    base.label
                ));
            }
            Ok(())
        });
        log.attempted += 1;
        if k == RSS_AT_JOBS {
            log.rss_kb = Some(s.daemons[c].peak_rss_kb());
        }
        if let Err(e) = outcome {
            log.failed += 1;
            log.errors.push(e);
        }
        if op_ms.len() == PASS_JOBS {
            log.passes.push(Pass {
                secs: pass_start.elapsed().as_secs_f64(),
                op_ms: std::mem::take(&mut op_ms),
            });
            if t.enabled() {
                // Probes between passes, outside every op span.
                let _ = t.span("sparcsd.rtt", |_| s.daemons[c].stats());
                let strategy = parse_spec(base.partitioner, &PartitionOptions::default());
                if let Ok(strategy) = strategy {
                    let _ = t.span("cache.key", |_| statement_key(&base.ctx, strategy.as_ref()));
                }
            }
            pass_start = Instant::now();
        }
    }
    log.spans = t.into_spans();
    log
}

/// Sum of both daemons' counters.
fn total_stats(s: &Service) -> Result<ServiceStats, String> {
    let mut sum = ServiceStats::default();
    for d in &s.daemons {
        let st = d.stats()?;
        sum.cache_hits += st.cache_hits;
        sum.cache_misses += st.cache_misses;
        sum.store_hits += st.store_hits;
        sum.done += st.done;
    }
    Ok(sum)
}

/// Runs both clients for `seconds`; returns their complete passes (a
/// trailing partial pass is dropped) and the counters' deltas, and sets
/// `report.extra_rss_kb` to the daemons' peak resident sets read at
/// [`RSS_AT_JOBS`] (at the window's end for a client that fell short).
fn window(
    s: &Service,
    seconds: f64,
    traced: bool,
    stream_seed: u64,
    report: &mut Report,
) -> Result<(Vec<Pass>, ServiceStats, Option<Recording>), String> {
    let before = total_stats(s)?;
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..s.daemons.len())
            .map(|c| {
                let t = Trace::new(traced, origin, c as u32);
                scope.spawn(move || client(s, c, stream_seed, deadline, t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let after = total_stats(s)?;
    let mut passes = Vec::new();
    let mut threads = Vec::new();
    report.extra_rss_kb = 0;
    for (log, daemon) in logs.into_iter().zip(&s.daemons) {
        report.extra_rss_kb += log.rss_kb.unwrap_or_else(|| daemon.peak_rss_kb());
        passes.extend(log.passes);
        report.attempted += log.attempted;
        report.failed += log.failed;
        for e in log.errors.iter().take(5) {
            eprintln!("perfbench: FAILED job: {e}");
        }
        threads.push(log.spans);
    }
    let delta = ServiceStats {
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        store_hits: after.store_hits - before.store_hits,
        done: after.done - before.done,
        ..ServiceStats::default()
    };
    Ok((passes, delta, traced.then_some(Recording { threads })))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut round = 0;
    let s = set_up(&mut report, || {
        round += 1;
        set_up_once(args, round)
    })?;
    let mut gate = std::collections::BTreeMap::new();
    for (base, answer) in s.bases.iter().zip(&s.first) {
        gate.insert(
            format!("{}.partitions", base.label),
            answer.partitions.to_string(),
        );
        gate.insert(
            format!("{}.latency_ns", base.label),
            answer.latency_ns.to_string(),
        );
    }
    report.gate_pass(gate);

    if args.trace {
        let (untraced, _, _) = window(&s, args.seconds / 2.0, false, args.seed, &mut report)?;
        report.untraced_passes = untraced;
        // A different job stream, so the traced half submits statements
        // the untraced half did not.
        let (passes, delta, rec) = window(
            &s,
            args.seconds / 2.0,
            true,
            splitmix64(args.seed),
            &mut report,
        )?;
        report.passes = passes;
        let rec = rec.ok_or("traced window without a recording")?;
        let done = delta.done.max(1) as f64;
        let values = [
            ("sparcsd.rtt_ms", span_ms(&rec, "sparcsd.rtt")),
            ("sparcsd.submit_ack_ms", span_ms(&rec, "sparcsd.submit")),
            ("sparcsd.result_wait_ms", span_ms(&rec, "sparcsd.result")),
            ("sparcsd.cache_hit_ratio", delta.cache_hits as f64 / done),
            ("sparcsd.store_hit_ratio", delta.store_hits as f64 / done),
            ("cache.key_ms", span_ms(&rec, "cache.key")),
            ("audit.design_ms", span_ms(&rec, "audit.design")),
        ];
        report.layers.extend(values);
        let key_bytes: Vec<f64> = s
            .bases
            .iter()
            .filter_map(|b| {
                let strategy = parse_spec(b.partitioner, &PartitionOptions::default()).ok()?;
                statement_key(&b.ctx, strategy.as_ref()).map(|k| k.as_str().len() as f64)
            })
            .collect();
        report.layers.insert("cache.key_bytes", median(&key_bytes));
        report.recording = Some(rec);
    } else {
        let (passes, _, _) = window(&s, args.seconds, false, args.seed, &mut report)?;
        report.passes = passes;
    }
    Ok(report)
}
