//! The SPARCS benchmark: one command that runs a named workload from a
//! seed, checks every output, and prints the end-to-end metrics (or, with
//! `--trace 1`, the per-layer metrics) as the last line of stdout.
//!
//! ```text
//! sparcs_perfbench --workload ilp-dct|scale-refine|stream-dct|service-mix
//!                  --seed N --seconds S --trace 0|1 [--sparcsd PATH]
//! ```
//!
//! `perfbench/README.md` says why each workload exists, which layer
//! metric should move which end-to-end metric, and how the determinism
//! gate in `perfbench/expected.json` works.

mod design;
mod gate;
mod service;
mod stream;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use trace::{Recording, Trace};

/// The end-to-end metrics, reported by every workload with tracing off.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, reported by every workload with tracing on. A
/// layer a workload never calls reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("dfg.parse_ms", "ms"),
    ("analyze.ms", "ms"),
    ("cache.key_ms", "ms"),
    ("cache.key_bytes", "bytes"),
    ("ilp.bound0.nodes", "count"),
    ("ilp.bound0.pivots", "count"),
    ("ilp.bound0.cold_solves", "count"),
    ("ilp.bound0.solve_ms", "ms"),
    ("ilp.bound0.pivots_per_s", "1/s"),
    ("ilp.bound1.nodes", "count"),
    ("ilp.bound1.pivots", "count"),
    ("ilp.bound1.cold_solves", "count"),
    ("ilp.bound1.solve_ms", "ms"),
    ("ilp.bound1.pivots_per_s", "1/s"),
    ("ilp.bound2.nodes", "count"),
    ("ilp.bound2.pivots", "count"),
    ("ilp.bound2.cold_solves", "count"),
    ("ilp.bound2.solve_ms", "ms"),
    ("ilp.bound2.pivots_per_s", "1/s"),
    ("ilp.bound3.nodes", "count"),
    ("ilp.bound3.pivots", "count"),
    ("ilp.bound3.cold_solves", "count"),
    ("ilp.bound3.solve_ms", "ms"),
    ("ilp.bound3.pivots_per_s", "1/s"),
    ("multilevel.coarsen_ms", "ms"),
    ("multilevel.levels", "count"),
    ("multilevel.coarsest_tasks", "count"),
    ("multilevel.total_ms", "ms"),
    ("multilevel.uncoarsen_ms", "ms"),
    ("multilevel.vcycle_win_ratio", "ratio"),
    ("list.memlist_ms", "ms"),
    ("refine.kl_ms", "ms"),
    ("refine.gain_ppm", "ppm"),
    ("audit.design_ms", "ms"),
    ("audit.fission_ms", "ms"),
    ("audit.time_report_ms", "ms"),
    ("fission.ms", "ms"),
    ("rtr.build_ms", "ms"),
    ("rtr.load_ms", "ms"),
    ("rtr.compute_ms", "ms"),
    ("rtr.store_ms", "ms"),
    ("sparcsd.rtt_ms", "ms"),
    ("sparcsd.submit_ack_ms", "ms"),
    ("sparcsd.result_wait_ms", "ms"),
    ("sparcsd.cache_hit_ratio", "ratio"),
    ("sparcsd.store_hit_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.op_coverage_pct", "%"),
    ("trace.attributed_pct", "%"),
];

/// Set-ups per run: at least `MIN_SETUPS`, more while their total stays
/// under `SETUP_BUDGET_S`, at most `MAX_SETUPS`; `setup_s` is the median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 200;
const SETUP_BUDGET_S: f64 = 1.0;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sparcsd: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut sparcsd = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|_| "--seconds needs a number")?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--sparcsd" => sparcsd = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be > 0")?,
        trace: trace.ok_or("--trace is required")?,
        sparcsd: sparcsd.unwrap_or_else(|| PathBuf::from(target).join("release/sparcsd")),
    })
}

/// One pass over a workload's op list.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall seconds of the whole pass.
    pub secs: f64,
    /// Wall milliseconds of each of its ops.
    pub op_ms: Vec<f64>,
}

/// The run's timing figures: `pass_s`, `op_p50_ms` and `op_p90_ms`.
pub struct Timing {
    pub pass_s: f64,
    pub op_p50_ms: f64,
    pub op_p90_ms: f64,
}

/// Reduces a run's passes to its timing figures.
///
/// In-process workloads repeat one fixed op list, so each op (a position
/// in the pass) is timed once per pass. Its figure is the upper quartile
/// of those times: `pass_s` is the sum over the ops and the percentiles
/// are taken across them. Other tenants of the host slow every op by up
/// to 2.5×, sometimes in short bursts and sometimes for minutes; the
/// fastest times then depend on whether a run caught a quiet spell and
/// the slowest on whether it caught a burst, and the upper quartile moved
/// least between runs (see README.md). On the closed-loop workload the
/// ops vary and queue behind each other, so the latency distribution
/// itself is the figure: the median pass and percentiles over every op.
pub fn timing(passes: &[Pass], fixed_ops: bool) -> Timing {
    if fixed_ops {
        let width = passes.iter().map(|p| p.op_ms.len()).max().unwrap_or(0);
        let per_op: Vec<f64> = (0..width)
            .map(|j| {
                let times: Vec<f64> = passes
                    .iter()
                    .filter_map(|p| p.op_ms.get(j).copied())
                    .collect();
                quantile(&times, 0.75)
            })
            .collect();
        return Timing {
            pass_s: per_op.iter().sum::<f64>() / 1e3,
            op_p50_ms: quantile(&per_op, 0.5),
            op_p90_ms: quantile(&per_op, 0.9),
        };
    }
    let secs: Vec<f64> = passes.iter().map(|p| p.secs).collect();
    let ops: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.op_ms.iter().copied())
        .collect();
    Timing {
        pass_s: median(&secs),
        op_p50_ms: quantile(&ops, 0.5),
        op_p90_ms: quantile(&ops, 0.9),
    }
}

/// Everything a workload hands back from one run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Wall seconds of each set-up.
    pub setups: Vec<f64>,
    /// The measured passes.
    pub passes: Vec<Pass>,
    /// Peak resident memory in kB of processes other than this one (the
    /// daemons), read at a fixed job count.
    pub extra_rss_kb: u64,
    /// Deterministic values for the gate, from the run's first pass.
    pub gate: BTreeMap<String, String>,
    /// Per-layer values (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// The untraced half-window's passes of a traced run.
    pub untraced_passes: Vec<Pass>,
    pub recording: Option<Recording>,
}

impl Report {
    /// Counts one checked op; a failed check is logged, never fatal.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("perfbench: FAILED {what}: {e}");
            }
        }
    }

    /// Records a pass's gate values: the first pass sets them, every
    /// later pass must repeat them exactly.
    pub fn gate_pass(&mut self, values: BTreeMap<String, String>) {
        if self.gate.is_empty() {
            self.gate = values;
        } else if self.gate != values {
            self.failed += 1;
            eprintln!("perfbench: FAILED determinism: a later pass changed its gate values");
        }
    }
}

/// Whether another pass fits in the window: always run one, then only
/// passes whose expected length (the median so far) still fits.
pub fn another_pass(start: Instant, seconds: f64, passes: &[Pass]) -> bool {
    let secs: Vec<f64> = passes.iter().map(|p| p.secs).collect();
    passes.is_empty() || start.elapsed().as_secs_f64() + median(&secs) <= seconds
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A process's peak resident set (`VmHWM`) in kB, from `/proc`.
pub fn vm_hwm_kb(pid: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Runs set-up `f` several times (see [`MIN_SETUPS`]), keeping the last
/// result and every wall time.
pub fn set_up<T>(
    report: &mut Report,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut last = None;
    while report.setups.len() < MIN_SETUPS
        || (report.setups.len() < MAX_SETUPS && report.setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // Drop the previous set-up first, so its resources (daemons,
        // buffers) are gone before the next one is timed.
        drop(last.take());
        let t0 = Instant::now();
        let value = f()?;
        report.setups.push(t0.elapsed().as_secs_f64());
        last = Some(value);
    }
    last.ok_or_else(|| "no set-up ran".into())
}

/// Measures with `window(trace, seconds, report) -> pass seconds`.
/// Untraced runs measure one window of `--seconds`. Traced runs measure
/// an untraced half-window, then a traced one: the per-layer metrics come
/// from the second, and the difference of the two halves' pass times is
/// the tracing overhead.
pub fn measure(
    args: &Args,
    report: &mut Report,
    mut window: impl FnMut(&mut Trace, f64, &mut Report) -> Vec<Pass>,
) {
    if !args.trace {
        let mut off = Trace::new(false, Instant::now(), 0);
        report.passes = window(&mut off, args.seconds, report);
        return;
    }
    let mut off = Trace::new(false, Instant::now(), 0);
    report.untraced_passes = window(&mut off, args.seconds / 2.0, report);
    let mut on = Trace::new(true, Instant::now(), 0);
    report.passes = window(&mut on, args.seconds / 2.0, report);
    report.recording = Some(Recording {
        threads: vec![on.into_spans()],
    });
}

/// Mean duration of a span name, from a recording.
pub fn span_ms(rec: &Recording, name: &str) -> f64 {
    rec.layers().get(name).map_or(0.0, |l| l.mean_ms())
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    s.push_str("}}");
    s
}

fn write_trace_files(args: &Args, rec: &Recording) {
    let dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return;
    }
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let chrome = dir.join(format!("trace-{stem}.json"));
    let table = dir.join(format!("layers-{stem}.txt"));
    let text = rec.self_time_table();
    for (path, body) in [(&chrome, rec.chrome_json()), (&table, text.clone())] {
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    eprintln!(
        "perfbench: trace written to {} and {}\n{text}",
        chrome.display(),
        table.display()
    );
}

/// Fills the tracing-quality metrics every traced run reports.
fn trace_quality(report: &mut Report, fixed_ops: bool) {
    let Some(rec) = &report.recording else {
        return;
    };
    let cov = rec.op_coverage();
    let min_cov = cov
        .iter()
        .map(|&(d, c)| 100.0 * c as f64 / d.max(1) as f64)
        .fold(f64::INFINITY, f64::min);
    let (dur, covered) = cov
        .iter()
        .fold((0u64, 0u64), |(d, c), &(dd, cc)| (d + dd, c + cc));
    let traced = timing(&report.passes, fixed_ops).pass_s;
    let untraced = timing(&report.untraced_passes, fixed_ops).pass_s;
    report.layers.insert(
        "trace.op_coverage_pct",
        if min_cov.is_finite() { min_cov } else { 0.0 },
    );
    report.layers.insert(
        "trace.attributed_pct",
        100.0 * covered as f64 / dur.max(1) as f64,
    );
    report.layers.insert(
        "trace.overhead_pct",
        if untraced > 0.0 {
            100.0 * (traced - untraced) / untraced
        } else {
            0.0
        },
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let expected = match gate::Expected::load() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "ilp-dct" => design::run_ilp_dct(&args),
        "scale-refine" => design::run_scale_refine(&args),
        "stream-dct" => stream::run(&args),
        "service-mix" => service::run(&args),
        other => Err(format!(
            "unknown workload {other:?} (ilp-dct | scale-refine | stream-dct | service-mix)"
        )),
    };
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };

    if let Err(e) = expected.check(&args.workload, args.seed, &report.gate) {
        report.failed += 1;
        eprintln!("perfbench: FAILED determinism gate: {e}");
        eprintln!(
            "perfbench: this run's gate values:\n{}",
            gate::render(&report.gate)
        );
    }

    let in_process = args.workload != "service-mix";
    let mut correct = report.failed == 0 && report.attempted > 0;
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        trace_quality(&mut report, in_process);
        if let Some(rec) = &report.recording {
            write_trace_files(&args, rec);
        }
        // On in-process workloads the bench's child spans must account
        // for each op span.
        let coverage = report.layers.get("trace.op_coverage_pct").copied();
        if in_process && coverage.is_some_and(|c| c < 95.0) {
            eprintln!("perfbench: FAILED trace coverage: an op span is under 95% covered");
            correct = false;
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, report.layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let own_kb = vm_hwm_kb("self");
        let t = timing(&report.passes, in_process);
        let values = [
            median(&report.setups),
            t.pass_s,
            t.op_p50_ms,
            t.op_p90_ms,
            (own_kb + report.extra_rss_kb) as f64 / 1024.0,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    for (name, unit, value) in &metrics {
        eprintln!("perfbench: {:<30} {:>16.6} {unit}", name, value);
    }
    let pass_secs: Vec<String> = report
        .passes
        .iter()
        .map(|p| format!("{:.4}", p.secs))
        .collect();
    eprintln!(
        "perfbench: {} checked ops, {} failed; {} set-ups (median {:.6} s); passes [{}] s",
        report.attempted,
        report.failed,
        report.setups.len(),
        median(&report.setups),
        pass_secs.join(", ")
    );
    println!(
        "{}",
        result_line(correct, report.attempted.max(1), report.failed, &metrics)
    );
}
