//! `stream-dct`: the §4 design streams a seeded 2048×2048 noise frame.
//!
//! Set-up builds the design (`DctExperiment::paper()`, cold each time),
//! materializes the frame's input words and computes the reference
//! digest block by block with `sparcs_jpeg::fixed::forward_fixed`. One op
//! builds the executable design and streams the whole frame through the
//! IDH or the FDH sequencer (alternating) into a digest sink.

use std::collections::BTreeMap;
use std::time::Instant;

use sparcs::audit::{audit_design, audit_fission, audit_time_report};
use sparcs::cache::PartitionCache;
use sparcs::casestudy::DctExperiment;
use sparcs::core::partitioning::MemoryMode;
use sparcs::core::SequencingStrategy;
use sparcs::jpeg::fixed::forward_fixed;
use sparcs::jpeg::Image;
use sparcs::rtr::{CountingSink, FdhSequencer, IdhSequencer, Sequencer, SliceSource, TimeReport};

use crate::trace::Trace;
use crate::{another_pass, measure, set_up, span_ms, Args, Pass, Report};

/// Frame side in pixels: 512×512 blocks of 4×4, 262,144 computations.
const FRAME: usize = 2048;

struct Setup {
    exp: DctExperiment,
    input: Vec<i32>,
    computations: u64,
    reference_digest: u64,
    reference_words: u64,
}

fn set_up_once(seed: u64) -> Result<Setup, String> {
    // Cold each time: the global cache would otherwise answer the ILP
    // solve of every set-up after the first.
    PartitionCache::global().clear();
    let exp = DctExperiment::paper().map_err(|e| e.to_string())?;
    let mut diags = audit_design(&exp.dct.graph, &exp.arch, &exp.design, MemoryMode::Net);
    diags.extend(audit_fission(
        &exp.dct.graph,
        &exp.design.partitioning,
        &exp.fission,
        &exp.arch,
    ));
    if !diags.is_empty() {
        return Err(format!("the DCT design fails its audit: {diags:?}"));
    }
    let img = Image::noise(FRAME, FRAME, seed);
    let input = DctExperiment::input_stream(&img);
    let mut reference = Vec::with_capacity(input.len());
    for block in img.blocks() {
        reference.extend(forward_fixed(&block).iter().flatten());
    }
    Ok(Setup {
        computations: img.block_count(),
        reference_digest: CountingSink::digest_of(&reference),
        reference_words: reference.len() as u64,
        exp,
        input,
    })
}

struct Streamed {
    report: TimeReport,
    digest: u64,
    words: u64,
    problems: usize,
}

/// One op: build the executable design, stream the frame, audit the
/// time report.
fn stream_op(
    t: &mut Trace,
    id: u64,
    s: &Setup,
    strategy: SequencingStrategy,
) -> Result<Streamed, String> {
    t.op(id, "op.stream", |t| {
        let design = t.span("rtr.build", |_| s.exp.rtr_design());
        let (report, profile, sink) = t
            .span("rtr.run", |_| {
                let mut source = SliceSource::new(&s.input);
                let mut sink = CountingSink::new();
                let run =
                    match strategy {
                        SequencingStrategy::Idh => IdhSequencer::new(&s.exp.arch, &design)
                            .run_profiled(&mut source, &mut sink),
                        SequencingStrategy::Fdh => FdhSequencer::new(&s.exp.arch, &design)
                            .run_profiled(&mut source, &mut sink),
                    };
                run.map(|(report, profile)| (report, profile, sink))
            })
            .map_err(|e| e.to_string())?;
        // The host times its own fissioned phases; they become derived
        // children of the run span.
        t.derive_children(
            "rtr.run",
            &[
                ("rtr.load", profile.load_ns),
                ("rtr.compute", profile.compute_ns),
                ("rtr.store", profile.store_ns),
            ],
        );
        let diags = t.span("audit.time_report", |_| {
            audit_time_report(
                &s.exp.dct.graph,
                &s.exp.design.partitioning,
                &s.exp.fission,
                strategy,
                s.computations,
                &report,
            )
        });
        Ok(Streamed {
            report,
            digest: sink.digest(),
            words: sink.words(),
            problems: diags.len(),
        })
    })
}

fn check(s: &Setup, out: &Streamed) -> Result<(), String> {
    if out.problems > 0 {
        return Err(format!("{} time-report audit findings", out.problems));
    }
    if out.digest != s.reference_digest || out.words != s.reference_words {
        return Err(format!(
            "digest {:016x} over {} words, reference {:016x} over {}",
            out.digest, out.words, s.reference_digest, s.reference_words
        ));
    }
    Ok(())
}

/// Runs IDH+FDH passes for about `seconds`.
fn window(s: &Setup, seconds: f64, t: &mut Trace, report: &mut Report) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while another_pass(start, seconds, &passes) {
        let p0 = Instant::now();
        let mut op_ms = Vec::with_capacity(2);
        let mut gate = BTreeMap::new();
        for strategy in [SequencingStrategy::Idh, SequencingStrategy::Fdh] {
            let id = report.attempted;
            let o0 = Instant::now();
            let out = stream_op(t, id, s, strategy);
            op_ms.push(o0.elapsed().as_secs_f64() * 1e3);
            let label = format!("{strategy:?}").to_lowercase();
            match out {
                Ok(out) => {
                    report.check(&label, check(s, &out));
                    gate.insert(
                        format!("{label}.modelled_exec_ns"),
                        out.report.total_ns.to_string(),
                    );
                    gate.insert(format!("{label}.digest"), format!("{:016x}", out.digest));
                }
                Err(e) => report.check(&label, Err(e)),
            }
        }
        passes.push(Pass {
            secs: p0.elapsed().as_secs_f64(),
            op_ms,
        });
        report.gate_pass(gate);
    }
    passes
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let s = set_up(&mut report, || set_up_once(args.seed))?;
    measure(args, &mut report, |t, seconds, report| {
        window(&s, seconds, t, report)
    });
    let Some(rec) = &report.recording else {
        return Ok(report);
    };
    let values = [
        ("rtr.build_ms", span_ms(rec, "rtr.build")),
        ("rtr.load_ms", span_ms(rec, "rtr.load")),
        ("rtr.compute_ms", span_ms(rec, "rtr.compute")),
        ("rtr.store_ms", span_ms(rec, "rtr.store")),
        ("audit.time_report_ms", span_ms(rec, "audit.time_report")),
    ];
    report.layers.extend(values);
    Ok(report)
}
