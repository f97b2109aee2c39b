//! Iterative refinement of temporal partitionings.
//!
//! The paper's flow picks one partitioner and stops; hybrid-partitioning
//! practice (Galanis et al., Chen et al.) instead *seeds* with a cheap
//! constructive heuristic and improves it with local search. This module
//! implements the three classic passes behind that shape, all operating on
//! a [`Partitioning`] under the full §2.1 feasibility conditions
//! (precedence, per-partition resources, boundary memory — whatever
//! [`Partitioning::validate`] checks). [`refine`] runs one [`Pass`]:
//!
//! * [`Pass::Kl`] — a Kernighan–Lin-style steepest-descent pass over
//!   single-task *moves* and pairwise *swaps*, followed by gain-sequence
//!   chains; deterministic, monotone.
//! * [`Pass::Fm`] — the gain-sequence (Fiduccia–Mattheyses-style) chains
//!   alone ([`GainConfig`]): tentative move chains through zero-gain and
//!   temporarily infeasible states, best-prefix commit; also repairs an
//!   infeasible seed.
//! * [`Pass::Anneal`] — seeded simulated annealing over the move/swap
//!   neighbourhood with a geometric temperature schedule
//!   ([`AnnealSchedule`]); deterministic for a fixed seed, and never worse
//!   than its input because the best-ever design is returned.
//!
//! All three score candidates with one move evaluator, which polls the
//! [`SearchCtx`] before every evaluation: a stopped pass returns the best
//! design it has committed, at most one evaluation after the stop. Partition
//! ids order execution in time, so refinement moves tasks across the seed's
//! *existing* temporal slots — it never opens a new partition, but a move
//! may empty one, which [`Partitioning::new`] compacts away: the result can
//! have *fewer* partitions than the seed (that is how refinement can also
//! win back the `N·CT` reconfiguration term).

use crate::delay::total_latency_ns;
use crate::partitioning::{MemoryMode, PartitionId, Partitioning};
use crate::search::SearchCtx;
use rand::{rngs::StdRng, Rng, SeedableRng};
use sparcs_dfg::{GraphError, TaskGraph};
use sparcs_estimate::Architecture;

/// One refinement pass and its configuration. Every field influences the
/// result and is rendered into strategy cache keys.
#[derive(Debug, Clone, PartialEq)]
pub enum Pass {
    /// Steepest descent: repeatedly applies the single best strictly
    /// improving feasible change — moving one task to another partition,
    /// or swapping two tasks across partitions — until no change improves
    /// the latency or `max_rounds` rounds ran; then the gain-sequence
    /// chains of [`Pass::Fm`] under `gains`, which walk through the
    /// zero-gain plateaus where descent stops.
    Kl {
        /// Maximum steepest-descent rounds.
        max_rounds: usize,
        /// Chain length, pass count and scan caps of the chain search.
        gains: GainConfig,
    },
    /// Gain-sequence chains alone (see [`GainConfig`]).
    Fm(GainConfig),
    /// Simulated annealing under a seeded schedule.
    Anneal(AnnealSchedule),
}

impl Pass {
    /// The `kl` pass at its standard depth: up to 64 descent rounds, then
    /// chains under `gains`.
    pub fn kl(gains: GainConfig) -> Self {
        Pass::Kl {
            max_rounds: 64,
            gains,
        }
    }
}

/// Configuration of the gain-sequence chain search ([`Pass::Fm`], and the
/// second half of [`Pass::Kl`]) — the true Fiduccia–Mattheyses-style pass
/// that fixes steepest descent's single-move early exit: a chain of
/// tentative moves is explored even when individual moves have zero or
/// negative gain, and the best *prefix* of the chain is committed. Every
/// field influences the result and is rendered into strategy cache keys.
#[derive(Debug, Clone, PartialEq)]
pub struct GainConfig {
    /// Maximum commit passes (each explores one tentative chain).
    pub passes: usize,
    /// Tentative moves per chain; each moved task is locked for the rest
    /// of the chain (the classic FM discipline that forces exploration
    /// instead of oscillation).
    pub max_chain: usize,
    /// Candidate evaluations per chain step; `0` scans every candidate.
    /// Large graphs cap the scan so one step costs bounded work — the
    /// scan cursor rotates between steps, so capped scans still cover
    /// the whole task set across a chain.
    pub max_scan: usize,
    /// Restrict moves to temporally adjacent partitions (slot ± 1). On
    /// large graphs almost all gain lives on the boundary between
    /// consecutive slots, and the restriction cuts a factor `N` from
    /// every scan.
    pub adjacent_only: bool,
}

impl Default for GainConfig {
    fn default() -> Self {
        GainConfig {
            passes: 16,
            max_chain: 24,
            max_scan: 0,
            adjacent_only: false,
        }
    }
}

/// The temperature schedule (and RNG seed) of [`Pass::Anneal`]. Rendered
/// into strategy cache keys, so every field that influences the result is
/// here and the run is a pure function of `(problem, schedule)`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealSchedule {
    /// Seed of the deterministic `StdRng` driving proposals/acceptance.
    pub seed: u64,
    /// Proposal iterations.
    pub iterations: u32,
    /// Initial temperature as a *fraction of the seed design's latency* —
    /// an absolute temperature in ns would not transfer across problems.
    pub initial_temp: f64,
    /// Geometric cooling factor applied per iteration.
    pub cooling: f64,
}

impl Default for AnnealSchedule {
    fn default() -> Self {
        AnnealSchedule {
            seed: 0x5bac5,
            iterations: 3_000,
            initial_temp: 0.05,
            cooling: 0.998,
        }
    }
}

/// Improves `seed` with one refinement `pass`, checking feasibility under
/// `mode`. The result never ranks behind the seed: the descent and the
/// annealer never return a design with higher latency, and the chain
/// search never one that is worse under the key `(feasibility violations,
/// latency)` — a feasible seed stays feasible, and an infeasible seed can
/// only lose violations. Deterministic for a fixed pass (fixed scan
/// orders, first-minimum tie breaks, a seeded RNG); a stopped search
/// returns the best design committed so far.
///
/// # Errors
///
/// Returns [`GraphError::Cycle`] if `g` is not a DAG and the search has
/// not stopped before the pass began (a stopped search returns `seed`
/// unchanged without evaluating it).
pub fn refine(
    g: &TaskGraph,
    arch: &Architecture,
    mode: MemoryMode,
    seed: &Partitioning,
    pass: &Pass,
    search: &SearchCtx,
) -> Result<Partitioning, GraphError> {
    let ev = Evaluator {
        g,
        arch,
        mode,
        search,
    };
    match pass {
        Pass::Kl { max_rounds, gains } => {
            let descended = descend(&ev, seed, *max_rounds)?;
            chains(&ev, &descended, gains)
        }
        Pass::Fm(gains) => chains(&ev, seed, gains),
        Pass::Anneal(schedule) => anneal(&ev, seed, schedule),
    }
}

/// A candidate's rank: feasibility violations, then design latency.
type Score = (usize, u64);

/// The search asked to stop before an evaluation.
struct Stopped;

/// The one move evaluator every pass scores candidates with.
struct Evaluator<'a> {
    g: &'a TaskGraph,
    arch: &'a Architecture,
    mode: MemoryMode,
    search: &'a SearchCtx,
}

impl Evaluator<'_> {
    /// Scores an assignment: its compacted partitioning's violation count
    /// and design latency. With `rank_infeasible` off (the descent and the
    /// annealer, which discard infeasible candidates) an infeasible
    /// assignment is `None` and its latency is never computed; the chain
    /// search ranks infeasible states instead — that is what lets a
    /// tentative chain pass *through* a violation on its way to a better
    /// feasible state, and what lets it repair an infeasible seed.
    fn score(
        &self,
        assignment: &[PartitionId],
        rank_infeasible: bool,
    ) -> Result<Option<Score>, GraphError> {
        let p = Partitioning::new(assignment.to_vec());
        let violations = p.validate(self.g, self.arch, self.mode).len();
        if violations > 0 && !rank_infeasible {
            return Ok(None);
        }
        let latency = total_latency_ns(self.g, &p, self.arch.reconfig_time_ns)?;
        Ok(Some((violations, latency)))
    }

    /// Scores one candidate move, polling the search first. A candidate
    /// that cannot be scored is `None`, like an infeasible one.
    fn candidate(
        &self,
        assignment: &[PartitionId],
        rank_infeasible: bool,
    ) -> Result<Option<Score>, Stopped> {
        if self.search.stop_requested() {
            return Err(Stopped);
        }
        Ok(self.score(assignment, rank_infeasible).ok().flatten())
    }

    /// Scores a pass's starting point, feasible or not. `None` when the
    /// pass has nothing to do and returns `seed` unchanged: one partition
    /// or no tasks leaves nothing to move, and a stopped search evaluates
    /// nothing more.
    fn start(&self, seed: &Partitioning) -> Result<Option<Score>, GraphError> {
        if seed.partition_count() <= 1 || self.g.task_count() == 0 || self.search.stop_requested() {
            return Ok(None);
        }
        self.score(seed.assignment(), true)
    }
}

/// The steepest-descent half of [`Pass::Kl`]. The scan order (tasks
/// ascending, targets ascending, swap pairs lexicographic) and the
/// strict-improvement rule make it deterministic; a stop mid-scan abandons
/// the round and keeps the best applied state.
fn descend(
    ev: &Evaluator,
    seed: &Partitioning,
    max_rounds: usize,
) -> Result<Partitioning, GraphError> {
    let Some((_, mut best_cost)) = ev.start(seed)? else {
        return Ok(seed.clone());
    };
    let mut best = seed.clone();
    let mut assignment = seed.assignment().to_vec();
    for _round in 0..max_rounds {
        let Ok(Some((cost, chosen))) =
            best_change(ev, &assignment, seed.partition_count(), best_cost)
        else {
            break; // stopped, or a local optimum
        };
        assignment = chosen;
        best_cost = cost;
        best = Partitioning::new(assignment.clone());
    }
    Ok(best)
}

/// The single best feasible move or swap from `assignment` with latency
/// strictly below `bound`, if any.
fn best_change(
    ev: &Evaluator,
    assignment: &[PartitionId],
    n: u32,
    bound: u64,
) -> Result<Option<(u64, Vec<PartitionId>)>, Stopped> {
    let tasks = assignment.len();
    let mut round_best: Option<(u64, Vec<PartitionId>)> = None;
    let mut consider = |candidate: &[PartitionId]| -> Result<(), Stopped> {
        if let Some((_, cost)) = ev.candidate(candidate, false)? {
            if cost < round_best.as_ref().map_or(bound, |(c, _)| *c) {
                round_best = Some((cost, candidate.to_vec()));
            }
        }
        Ok(())
    };
    // Single-task moves.
    let mut candidate = assignment.to_vec();
    for t in 0..tasks {
        let home = assignment[t];
        for q in 0..n {
            if PartitionId(q) == home {
                continue;
            }
            candidate[t] = PartitionId(q);
            consider(&candidate)?;
        }
        candidate[t] = home;
    }
    // Pairwise swaps across partitions.
    for a in 0..tasks {
        for b in (a + 1)..tasks {
            if assignment[a] == assignment[b] {
                continue;
            }
            candidate.swap(a, b);
            consider(&candidate)?;
            candidate.swap(a, b);
        }
    }
    Ok(round_best)
}

/// The gain-sequence chain search ([`Pass::Fm`]): each pass explores a
/// chain of tentative single-task moves — always applying the best
/// available move even when its gain is zero or negative, locking the
/// moved task — and then commits the best *prefix* of the chain by
/// [`Score`]. A pass that finds no strictly improving prefix ends the
/// search; a stop mid-chain discards that chain.
fn chains(
    ev: &Evaluator,
    seed: &Partitioning,
    cfg: &GainConfig,
) -> Result<Partitioning, GraphError> {
    // The seed's key ranks an infeasible seed too (repair mode).
    let Some(mut best_key) = ev.start(seed)? else {
        return Ok(seed.clone());
    };
    let mut best = seed.assignment().to_vec();
    // Rotating scan start so capped scans cover different tasks each step.
    let mut cursor = 0usize;
    for _pass in 0..cfg.passes {
        let Ok(chain) = explore_chain(ev, &best, seed.partition_count(), cfg, &mut cursor) else {
            break;
        };
        // Commit the best strict-improvement prefix, if any.
        let prefix = chain
            .iter()
            .enumerate()
            .min_by_key(|(i, (_, _, key))| (*key, *i))
            .filter(|(_, (_, _, key))| *key < best_key)
            .map(|(i, _)| i);
        let Some(upto) = prefix else {
            break; // no chain prefix improves: gain-sequence optimum
        };
        for (t, to, _) in &chain[..=upto] {
            best[*t] = *to;
        }
        best_key = chain[upto].2;
    }
    Ok(Partitioning::new(best))
}

/// One tentative chain from `start`: the `(task, target)` moves plus the
/// score reached after each.
fn explore_chain(
    ev: &Evaluator,
    start: &[PartitionId],
    n: u32,
    cfg: &GainConfig,
    cursor: &mut usize,
) -> Result<Vec<(usize, PartitionId, Score)>, Stopped> {
    let tasks = start.len();
    let mut current = start.to_vec();
    let mut locked = vec![false; tasks];
    let mut chain = Vec::new();
    for _step in 0..cfg.max_chain {
        let mut step_best: Option<(usize, PartitionId, Score)> = None;
        let mut scanned = 0usize;
        for offset in 0..tasks {
            let t = (*cursor + offset) % tasks;
            if locked[t] {
                continue;
            }
            let home = current[t];
            let targets: Vec<u32> = if cfg.adjacent_only {
                let next = Some(home.0 + 1).filter(|&q| q < n);
                home.0.checked_sub(1).into_iter().chain(next).collect()
            } else {
                (0..n).filter(|&q| PartitionId(q) != home).collect()
            };
            for q in targets {
                current[t] = PartitionId(q);
                if let Some(key) = ev.candidate(&current, true)? {
                    if step_best.as_ref().is_none_or(|(_, _, best)| key < *best) {
                        step_best = Some((t, PartitionId(q), key));
                    }
                }
                current[t] = home;
                scanned += 1;
            }
            if cfg.max_scan > 0 && scanned >= cfg.max_scan {
                break;
            }
        }
        let Some((t, to, key)) = step_best else {
            break; // every task locked or no target evaluates
        };
        current[t] = to;
        locked[t] = true;
        *cursor = (t + 1) % tasks;
        chain.push((t, to, key));
    }
    Ok(chain)
}

/// Simulated annealing ([`Pass::Anneal`]): proposals are drawn from a
/// seeded [`StdRng`], worsening feasible moves are accepted with
/// probability `exp(-Δ/T)` under the geometric [`AnnealSchedule`], and the
/// best feasible design ever visited is returned.
fn anneal(
    ev: &Evaluator,
    seed: &Partitioning,
    schedule: &AnnealSchedule,
) -> Result<Partitioning, GraphError> {
    let Some((_, seed_cost)) = ev.start(seed)? else {
        return Ok(seed.clone());
    };
    let (n, tasks) = (seed.partition_count(), ev.g.task_count());
    let mut rng = StdRng::seed_from_u64(schedule.seed);
    let mut current = seed.assignment().to_vec();
    let mut current_cost = seed_cost;
    let mut best = seed.clone();
    let mut best_cost = seed_cost;
    let mut temp = schedule.initial_temp * seed_cost as f64;
    for _ in 0..schedule.iterations {
        let mut candidate = current.clone();
        let t = rng.gen_range(0..tasks);
        if rng.gen_bool(0.5) {
            let q = rng.gen_range(0..n);
            candidate[t] = PartitionId(q);
        } else {
            let u = rng.gen_range(0..tasks);
            candidate.swap(t, u);
        }
        temp *= schedule.cooling;
        if candidate == current {
            continue;
        }
        let Ok(score) = ev.candidate(&candidate, false) else {
            break;
        };
        let Some((_, cost)) = score else {
            continue; // infeasible neighbour: reject
        };
        let delta = cost as f64 - current_cost as f64;
        let accept = delta <= 0.0 || rng.gen_bool((-delta / temp.max(1e-9)).exp().min(1.0));
        if accept {
            current = candidate;
            current_cost = cost;
            if cost < best_cost {
                best_cost = cost;
                best = Partitioning::new(current.clone());
            }
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::partition_list;
    use crate::search::CancelToken;
    use sparcs_dfg::{gen, Resources};

    fn device(clbs: u64) -> Architecture {
        let mut a = Architecture::xc4044_wildforce();
        a.resources = Resources::clbs(clbs);
        a
    }

    fn latency(g: &TaskGraph, p: &Partitioning, a: &Architecture) -> u64 {
        total_latency_ns(g, p, a.reconfig_time_ns).unwrap()
    }

    fn cancelled() -> SearchCtx {
        let token = CancelToken::new();
        token.cancel();
        SearchCtx::unbounded().and_cancel(token)
    }

    /// Runs `pass` unbounded under net memory accounting.
    fn run(g: &TaskGraph, a: &Architecture, seed: &Partitioning, pass: &Pass) -> Partitioning {
        refine(g, a, MemoryMode::Net, seed, pass, &SearchCtx::unbounded()).unwrap()
    }

    /// Steepest descent alone: the reference for descent's own behaviour.
    fn descent(
        g: &TaskGraph,
        a: &Architecture,
        seed: &Partitioning,
        search: &SearchCtx,
    ) -> Partitioning {
        let mode = MemoryMode::Net;
        descend(
            &Evaluator {
                g,
                arch: a,
                mode,
                search,
            },
            seed,
            32,
        )
        .unwrap()
    }

    /// The paper's list-partitioner pathology in miniature: the greedy pass
    /// fills partition 1's leftover CLBs with a *dependent* task `t`
    /// (stretching partition 1's critical path) while the long independent
    /// task `u` gets pushed to partition 2, where nothing overlaps it. The
    /// optimum swaps them: `{h, u} | {t}` runs `u` in parallel with `h`.
    fn eager_trap() -> (TaskGraph, Architecture) {
        let mut g = TaskGraph::new("eager-trap");
        let h = g.add_task("h", Resources::clbs(800), 500, 1);
        let t = g.add_task("t", Resources::clbs(400), 200, 1);
        let _u = g.add_task("u", Resources::clbs(800), 600, 1);
        g.add_edge(h, t, 1).unwrap();
        (g, device(1600))
    }

    #[test]
    fn kl_fixes_the_eager_list_seed_by_swapping() {
        let (g, a) = eager_trap();
        let seed = partition_list(&g, &a).unwrap();
        // Greedy packs {h, t} (1200 CLBs) and exiles u: Σd = 700 + 600.
        assert_eq!(latency(&g, &seed, &a), 2 * a.reconfig_time_ns + 1300);
        let refined = descent(&g, &a, &seed, &SearchCtx::unbounded());
        assert!(refined.validate(&g, &a, MemoryMode::Net).is_empty());
        // The t/u swap reaches the optimum: max(500, 600) + 200.
        assert_eq!(latency(&g, &refined, &a), 2 * a.reconfig_time_ns + 800);
    }

    #[test]
    fn kl_never_worsens_the_fig4_seed() {
        let g = gen::fig4_example();
        let a = device(1200);
        let seed = partition_list(&g, &a).unwrap();
        let refined = descent(&g, &a, &seed, &SearchCtx::unbounded());
        assert!(refined.validate(&g, &a, MemoryMode::Net).is_empty());
        assert!(latency(&g, &refined, &a) <= latency(&g, &seed, &a));
    }

    #[test]
    fn anneal_never_worsens_and_is_deterministic() {
        let g = gen::fig4_example();
        let a = device(1200);
        let seed = partition_list(&g, &a).unwrap();
        let pass = Pass::Anneal(AnnealSchedule::default());
        let once = run(&g, &a, &seed, &pass);
        let twice = run(&g, &a, &seed, &pass);
        assert_eq!(once.assignment(), twice.assignment(), "seeded = repeatable");
        assert!(once.validate(&g, &a, MemoryMode::Net).is_empty());
        assert!(latency(&g, &once, &a) <= latency(&g, &seed, &a));
    }

    #[test]
    fn cancelled_refinement_returns_the_seed_unchanged() {
        let g = gen::fig4_example();
        let a = device(1200);
        let seed = partition_list(&g, &a).unwrap();
        let descended = descent(&g, &a, &seed, &cancelled());
        assert_eq!(descended.assignment(), seed.assignment());
        for pass in [
            Pass::kl(GainConfig::default()),
            Pass::Fm(GainConfig::default()),
            Pass::Anneal(AnnealSchedule::default()),
        ] {
            let refined = refine(&g, &a, MemoryMode::Net, &seed, &pass, &cancelled()).unwrap();
            assert_eq!(refined.assignment(), seed.assignment(), "{pass:?}");
        }
    }

    /// The single-move early-exit pathology in miniature: merging both
    /// halves of partition 0 into partition 1 saves a whole
    /// reconfiguration, but every *single* move or swap is zero-gain, so
    /// steepest descent ends its pass immediately. The gain-sequence
    /// chain walks through the zero-gain intermediate and commits the
    /// two-move prefix.
    fn plateau_trap() -> (TaskGraph, Architecture, Partitioning) {
        let mut g = TaskGraph::new("plateau-trap");
        let _a = g.add_task("a", Resources::clbs(300), 100, 1);
        let _b = g.add_task("b", Resources::clbs(300), 100, 1);
        let _c = g.add_task("c", Resources::clbs(200), 300, 1);
        let _e = g.add_task("e", Resources::clbs(200), 300, 1);
        let (g, a) = (g, device(1000));
        let seed = Partitioning::new(vec![
            PartitionId(0),
            PartitionId(0),
            PartitionId(1),
            PartitionId(1),
        ]);
        assert!(seed.validate(&g, &a, MemoryMode::Net).is_empty());
        (g, a, seed)
    }

    #[test]
    fn legacy_kl_stalls_on_the_zero_gain_plateau() {
        let (g, a, seed) = plateau_trap();
        let refined = descent(&g, &a, &seed, &SearchCtx::unbounded());
        // The executable reference for the old behavior: no strictly
        // improving single change exists, so the pass ends at the seed.
        assert_eq!(refined.assignment(), seed.assignment());
    }

    #[test]
    fn gain_sequence_crosses_the_plateau_and_merges_the_partitions() {
        let (g, a, seed) = plateau_trap();
        let refined = run(&g, &a, &seed, &Pass::Fm(GainConfig::default()));
        assert!(refined.validate(&g, &a, MemoryMode::Net).is_empty());
        assert_eq!(refined.partition_count(), 1, "both halves must merge");
        assert_eq!(latency(&g, &refined, &a), a.reconfig_time_ns + 300);
        assert!(latency(&g, &refined, &a) < latency(&g, &seed, &a));
    }

    #[test]
    fn gain_sequence_never_worsens_and_is_deterministic() {
        let g = gen::fig4_example();
        let a = device(1200);
        let seed = partition_list(&g, &a).unwrap();
        let pass = Pass::Fm(GainConfig::default());
        let once = run(&g, &a, &seed, &pass);
        let twice = run(&g, &a, &seed, &pass);
        assert_eq!(once.assignment(), twice.assignment());
        assert!(once.validate(&g, &a, MemoryMode::Net).is_empty());
        assert!(latency(&g, &once, &a) <= latency(&g, &seed, &a));
    }

    #[test]
    fn gain_sequence_repairs_an_infeasible_seed_when_a_neighbor_is_feasible() {
        // Two independent 600-CLB tasks crammed into one partition of an
        // 800-CLB device: the seed violates Eq. 6, and moving either task
        // to the other partition repairs it.
        let mut g = TaskGraph::new("repair");
        let _x = g.add_task("x", Resources::clbs(600), 100, 1);
        let _y = g.add_task("y", Resources::clbs(600), 100, 1);
        let _z = g.add_task("z", Resources::clbs(100), 50, 1);
        let a = device(800);
        let seed = Partitioning::new(vec![PartitionId(0), PartitionId(0), PartitionId(1)]);
        assert!(!seed.validate(&g, &a, MemoryMode::Net).is_empty());
        let refined = run(&g, &a, &seed, &Pass::Fm(GainConfig::default()));
        assert!(
            refined.validate(&g, &a, MemoryMode::Net).is_empty(),
            "the violation-ranked chain must repair the seed"
        );
    }

    #[test]
    fn gain_sequence_respects_scan_caps_and_cancellation() {
        let g = gen::fig4_example();
        let a = device(1200);
        let seed = partition_list(&g, &a).unwrap();
        // A capped scan still never worsens the seed.
        let capped = GainConfig {
            max_scan: 2,
            adjacent_only: true,
            ..GainConfig::default()
        };
        let refined = run(&g, &a, &seed, &Pass::Fm(capped));
        assert!(latency(&g, &refined, &a) <= latency(&g, &seed, &a));
        // A pre-cancelled search returns the seed unchanged.
        let pass = Pass::Fm(GainConfig::default());
        let stopped = refine(&g, &a, MemoryMode::Net, &seed, &pass, &cancelled()).unwrap();
        assert_eq!(stopped.assignment(), seed.assignment());
    }

    #[test]
    fn single_partition_seeds_pass_through() {
        let g = gen::fig4_example();
        let a = device(2000);
        let seed = partition_list(&g, &a).unwrap();
        assert_eq!(seed.partition_count(), 1);
        let refined = run(&g, &a, &seed, &Pass::kl(GainConfig::default()));
        assert_eq!(refined.assignment(), seed.assignment());
    }
}
