//! Precedence-safe heavy-edge coarsening.
//!
//! Builds a tower of successively smaller task graphs by contracting a
//! matching of data edges at each level, heaviest boundary-word edges
//! first. Contraction must never create a cycle — a contracted cycle
//! would make the coarse graph unsolvable and the projection map
//! meaningless — so an edge `u → v` is *eligible* only when, in the
//! current-level graph,
//!
//! * `in_degree(v) == 1` **or** `out_degree(u) == 1`, and
//! * the merged resources fit the device.
//!
//! **Why this is cycle-safe, even for a whole matching contracted at
//! once:** a cycle through the contracted pair `{u,v}` needs a path that
//! *leaves* the pair and *re-enters* it, i.e. an external out-edge at `u`
//! (an edge `u → x`, `x ∉ {u,v}`) together with an external in-edge at
//! `v`. `in_degree(v) == 1` makes `u → v` the only in-edge of `v`, ruling
//! out re-entry at `v`; `out_degree(u) == 1` makes `u → v` the only
//! out-edge of `u`, ruling out escape at `u`. Either disjunct suffices,
//! and the argument is per-pair — it does not depend on what the rest of
//! the matching contracts, so contracting all matched pairs
//! simultaneously is safe too. (Mere level-adjacency is *not* enough:
//! matching `u1 → v1` and `u2 → v2` with cross edges `u1 → v2`,
//! `u2 → v1` contracts to a 2-cycle.) Each coarse graph is still
//! re-validated, turning the argument into a per-level certificate.
//!
//! When edge contraction stalls — on wide, dense graphs most consumers
//! have several producers and vice versa, so few edges satisfy the
//! degree rule — a round falls back to *horizontal* matching: merging
//! two **unconnected** tasks that share the same ASAP level. That is
//! cycle-safe by a global potential argument: every data edge strictly
//! increases ASAP level, both members of a pair share one level, so
//! assigning each coarse node its pair's level gives a function that
//! strictly increases along every contracted edge — no cycle can close,
//! no matter how many same-level pairs contract at once. (Mixing the
//! two pair kinds in a single round would break both proofs, so each
//! round commits to one kind.)
//!
//! The matching itself is deterministic for a given seed: candidates are
//! ordered by (words desc, seeded hash, endpoint ids) and taken greedily.

use std::collections::BTreeMap;

use sparcs_dfg::{algo, GraphError, TaskGraph, TaskId};
use sparcs_estimate::{splitmix64, Architecture};

/// A tower of coarse graphs with the projection maps between levels.
///
/// `graphs[0]` is the original graph; `graphs[l + 1]` is the contraction
/// of `graphs[l]`, and `maps[l][i]` is the index in `graphs[l + 1]` of
/// the coarse node absorbing fine node `i`. Every map is *total*
/// (projection preserves node coverage) and every graph in the tower has
/// passed [`TaskGraph::validate`] (projection preserves precedence).
#[derive(Debug, Clone)]
pub struct Tower {
    /// Level 0 = original, last = coarsest.
    pub graphs: Vec<TaskGraph>,
    /// `maps[l]`: fine index at level `l` → coarse index at level `l + 1`.
    pub maps: Vec<Vec<usize>>,
}

impl Tower {
    /// Number of levels (≥ 1; 1 means no coarsening happened).
    pub fn levels(&self) -> usize {
        self.graphs.len()
    }

    /// The coarsest graph of the tower.
    pub fn coarsest(&self) -> &TaskGraph {
        self.graphs.last().unwrap_or(&self.graphs[0])
    }
}

/// Knobs of [`coarsen`]; see [`crate::MultilevelConfig`] for the
/// user-facing wrapper with defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoarsenConfig {
    /// Stop once a level has at most this many tasks.
    pub coarsest_tasks: usize,
    /// Hard cap on contraction rounds.
    pub max_levels: usize,
    /// Stop when a round shrinks the task count by less than this
    /// per-mille fraction (e.g. `50` = require at least 5% shrink).
    pub min_shrink_per_mille: u32,
    /// Seed for the deterministic tie-break among equal-weight edges.
    pub seed: u64,
}

/// One matching round: returns `partner[i] = Some(j)` pairs (symmetric)
/// chosen greedily from eligible edges, heaviest words first.
fn match_round(g: &TaskGraph, arch: &Architecture, seed: u64, round: u64) -> Vec<Option<usize>> {
    let n = g.task_count();
    let mut candidates: Vec<(u64, u64, usize, usize)> = Vec::new();
    for e in g.edges() {
        let (u, v) = (e.src, e.dst);
        let merged_ok = (g.task(u).resources + g.task(v).resources).fits_within(&arch.resources);
        let degree_ok = g.in_degree(v) == 1 || g.out_degree(u) == 1;
        if merged_ok && degree_ok {
            let jitter = splitmix64(
                seed ^ round.wrapping_mul(0x9e37_79b9)
                    ^ (((u.index() as u64) << 32) | v.index() as u64),
            );
            candidates.push((e.words, jitter, u.index(), v.index()));
        }
    }
    // Heaviest first; seeded jitter breaks weight ties, ids break the rest.
    candidates.sort_by(|a, b| {
        b.0.cmp(&a.0)
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
            .then(a.3.cmp(&b.3))
    });
    let mut partner: Vec<Option<usize>> = vec![None; n];
    for (_, _, u, v) in candidates {
        if partner[u].is_none() && partner[v].is_none() {
            partner[u] = Some(v);
            partner[v] = Some(u);
        }
    }
    partner
}

/// The stall-breaker round: pairs **unconnected** tasks sharing an ASAP
/// level (see the module doc for why that is cycle-safe for a whole
/// round at once). Sorting by `(level, first consumer, jitter)` clusters
/// tasks that feed the same consumer, so merging them tends to collapse
/// fan-ins rather than marry strangers.
fn horizontal_round(
    g: &TaskGraph,
    arch: &Architecture,
    seed: u64,
    round: u64,
) -> Result<Vec<Option<usize>>, GraphError> {
    let n = g.task_count();
    let levels = algo::levels(g)?;
    let mut keys: Vec<(u32, u32, u64, usize)> = (0..n)
        .map(|i| {
            let t = TaskId(i as u32);
            let first_consumer = g
                .successors(t)
                .map(|s| s.index() as u32)
                .min()
                .unwrap_or(u32::MAX);
            let jitter = splitmix64(seed ^ round.wrapping_mul(0x51ca) ^ (i as u64));
            (levels.asap[i], first_consumer, jitter, i)
        })
        .collect();
    keys.sort_unstable();
    let mut partner: Vec<Option<usize>> = vec![None; n];
    let mut pending: Option<(u32, usize)> = None;
    for &(level, _, _, i) in &keys {
        match pending {
            Some((pl, p))
                if pl == level
                    && (g.task(TaskId(p as u32)).resources
                        + g.task(TaskId(i as u32)).resources)
                        .fits_within(&arch.resources) =>
            {
                partner[p] = Some(i);
                partner[i] = Some(p);
                pending = None;
            }
            _ => pending = Some((level, i)),
        }
    }
    Ok(partner)
}

/// Contracts one matching into a coarse graph plus the projection map.
///
/// Merged-node semantics (all chosen so coarse feasibility *implies*
/// something true about the fine graph, never the other way around):
///
/// * resources: summed (exact — both tasks co-reside in any partition the
///   coarse node lands in);
/// * delay: `δ_u + δ_v` — exact for an edge pair (the internal edge
///   sequences them), a safe over-estimate for a same-level pair or when
///   merged nodes merge again;
/// * `output_words`: the consumer's words, plus the producer's when it
///   still feeds anyone *outside* the pair (Net-mode boundary memory on
///   the coarse graph then over-counts, never under-counts).
fn contract(
    g: &TaskGraph,
    partner: &[Option<usize>],
    level: usize,
) -> Result<(TaskGraph, Vec<usize>), GraphError> {
    let n = g.task_count();
    let mut map = vec![usize::MAX; n];
    let mut coarse = TaskGraph::new(format!("{}/L{}", g.name(), level + 1));
    for i in 0..n {
        if map[i] != usize::MAX {
            continue;
        }
        let ti = g.task(sparcs_dfg::TaskId(i as u32));
        let coarse_idx = coarse.task_count();
        match partner[i] {
            Some(j) if j > i => {
                let tj = g.task(sparcs_dfg::TaskId(j as u32));
                // Eligibility orients the matched edge; recover which
                // endpoint produces for the outside world.
                let (src, dst, src_task, dst_task) = if g
                    .successors(sparcs_dfg::TaskId(i as u32))
                    .any(|s| s.index() == j)
                {
                    (i, j, ti, tj)
                } else {
                    (j, i, tj, ti)
                };
                let src_external_consumer = g
                    .successors(sparcs_dfg::TaskId(src as u32))
                    .any(|s| s.index() != dst);
                let out_words = dst_task.output_words
                    + if src_external_consumer {
                        src_task.output_words
                    } else {
                        0
                    };
                coarse.add_task(
                    format!("m{}_{}", level + 1, coarse_idx),
                    src_task.resources + dst_task.resources,
                    src_task.delay_ns + dst_task.delay_ns,
                    out_words,
                );
                map[i] = coarse_idx;
                map[j] = coarse_idx;
            }
            Some(_) => continue, // handled when the smaller index is visited
            None => {
                coarse.add_task(
                    format!("m{}_{}", level + 1, coarse_idx),
                    ti.resources,
                    ti.delay_ns,
                    ti.output_words,
                );
                map[i] = coarse_idx;
            }
        }
    }
    // Second sweep for pairs whose smaller index was skipped above
    // (partner j < i already assigned both when visiting j — nothing to
    // do; the `continue` above only defers, never drops).
    debug_assert!(map.iter().all(|&m| m != usize::MAX));
    // Accumulate inter-group edge weights deterministically.
    let mut words: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for e in g.edges() {
        let (cu, cv) = (map[e.src.index()], map[e.dst.index()]);
        if cu != cv {
            *words.entry((cu, cv)).or_insert(0) += e.words;
        }
    }
    for ((cu, cv), w) in words {
        coarse.add_edge(
            sparcs_dfg::TaskId(cu as u32),
            sparcs_dfg::TaskId(cv as u32),
            w,
        )?;
    }
    // The per-level certificate: the eligibility rule proves acyclicity,
    // validate() checks it.
    coarse.validate()?;
    Ok((coarse, map))
}

/// Builds the coarsening tower for `g` under `cfg`.
///
/// Stops at `coarsest_tasks`, at `max_levels`, when no eligible edge
/// remains, or when a round's shrink falls below `min_shrink_per_mille`.
///
/// # Errors
///
/// Returns [`GraphError::Cycle`] if `g` itself is not a DAG (a contracted
/// level failing validation would also surface here, but the eligibility
/// rule proves that cannot happen).
pub fn coarsen(
    g: &TaskGraph,
    arch: &Architecture,
    cfg: &CoarsenConfig,
) -> Result<Tower, GraphError> {
    g.validate()?;
    let mut tower = Tower {
        graphs: vec![g.clone()],
        maps: Vec::new(),
    };
    for round in 0..cfg.max_levels as u64 {
        let current = match tower.graphs.last() {
            Some(c) => c,
            None => break,
        };
        let n = current.task_count();
        if n <= cfg.coarsest_tasks {
            break;
        }
        let mut partner = match_round(current, arch, cfg.seed, round);
        let mut pairs = partner.iter().filter(|p| p.is_some()).count() / 2;
        // Dense levels starve the degree rule; fall back to same-level
        // matching (cycle-safe by the level-potential argument) whenever
        // it contracts strictly more pairs than the edge round managed.
        if (pairs as u64 * 1000 / n as u64) < u64::from(cfg.min_shrink_per_mille) {
            let horizontal = horizontal_round(current, arch, cfg.seed, round)?;
            let hpairs = horizontal.iter().filter(|p| p.is_some()).count() / 2;
            if hpairs > pairs {
                partner = horizontal;
                pairs = hpairs;
            }
        }
        if pairs == 0 {
            break;
        }
        let shrink_per_mille = (pairs as u64 * 1000 / n as u64) as u32;
        let (coarse, map) = contract(current, &partner, tower.maps.len())?;
        tower.maps.push(map);
        tower.graphs.push(coarse);
        if shrink_per_mille < cfg.min_shrink_per_mille {
            break;
        }
    }
    Ok(tower)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcs_dfg::{gen, Resources, TaskId};
    use sparcs_estimate::Architecture;

    fn cfg(seed: u64) -> CoarsenConfig {
        CoarsenConfig {
            coarsest_tasks: 4,
            max_levels: 24,
            min_shrink_per_mille: 20,
            seed,
        }
    }

    fn arch() -> Architecture {
        Architecture::xc4044_wildforce()
    }

    #[test]
    fn cross_matched_pairs_cannot_contract_into_a_cycle() {
        // u1→v1 and u2→v2 with cross edges u1→v2, u2→v1: contracting both
        // would create a 2-cycle if level-adjacency were the only rule.
        // The degree rule must reject at least one of the two matches.
        let mut g = TaskGraph::new("cross");
        let r = Resources::clbs(1);
        let u1 = g.add_task("u1", r, 1, 1);
        let u2 = g.add_task("u2", r, 1, 1);
        let v1 = g.add_task("v1", r, 1, 1);
        let v2 = g.add_task("v2", r, 1, 1);
        g.add_edge(u1, v1, 10).expect("edge");
        g.add_edge(u2, v2, 10).expect("edge");
        g.add_edge(u1, v2, 10).expect("edge");
        g.add_edge(u2, v1, 10).expect("edge");
        let tower = coarsen(
            &g,
            &arch(),
            &CoarsenConfig {
                coarsest_tasks: 1,
                ..cfg(7)
            },
        )
        .expect("coarsen");
        for cg in &tower.graphs {
            cg.validate().expect("every level is a DAG");
        }
    }

    #[test]
    fn tower_shrinks_and_projection_covers_every_node() {
        let g = gen::layered(&gen::LayeredConfig::default(), 11);
        let tower = coarsen(&g, &arch(), &cfg(11)).expect("coarsen");
        assert!(tower.levels() > 1, "expected at least one contraction");
        for l in 0..tower.maps.len() {
            let fine = &tower.graphs[l];
            let coarse = &tower.graphs[l + 1];
            assert!(coarse.task_count() < fine.task_count());
            assert_eq!(tower.maps[l].len(), fine.task_count());
            // Total map, in range, surjective.
            let mut hit = vec![false; coarse.task_count()];
            for &m in &tower.maps[l] {
                hit[m] = true;
            }
            assert!(hit.iter().all(|&h| h), "projection must be surjective");
            coarse.validate().expect("coarse level is a DAG");
        }
    }

    #[test]
    fn coarsening_is_deterministic_per_seed() {
        let g = gen::layered(&gen::LayeredConfig::default(), 3);
        let a = coarsen(&g, &arch(), &cfg(5)).expect("coarsen");
        let b = coarsen(&g, &arch(), &cfg(5)).expect("coarsen");
        assert_eq!(a.graphs.len(), b.graphs.len());
        for (x, y) in a.graphs.iter().zip(&b.graphs) {
            assert_eq!(x, y);
        }
        assert_eq!(a.maps, b.maps);
    }

    #[test]
    fn merged_resources_never_exceed_the_device() {
        let g = gen::layered(&gen::LayeredConfig::default(), 9);
        let device = arch();
        let tower = coarsen(&g, &device, &cfg(9)).expect("coarsen");
        for cg in &tower.graphs {
            for (_, t) in cg.tasks() {
                assert!(t.resources.fits_within(&device.resources));
            }
        }
    }

    #[test]
    fn merged_delay_is_the_pair_sum() {
        let mut g = TaskGraph::new("pair");
        let a = g.add_task("a", Resources::clbs(1), 100, 3);
        let b = g.add_task("b", Resources::clbs(1), 250, 7);
        g.add_edge(a, b, 5).expect("edge");
        let tower = coarsen(
            &g,
            &arch(),
            &CoarsenConfig {
                coarsest_tasks: 1,
                ..cfg(1)
            },
        )
        .expect("coarsen");
        let coarsest = tower.coarsest();
        assert_eq!(coarsest.task_count(), 1);
        let t = coarsest.task(TaskId(0));
        assert_eq!(t.delay_ns, 350);
        // No external consumer of `a`: only the pair's own output counts.
        assert_eq!(t.output_words, 7);
    }
}
