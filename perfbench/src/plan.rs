//! The plan phase of a round: a workflow owner computes the cheapest
//! hidden set that keeps every private module Γ-private.
//!
//! The workflow is a chain of one-one private modules over boolean
//! wires (`library::one_one_chain`). One plan is
//! `WorkflowSweeper::minimal_frontiers_all` →
//! `CardinalityInstance::from_sweeper` → `cardinality::solve_rounding`
//! → safety check, on a sweeper built in set-up (its sweeps are
//! memoized, so every timed plan gets a sweeper of its own). Nearly all
//! of a plan's time is kernel probes inside the sweep; no wire, serve or
//! durable code runs.

use crate::report::{mean, Report};
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;
use sv_core::sweep::{ModuleFrontiers, SweepConfig, SweepStats, WorkflowSweeper};
use sv_core::StandaloneModule;
use sv_optimize::cardinality;
use sv_optimize::instance::{CardinalityInstance, Solution};
use sv_relation::{AttrId, AttrSet};
use sv_workflow::{library, ModuleId, Workflow};

/// The plan instance of a workload; the seed fills it in.
pub struct PlanShape {
    /// Private modules in the chain.
    pub modules: usize,
    /// Boolean wires per module side: `k = 2 × wires`.
    pub wires: usize,
    /// Γ per module, cycled along the chain.
    pub gammas: &'static [u128],
    /// Timed plans per round, each on its own sweeper.
    pub reps: usize,
}

/// Sweep worker threads, fixed (never `SweepConfig::auto`).
const SWEEP_THREADS: usize = 2;
/// Materialization budget (rows per module relation).
const BUDGET: u128 = 1 << 21;
/// Hiding costs of one wire layer (its first `wires` entries); the seed
/// permutes them within each layer. Requirement lists count hidden
/// inputs and outputs, so every seed plans an isomorphic instance (the
/// same sweep work and the same LP bound) with different attributes
/// hidden. Even layers (the chain's input, and every second module
/// boundary) cost twice as much, so the optimum hides wires of the odd
/// layers, where one wire serves the modules on both sides of it.
const LAYER_COSTS: [u64; 10] = [3, 4, 5, 6, 7, 8, 9, 10, 11, 12];
/// Visible sets per module in the relation-probe sample (traced runs).
const PROBE_SAMPLE: usize = 64;

/// Everything the seed decides.
pub struct PlanInputs {
    workflow: Workflow,
    gammas: Vec<u128>,
    costs: Vec<u64>,
    rounding_seed: u64,
    reps: usize,
}

pub fn generate(shape: &PlanShape, seed: u64) -> PlanInputs {
    assert!(shape.wires <= LAYER_COSTS.len(), "one cost per wire");
    let mut rng = StdRng::seed_from_u64(seed);
    let workflow = library::one_one_chain(shape.modules, shape.wires);
    let mut costs = Vec::new();
    for level in 0..=shape.modules {
        let mut layer: Vec<u64> = LAYER_COSTS[..shape.wires]
            .iter()
            .map(|&c| if level % 2 == 0 { 2 * c } else { c })
            .collect();
        for i in (1..layer.len()).rev() {
            layer.swap(i, rng.gen_range(0..i + 1));
        }
        costs.extend(layer);
    }
    assert_eq!(
        costs.len(),
        workflow.schema().len(),
        "one cost per attribute"
    );
    PlanInputs {
        workflow,
        gammas: (0..shape.modules)
            .map(|m| shape.gammas[m % shape.gammas.len()])
            .collect(),
        costs,
        rounding_seed: rng.next_u64(),
        reps: shape.reps,
    }
}

/// Set-up: one sweeper per timed plan of the round.
pub fn prepare(inputs: &PlanInputs) -> Vec<WorkflowSweeper> {
    (0..inputs.reps)
        .map(|_| {
            WorkflowSweeper::for_workflow(
                &inputs.workflow,
                BUDGET,
                SweepConfig::parallel(SWEEP_THREADS),
            )
            .expect("chain modules materialize within budget")
        })
        .collect()
}

/// Module-local ids of the global attributes of `hidden` that belong to
/// module `id` (local ids enumerate the module's attributes in global
/// id order).
fn local_hidden(wf: &Workflow, id: ModuleId, hidden: &AttrSet) -> AttrSet {
    let attrs = wf.module(id).expect("private module id").attr_set();
    attrs
        .iter()
        .enumerate()
        .filter(|(_, a)| hidden.contains(*a))
        .map(|(local, _)| AttrId(local as u32))
        .collect()
}

/// One round's plans.
pub struct Plans {
    /// Seconds per timed plan.
    pub plan_s: Vec<f64>,
    pub cost: u64,
    pub lp_bound: f64,
    /// Traced rounds, per plan: sweep, derive and LP span seconds.
    pub layer_s: Vec<[f64; 3]>,
    /// Traced rounds: mean µs of cold and warm relation probes.
    pub relation_us: Option<[f64; 2]>,
}

/// Runs the round's timed plans, one per sweeper, then checks each.
/// Adds the exact counters to `counters`. Request ids of the plans'
/// spans start at `req`.
pub fn run_plans(
    inputs: &PlanInputs,
    sweepers: Vec<WorkflowSweeper>,
    tr: &mut Tracer,
    req: u64,
    index: usize,
    report: &mut Report,
    counters: &mut BTreeMap<String, String>,
) -> Plans {
    let wf = &inputs.workflow;
    let mut plan_s = Vec::with_capacity(sweepers.len());
    let mut layer_s = Vec::new();
    let mut outcomes = Vec::with_capacity(sweepers.len());
    for (rep, sweeper) in sweepers.iter().enumerate() {
        let req = req + rep as u64;
        let t = Instant::now();
        let root = tr.begin("op.plan", None, req);
        let ((frontiers, stats), sweep_id) =
            tr.span("sweep.minimal_frontiers_all", Some(root), req, || {
                sweeper
                    .minimal_frontiers_all(&inputs.gammas)
                    .expect("every chain module has a safe hidden set")
            });
        let ((instance, _), derive_id) = tr.span("optimize.from_sweeper", Some(root), req, || {
            CardinalityInstance::from_sweeper(sweeper, &inputs.gammas)
                .expect("requirement lists derive from the memoized sweeps")
        });
        let instance = instance.with_costs(inputs.costs.clone());
        let mut rounding_rng = StdRng::seed_from_u64(inputs.rounding_seed);
        let (solution, lp_id) = tr.span("optimize.solve_rounding", Some(root), req, || {
            cardinality::solve_rounding(&instance, &mut rounding_rng).expect("the LP is feasible")
        });
        let (safe, _) = tr.span("core.is_safe_hidden", Some(root), req, || {
            instance.feasible(&solution.hidden)
                && sweeper
                    .module_ids()
                    .iter()
                    .zip(&inputs.gammas)
                    .all(|(&id, &gamma)| {
                        let module = sweeper.module(id).expect("covered module");
                        module.is_safe_hidden(&local_hidden(wf, id, &solution.hidden), gamma)
                    })
        });
        tr.end(root);
        plan_s.push(t.elapsed().as_secs_f64());
        if tr.enabled() {
            layer_s.push([
                tr.seconds(sweep_id),
                tr.seconds(derive_id),
                tr.seconds(lp_id),
            ]);
        }
        outcomes.push((frontiers, stats, instance, solution, safe));
    }

    // Correctness, outside the timed plans.
    let mut lp_bound = f64::NAN;
    for (rep, (_, stats, instance, solution, safe)) in outcomes.iter().enumerate() {
        report.attempted += 1;
        let checked = instance
            .feasible(&solution.hidden)
            .then(|| Solution::checked_card(instance, solution.hidden.clone()));
        report.check(*safe && checked.as_ref() == Some(solution), || {
            format!(
                "round {index} plan {rep}: hidden set {:?} fails the cardinality or safety check",
                solution.hidden
            )
        });
        for (&id, &gamma) in sweepers[rep].module_ids().iter().zip(&inputs.gammas) {
            let fresh =
                StandaloneModule::from_workflow_module(wf, id, BUDGET).expect("materializes");
            report.check(
                fresh.is_safe_hidden(&local_hidden(wf, id, &solution.hidden), gamma),
                || {
                    format!(
                        "round {index} plan {rep}: module {} is not {gamma}-private under the plan",
                        id.index()
                    )
                },
            );
        }
        lp_bound = cardinality::lp_lower_bound(instance).expect("the LP is feasible");
        report.check(solution.cost as f64 >= lp_bound - 1e-6, || {
            format!(
                "round {index} plan {rep}: cost {} below the LP bound {lp_bound}",
                solution.cost
            )
        });
        // Every plan of the round solves the same instance.
        let groupings: usize = sweepers[rep]
            .module_ids()
            .iter()
            .map(|&id| {
                sweepers[rep]
                    .module(id)
                    .expect("covered")
                    .kernel()
                    .cached_groupings()
            })
            .sum();
        let mine = plan_counters(stats, groupings, solution, lp_bound);
        if rep == 0 {
            counters.extend(mine);
        } else {
            report.check(mine.iter().all(|(k, v)| counters.get(k) == Some(v)), || {
                format!("round {index} plan {rep}: exact counters differ from plan 0")
            });
        }
    }

    let relation_us = tr.enabled().then(|| {
        let (cold, warm) = relation_probes(wf, &outcomes[0].0, tr, req, report);
        [cold, warm]
    });
    Plans {
        plan_s,
        cost: outcomes[0].3.cost,
        lp_bound,
        layer_s,
        relation_us,
    }
}

fn plan_counters(
    stats: &SweepStats,
    groupings: usize,
    solution: &Solution,
    lp_bound: f64,
) -> BTreeMap<String, String> {
    let hidden: Vec<u32> = solution.hidden.iter().map(|a| a.0).collect();
    [
        ("sweep.lattice", stats.lattice.to_string()),
        ("sweep.visited", stats.visited.to_string()),
        ("sweep.pruned", stats.pruned.to_string()),
        ("sweep.border_visited", stats.border_visited.to_string()),
        ("sweep.border_jumps", stats.border_jumps.to_string()),
        ("sweep.frontier_nodes", stats.frontier_nodes.to_string()),
        ("plan.cached_groupings", groupings.to_string()),
        ("plan.cost", solution.cost.to_string()),
        ("plan.hidden", format!("{hidden:?}").replace(' ', "")),
        ("optimize.lp_bound_bits", lp_bound.to_bits().to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// `privacy_level_word` over a sample of the plan's visible sets (the
/// complements of each module's minimal safe hidden sets): first on a
/// fresh module, so first touches build their `GroupIndex`, then again
/// warm. Returns the mean µs per probe of each pass.
fn relation_probes(
    wf: &Workflow,
    frontiers: &ModuleFrontiers,
    tr: &mut Tracer,
    req: u64,
    report: &mut Report,
) -> (f64, f64) {
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    for (id, frontier) in frontiers {
        let module = StandaloneModule::from_workflow_module(wf, *id, BUDGET).expect("materializes");
        let full = (1u64 << module.k()) - 1;
        let visible: Vec<u64> = frontier
            .iter()
            .take(PROBE_SAMPLE)
            .map(|h| !h & full)
            .collect();
        let mut first = Vec::with_capacity(visible.len());
        for &v in &visible {
            let (level, id) = tr.span("relation.cold_probe", None, req, || {
                module.privacy_level_word(v)
            });
            cold.push(tr.seconds(id) * 1e6);
            first.push(level);
        }
        for (&v, &level) in visible.iter().zip(&first) {
            let (again, id) = tr.span("relation.warm_probe", None, req, || {
                module.privacy_level_word(v)
            });
            warm.push(tr.seconds(id) * 1e6);
            report.check(again == level && level.is_some(), || {
                format!("warm probe of {v:#x} answered {again:?}, cold {level:?}")
            });
        }
    }
    (mean(&cold), mean(&warm))
}
