//! E9 — Theorem 5: cardinality-constraint optimizers. LP solve +
//! Algorithm-1 rounding vs exact enumeration vs exact IP, n sweep.
//!
//! Also hosts the **kernel-swap** comparison recorded in
//! `BENCH_kernel.json`: Γ-requirement derivation (the `is_safe` /
//! `group_count_distinct` hot path) through the row-at-a-time seed
//! semantics vs the interned columnar kernel vs the kernel plus the
//! memoizing safety oracle, and the **warm-probe** kernel pair pass:
//! the retired sort-based reference (`sv_bench::pairsort`) vs the
//! production counting-sort pass on the sweep's module shape.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sv_bench::pairsort::min_group_distinct_sorted;
use sv_core::requirements::{cardinality_constraints_with, set_constraints_with};
use sv_core::safety::{KernelOracle, MemoSafetyOracle, NaiveOracle, SafetyOracle};
use sv_core::StandaloneModule;
use sv_gen::random::{random_cardinality, InstanceParams};
use sv_optimize::{cardinality, exact_cardinality, CardinalityInstance};
use sv_workflow::{library, ModuleId};

/// Full requirement derivation for one module: the set-constraints
/// lattice sweep followed by the cardinality Pareto frontier — exactly
/// what `sv-optimize` instance building runs per private module.
fn derive(oracle: &dyn SafetyOracle, gamma: u128) -> (usize, usize) {
    let s = set_constraints_with(oracle, gamma).unwrap().len();
    let c = cardinality_constraints_with(oracle, gamma).len();
    (s, c)
}

fn bench_kernel_swap(c: &mut Criterion) {
    let mut g = c.benchmark_group("e9_kernel_swap");
    g.sample_size(10);
    // A k = 10 one-one module (5 boolean wires in/out, N = 32 rows):
    // 2^10 subsets probed by the lattice sweep.
    let wf = library::one_one_chain(1, 5);
    let m = StandaloneModule::from_workflow_module(&wf, ModuleId(0), 1 << 20).unwrap();
    let gamma = 4u128;
    g.bench_function("derive_requirements/naive_rowwise", |bch| {
        bch.iter(|| {
            let o = NaiveOracle::new(m.clone());
            derive(&o, gamma)
        });
    });
    g.bench_function("derive_requirements/interned_kernel", |bch| {
        bch.iter(|| {
            let o = KernelOracle::new(&m);
            derive(&o, gamma)
        });
    });
    g.bench_function("derive_requirements/interned_plus_memo", |bch| {
        bch.iter(|| {
            let o = MemoSafetyOracle::new(m.clone());
            derive(&o, gamma)
        });
    });
    // Warm Lemma-4 probes on the sweep's module shape (a one-one module
    // over 10 boolean wires: k = 20, N = 1024 rows): 64 visible sets
    // hiding 3-5 attributes, every grouping already cached, so both
    // rows time only the pair pass (plus the same two cache lookups).
    let wide = library::one_one_chain(1, 10);
    let big = StandaloneModule::from_workflow_module(&wide, ModuleId(0), 1 << 21).unwrap();
    let kernel = big.kernel();
    let iw = big.inputs().as_word().expect("k = 20 fits a word");
    let ow = big.outputs().as_word().expect("k = 20 fits a word");
    let mut rng = StdRng::seed_from_u64(0xE9);
    let pairs: Vec<(u64, u64)> = (0..64)
        .map(|_| {
            let n_hidden = rng.gen_range(3u32..6);
            let mut hidden = 0u64;
            while hidden.count_ones() < n_hidden {
                hidden |= 1 << rng.gen_range(0u32..20);
            }
            (iw & !hidden, ow & !hidden)
        })
        .collect();
    for &(kw, pw) in &pairs {
        let _ = kernel.min_group_distinct_words(kw, pw);
    }
    g.bench_function("warm_probe/sort_reference", |bch| {
        let mut scratch = Vec::new();
        bch.iter(|| {
            pairs
                .iter()
                .map(|&(kw, pw)| {
                    let (kg, pg) = (kernel.group_index_word(kw), kernel.group_index_word(pw));
                    min_group_distinct_sorted(&kg, &pg, &mut scratch)
                })
                .sum::<usize>()
        });
    });
    g.bench_function("warm_probe/counting_sort", |bch| {
        let mut scratch = Vec::new();
        bch.iter(|| {
            pairs
                .iter()
                .map(|&(kw, pw)| kernel.min_group_distinct_words_with(kw, pw, &mut scratch))
                .sum::<usize>()
        });
    });
    // End-to-end instance derivation through the shared-oracle path.
    let fig1 = library::fig1_workflow();
    g.bench_function("instance_from_workflow/fig1", |bch| {
        bch.iter(|| CardinalityInstance::from_workflow(&fig1, 2, 1 << 20).unwrap());
    });
    g.finish();
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e9_cardinality");
    g.sample_size(10);
    for n in [3usize, 5, 6] {
        let p = InstanceParams {
            n_modules: n,
            attrs_per_module: 4,
            ..Default::default()
        };
        let inst = random_cardinality(&mut StdRng::seed_from_u64(n as u64), &p);
        g.bench_with_input(BenchmarkId::new("lp_rounding", n), &n, |bch, _| {
            let mut rng = StdRng::seed_from_u64(99);
            bch.iter(|| cardinality::solve_rounding(&inst, &mut rng).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("exact_enumeration", n), &n, |bch, _| {
            bch.iter(|| exact_cardinality(&inst));
        });
    }
    let p = InstanceParams {
        n_modules: 3,
        attrs_per_module: 4,
        ..Default::default()
    };
    let inst = random_cardinality(&mut StdRng::seed_from_u64(7), &p);
    g.bench_function("exact_ip_branch_bound_n3", |bch| {
        bch.iter(|| cardinality::exact_ip(&inst, 1 << 18));
    });
    g.finish();
}

criterion_group!(benches, bench, bench_kernel_swap);
criterion_main!(benches);
