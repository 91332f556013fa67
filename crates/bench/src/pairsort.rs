//! Retained **sort-based pair-pass reference** for the Lemma-4 kernel —
//! the inner loop `InternedRelation::min_group_distinct` ran before the
//! counting-sort rewrite, kept so `e9_kernel_swap/warm_probe` can
//! measure the production pass against the exact code path it replaced.
//!
//! Per probe it materializes one `u64` pair code
//! `key_gid × probe_groups + probe_gid` per row, sorts and dedups the
//! codes, and counts each key group's run with one division per code:
//! `O(rows log rows)`, where the production pass buckets the rows by a
//! counting sort and counts distinct probe ids against a stamped seen
//! array in `O(rows + groups)`.

use sv_relation::GroupIndex;

/// Minimum over the `kg` groups of the number of distinct `pg` groups
/// among their rows (`usize::MAX` on an empty relation), by sorting pair
/// codes in `scratch`. Same answer as the production pass.
#[must_use]
pub fn min_group_distinct_sorted(
    kg: &GroupIndex,
    pg: &GroupIndex,
    scratch: &mut Vec<u64>,
) -> usize {
    if kg.row_group.is_empty() {
        return usize::MAX;
    }
    let pn = u64::from(pg.n_groups);
    scratch.clear();
    scratch.extend(
        kg.row_group
            .iter()
            .zip(pg.row_group.iter())
            .map(|(&k, &p)| u64::from(k) * pn + u64::from(p)),
    );
    scratch.sort_unstable();
    scratch.dedup();
    let mut min = usize::MAX;
    let mut cur_key = scratch[0] / pn;
    let mut count = 0usize;
    for &code in scratch.iter() {
        let k = code / pn;
        if k == cur_key {
            count += 1;
        } else {
            min = min.min(count);
            cur_key = k;
            count = 1;
        }
    }
    min.min(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sv_relation::{AttrDef, Domain, InternedRelation, Relation, Schema, Tuple};

    #[test]
    fn sorted_reference_agrees_with_the_production_pass() {
        let mut rng = StdRng::seed_from_u64(0x5027);
        for _ in 0..40 {
            let k = rng.gen_range(2usize..7);
            let schema = Schema::new(
                (0..k)
                    .map(|i| AttrDef {
                        name: format!("a{i}"),
                        domain: Domain::new(rng.gen_range(2u32..5)),
                    })
                    .collect(),
            );
            let rows: Vec<Vec<u32>> = (0..rng.gen_range(0usize..60))
                .map(|_| {
                    schema
                        .iter()
                        .map(|(_, d)| rng.gen_range(0..d.domain.size()))
                        .collect()
                })
                .collect();
            let half = rows.len() / 2;
            let r = Relation::from_values(schema, rows[..half].to_vec()).unwrap();
            let mut ir = InternedRelation::from_relation(&r);
            // Warm groupings extended by an append exercise first-seen
            // (unsorted) group ids as well as fresh builds.
            let _ = ir.group_index_word(1);
            let tail: Vec<Tuple> = rows[half..].iter().cloned().map(Tuple::new).collect();
            ir.append_rows(&tail).unwrap();
            let mut scratch = Vec::new();
            for key in 0..1u64 << k {
                let probe = rng.gen_range(0..1u64 << k);
                let (kg, pg) = (ir.group_index_word(key), ir.group_index_word(probe));
                assert_eq!(
                    min_group_distinct_sorted(&kg, &pg, &mut scratch),
                    ir.min_group_distinct_words(key, probe),
                    "key {key:#b}, probe {probe:#b}"
                );
            }
        }
    }
}
