//! Multi-tenant arrival workloads for the service tier: many independent
//! tenants with power-law-distributed sizes, each streaming its dataset in
//! granule-aligned batches, interleaved into one bursty global arrival
//! order.
//!
//! Real multi-tenant fleets are never uniform — a few tenants dominate the
//! data volume while a long tail stays nearly idle, and arrivals cluster
//! in per-tenant bursts rather than interleaving politely. This module
//! reproduces both properties deterministically so the service benchmark
//! and the service chaos tests replay the exact same workload every run.

use crate::generator::{generate, GeneratedDataset};
use crate::profiles::{DatasetProfile, DatasetSpec};
use crate::rng::SeededRng;
use stpm_timeseries::SymbolicDatabase;

/// Specification of a multi-tenant workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantLoadSpec {
    /// Number of tenants.
    pub tenants: usize,
    /// Domain profile every tenant's data mimics.
    pub profile: DatasetProfile,
    /// Granules of the largest tenant; tenant `i` gets
    /// `max_granules / (i+1)^skew` granules, floored at `min_granules`.
    pub max_granules: u64,
    /// Size floor of the long tail.
    pub min_granules: u64,
    /// Series per tenant (kept small — a fleet of modest tenants, not one
    /// giant dataset).
    pub num_series: usize,
    /// Power-law exponent of the tenant-size distribution (1.0 ≈ Zipf).
    pub skew: f64,
    /// Granules per arrival batch.
    pub batch_granules: u64,
    /// Mean burst length: how many consecutive arrivals tend to come from
    /// the same tenant before the interleave switches.
    pub mean_burst: usize,
    /// RNG seed; the whole workload is a pure function of this spec.
    pub seed: u64,
}

impl TenantLoadSpec {
    /// A small, CI-friendly spec: `tenants` tenants of the smart-city
    /// profile with a Zipf size skew.
    #[must_use]
    pub fn quick(tenants: usize, seed: u64) -> Self {
        Self {
            tenants,
            profile: DatasetProfile::SmartCity,
            max_granules: 60,
            min_granules: 12,
            num_series: 3,
            skew: 1.0,
            batch_granules: 6,
            mean_burst: 3,
            seed,
        }
    }
}

/// One tenant's slice of the workload.
#[derive(Debug, Clone)]
pub struct TenantWorkload {
    /// Tenant name (stable across runs; valid as a service tenant name).
    pub name: String,
    /// The tenant's full dataset.
    pub dataset: GeneratedDataset,
    /// The dataset split into granule-aligned arrival batches; feeding
    /// them in order reconstructs the dataset exactly.
    pub batches: Vec<SymbolicDatabase>,
}

/// A complete multi-tenant workload: per-tenant batches plus the global
/// bursty arrival order.
#[derive(Debug, Clone)]
pub struct ServiceLoad {
    /// Per-tenant workloads, index-aligned with [`ServiceLoad::arrivals`].
    pub tenants: Vec<TenantWorkload>,
    /// The interleaved arrival schedule: `(tenant_index, batch_index)`
    /// pairs covering every batch of every tenant exactly once, with
    /// per-tenant batch order preserved.
    pub arrivals: Vec<(usize, usize)>,
}

/// Generates the workload of `spec`. Deterministic: equal specs yield
/// byte-identical workloads (data, names, and arrival order).
///
/// # Panics
/// Panics when `spec.tenants` is zero or `spec.batch_granules` is zero.
#[must_use]
pub fn service_load(spec: &TenantLoadSpec) -> ServiceLoad {
    assert!(spec.tenants > 0, "a workload needs at least one tenant");
    assert!(spec.batch_granules > 0, "batches must hold granules");
    let mut tenants = Vec::with_capacity(spec.tenants);
    for index in 0..spec.tenants {
        let granules = power_law_size(spec, index);
        let dataset = generate(
            &DatasetSpec::real(spec.profile)
                .scaled_to(spec.num_series, granules)
                .with_seed(spec.seed ^ (0x007e_4a17 + index as u64 * 0x9e37_79b9)),
        );
        // No initial bulk window: every granule arrives through a batch.
        let batches = dataset.arrival_batches(0, spec.batch_granules);
        tenants.push(TenantWorkload {
            name: format!("tenant-{index:05}"),
            dataset,
            batches,
        });
    }
    let arrivals = bursty_interleave(&tenants, spec);
    ServiceLoad { tenants, arrivals }
}

/// Tenant `index`'s size in granules: `max / (index+1)^skew`, floored.
fn power_law_size(spec: &TenantLoadSpec, index: usize) -> u64 {
    let rank = (index + 1) as f64;
    let scaled = (spec.max_granules as f64 / rank.powf(spec.skew)).floor() as u64;
    scaled.clamp(spec.min_granules, spec.max_granules)
}

/// Interleaves per-tenant batch sequences into one bursty schedule:
/// repeatedly pick a tenant (weighted by its remaining batches, so heavy
/// tenants dominate the air time the way they dominate the data) and emit
/// a geometric-ish burst of its next batches.
fn bursty_interleave(tenants: &[TenantWorkload], spec: &TenantLoadSpec) -> Vec<(usize, usize)> {
    let mut rng = SeededRng::seed_from_u64(spec.seed ^ 0xb0b5_7a11);
    let mut next_batch: Vec<usize> = vec![0; tenants.len()];
    let mut remaining: Vec<usize> = tenants.iter().map(|t| t.batches.len()).collect();
    let mut total: usize = remaining.iter().sum();
    let mut arrivals = Vec::with_capacity(total);
    while total > 0 {
        // Weighted pick over remaining batches.
        let mut pick = rng.next_below(total as u64) as usize;
        let mut tenant = 0;
        for (index, &left) in remaining.iter().enumerate() {
            if pick < left {
                tenant = index;
                break;
            }
            pick -= left;
        }
        // Burst length 1..=2*mean, mean ≈ mean_burst.
        let cap = (spec.mean_burst.max(1) * 2) as u64;
        let burst = (rng.next_below(cap) + 1) as usize;
        for _ in 0..burst.min(remaining[tenant]) {
            arrivals.push((tenant, next_batch[tenant]));
            next_batch[tenant] += 1;
            remaining[tenant] -= 1;
            total -= 1;
        }
    }
    arrivals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TenantLoadSpec {
        TenantLoadSpec::quick(7, 42)
    }

    #[test]
    fn schedule_covers_every_batch_exactly_once_in_order() {
        let load = service_load(&spec());
        let mut seen: Vec<Vec<usize>> = vec![Vec::new(); load.tenants.len()];
        for &(tenant, batch) in &load.arrivals {
            seen[tenant].push(batch);
        }
        for (tenant, batches) in seen.iter().enumerate() {
            let expect: Vec<usize> = (0..load.tenants[tenant].batches.len()).collect();
            assert_eq!(
                batches, &expect,
                "tenant {tenant}: every batch exactly once, in order"
            );
        }
    }

    #[test]
    fn deterministic_for_equal_specs() {
        let a = service_load(&spec());
        let b = service_load(&spec());
        assert_eq!(a.arrivals, b.arrivals);
        for (ta, tb) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(ta.name, tb.name);
            assert_eq!(ta.dataset.dsyb, tb.dataset.dsyb);
        }
    }

    #[test]
    fn sizes_follow_a_power_law() {
        let load = service_load(&spec());
        let granules: Vec<u64> = load
            .tenants
            .iter()
            .map(|t| t.dataset.dsyb.len() as u64 / t.dataset.mapping_factor.max(1))
            .collect();
        assert!(
            granules.windows(2).all(|w| w[0] >= w[1]),
            "sizes are non-increasing by rank: {granules:?}"
        );
        assert!(
            granules[0] > granules[granules.len() - 1],
            "the head is strictly larger than the tail"
        );
    }

    #[test]
    fn batches_reassemble_each_tenant_exactly() {
        let load = service_load(&spec());
        for tenant in &load.tenants {
            let total: usize = tenant.batches.iter().map(SymbolicDatabase::len).sum();
            assert_eq!(total, tenant.dataset.dsyb.len());
        }
    }

    #[test]
    fn interleave_is_bursty_not_round_robin() {
        let load = service_load(&spec());
        let runs = load
            .arrivals
            .windows(2)
            .filter(|w| w[0].0 == w[1].0)
            .count();
        assert!(
            runs > load.arrivals.len() / 4,
            "adjacent same-tenant arrivals should be common ({runs} of {})",
            load.arrivals.len()
        );
    }
}
