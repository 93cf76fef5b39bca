//! Micro-benchmarks of the mining kernels: relation classification,
//! support-set intersection, season extraction, NMI computation, PS-growth,
//! and small end-to-end runs of the three engines.
//!
//! The build container has no access to crates.io, so instead of criterion
//! this is a `harness = false` benchmark built on the same timing helpers
//! as the CI-gated kernel experiment (`experiments/kernels.rs`): min and
//! median per-call time over `SAMPLES` batches, plus elements/sec where the
//! workload has a natural element count. Run with `cargo bench`.

use std::hint::black_box;
use stpm_approx::{normalized_mi, AStpmMiner};
use stpm_baseline::{ApsGrowth, PsGrowth, TransactionDb};
use stpm_bench::experiments::config_for;
use stpm_bench::experiments::kernels::{format_ns, time_samples};
use stpm_bench::params::scaled_real_spec;
use stpm_core::season::{find_seasons, support_is_frequent};
use stpm_core::{
    classify_relation, support, MiningEngine, MiningInput, StpmConfig, StpmMiner, Threshold,
    VerdictTable,
};
use stpm_datagen::{generate, DatasetProfile, DatasetSpec};
use stpm_timeseries::{EventLabel, Interval, SeriesId, SymbolId};

const SAMPLES: usize = 20;

/// Times `f` with the shared sampler and prints min/median per call; when
/// the workload has a natural element count, throughput is printed too (the
/// same statistic the kernel experiment gates in CI).
fn bench_function<T>(name: &str, iters: u32, elements: usize, mut f: impl FnMut() -> T) {
    let stats = time_samples(SAMPLES, iters, &mut f);
    let throughput = if elements > 0 && stats.median_ns > 0.0 {
        format!(
            "{:>9.1} Melem/s",
            elements as f64 * 1e9 / stats.median_ns / 1e6
        )
    } else {
        String::new()
    };
    println!(
        "{name:<44} min {:>12}  median {:>12}  {throughput}",
        format_ns(stats.min_ns),
        format_ns(stats.median_ns)
    );
}

fn bench_dataset() -> stpm_datagen::GeneratedDataset {
    let spec = DatasetSpec::real(DatasetProfile::Influenza)
        .scaled_to(8, 300)
        .with_seed(11);
    generate(&spec)
}

fn bench_config() -> StpmConfig {
    StpmConfig {
        max_period: Threshold::Absolute(4),
        min_density: Threshold::Absolute(3),
        dist_interval: (5, 60),
        min_season: 2,
        max_pattern_len: 2,
        ..StpmConfig::default()
    }
}

fn relation_kernel() {
    let pairs: Vec<(Interval, Interval)> = (0..256u64)
        .map(|i| {
            (
                Interval::new(i, i + (i % 7)),
                Interval::new(i + (i % 3), i + 5 + (i % 11)),
            )
        })
        .collect();
    bench_function("relation/classify_256_pairs", 1000, pairs.len(), || {
        let mut count = 0usize;
        for (a, b) in &pairs {
            if classify_relation(black_box(a), black_box(b), 0, 1).is_some() {
                count += 1;
            }
        }
        count
    });
}

fn support_kernel() {
    let a: Vec<u64> = (0..4096).filter(|x| x % 2 == 0).collect();
    let b: Vec<u64> = (0..4096).filter(|x| x % 3 == 0).collect();
    bench_function("support/intersect_4k", 1000, a.len() + b.len(), || {
        support::intersect(black_box(&a), black_box(&b))
    });
    // Skewed sizes trigger the galloping advance; the reused scratch buffer
    // makes the kernel allocation-free, like the miner's inner loop.
    let long: Vec<u64> = (0..262_144).map(|x| x * 2).collect();
    let short: Vec<u64> = (0..64).map(|x| x * 8_191).collect();
    let mut out = Vec::new();
    bench_function(
        "support/intersect_into_galloping_256k_vs_64",
        1000,
        short.len() + long.len(),
        || {
            support::intersect_into(&mut out, black_box(&short), black_box(&long));
            out.len()
        },
    );
}

fn season_kernel() {
    let support: Vec<u64> = (1..2000u64).filter(|x| x % 17 < 6).collect();
    let config = bench_config().resolve(2000).unwrap();
    bench_function("season/find_seasons_2k", 1000, support.len(), || {
        find_seasons(black_box(&support), &config)
    });
    // The allocation-free fast path the miner gates every candidate on.
    bench_function("season/support_is_frequent_2k", 1000, support.len(), || {
        support_is_frequent(black_box(&support), &config)
    });
}

fn adjacency_kernel() {
    // Row width of a 4096-event F_1 (64 words); AND three member rows and
    // walk the surviving bits — the per-group extension enumeration.
    let rows: Vec<Vec<u64>> = (0..3u64)
        .map(|r| {
            (0..64)
                .map(|w| {
                    0x9e37_79b9_7f4a_7c15u64.rotate_left((r * 17 + w) as u32) | (1 << (w % 64))
                })
                .collect()
        })
        .collect();
    let refs: Vec<&[u64]> = rows.iter().map(Vec::as_slice).collect();
    let mut out = Vec::new();
    bench_function("adjacency/and_3_rows_64w_iter_bits", 1000, 3 * 64, || {
        support::intersect_rows_into(&mut out, black_box(&refs));
        support::iter_set_bits(&out, 1).sum::<usize>()
    });
}

fn verdict_kernel() {
    // A verdict table shaped like a mid-size level 2: 64 pairs × 32 shared
    // granules × a 2×2 instance cross-product per granule.
    let label = |series: u32| EventLabel::new(SeriesId(series), SymbolId(1));
    let mut table = VerdictTable::default();
    for p in 0..64u32 {
        table.begin_pair(label(p), label(p + 64));
        for granule in 0..32u64 {
            table.begin_granule(1 + granule * 3);
            for cell in 0..4u8 {
                table.push_verdict(1 + (cell + p as u8) % 6);
            }
        }
    }
    bench_function("verdict/lookup_pair_block_cell", 1000, 64, || {
        let mut acc = 0u64;
        for p in 0..64u32 {
            let pair = table.pair(label(p), label(p + 64)).unwrap();
            let block = pair
                .block_at_cursor(&mut support::SupportCursor::default(), black_box(49))
                .unwrap();
            acc += u64::from(block[3]);
        }
        acc
    });
    // The closed-form classifier the lookups replace, over the same volume.
    let pairs: Vec<(Interval, Interval)> = (0..64u64)
        .map(|i| (Interval::new(i, i + 4), Interval::new(i + 2, i + 6)))
        .collect();
    bench_function(
        "verdict/classify_64_pairs_baseline",
        1000,
        pairs.len(),
        || {
            let mut count = 0usize;
            for (a, b) in &pairs {
                if classify_relation(black_box(a), black_box(b), 0, 1).is_some() {
                    count += 1;
                }
            }
            count
        },
    );
}

fn nmi_kernel() {
    let data = bench_dataset();
    let x = &data.dsyb.series()[0];
    let y = &data.dsyb.series()[1];
    bench_function("approx/nmi_1200_instants", 500, 1200, || {
        normalized_mi(black_box(x), black_box(y))
    });
}

fn pstree_kernel() {
    let data = bench_dataset();
    let dseq = data.dseq().unwrap();
    let transactions = TransactionDb::from_sequences(&dseq);
    bench_function("baseline/psgrowth_small", 20, transactions.len(), || {
        PsGrowth::new(6, 40, 2, transactions.len() as u64).mine(black_box(&transactions))
    });
}

fn end_to_end() {
    let data = bench_dataset();
    let dseq = data.dseq().unwrap();
    let input = MiningInput::new(&data.dsyb, &dseq, data.mapping_factor);
    let config = config_for(DatasetProfile::Influenza, 0.006, 0.0075, 2);

    bench_function("mine/estpm_small", 20, 0, || {
        StpmMiner.mine_with(black_box(&input), &config).unwrap()
    });
    bench_function("mine/astpm_small", 20, 0, || {
        AStpmMiner::new()
            .mine_with(black_box(&input), &config)
            .unwrap()
    });
    bench_function("mine/apsgrowth_small", 20, 0, || {
        ApsGrowth.mine_with(black_box(&input), &config).unwrap()
    });
    // Guard that the scaled specs used by the experiment binaries stay valid.
    let _ = scaled_real_spec(DatasetProfile::RenewableEnergy);
}

fn main() {
    println!(
        "kernels (min/median of {SAMPLES} batches; dispatch: {})",
        stpm_core::simd::kernels().name()
    );
    relation_kernel();
    support_kernel();
    adjacency_kernel();
    verdict_kernel();
    season_kernel();
    nmi_kernel();
    pstree_kernel();
    end_to_end();
}
