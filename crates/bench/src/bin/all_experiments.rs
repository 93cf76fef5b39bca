//! Runs the table and figure reproductions of the paper's evaluation.
//!
//! ```text
//! all_experiments [--quick] [--only <name>]
//! ```
//!
//! With no `--only`, every entry of [`EXPERIMENTS`] runs in paper order;
//! `--only <name>` runs that one entry. `--quick` shrinks the datasets and
//! parameter grids to a seconds-scale smoke run.
use stpm_bench::experiments::runtime_memory::Metric;
use stpm_bench::experiments::scalability::ScaleAxis;
use stpm_bench::experiments::{
    ablation, accuracy, epsilon, pattern_counts, pruning_ratio, qualitative, runtime_memory,
    scalability, BenchScale,
};
use stpm_bench::TextTable;
use stpm_datagen::DatasetProfile::{self, HandFootMouth, Influenza, RenewableEnergy, SmartCity};

const RE_INF: [DatasetProfile; 2] = [RenewableEnergy, Influenza];
const SC_HFM: [DatasetProfile; 2] = [SmartCity, HandFootMouth];

/// One reproduction: its `--only` name, what it reproduces, and the tables
/// it prints.
struct Experiment {
    name: &'static str,
    title: &'static str,
    run: fn(&BenchScale) -> Vec<TextTable>,
}

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table07_accuracy_real",
        title: "Table VII: A-STPM accuracy on the RE and INF (surrogate) real datasets",
        run: |s| accuracy::run_real(&RE_INF, s),
    },
    Experiment {
        name: "table08_qualitative",
        title: "Table VIII: representative seasonal temporal patterns per dataset",
        run: |s| qualitative::run(&DatasetProfile::all(), s, 11),
    },
    Experiment {
        name: "table09_10_pattern_counts",
        title: "Tables IX and X: number of seasonal patterns on RE and INF",
        run: |s| pattern_counts::run(&RE_INF, s),
    },
    Experiment {
        name: "table11_pruning_ratio",
        title: "Table XI: time series and events pruned by A-STPM on RE and INF synthetic",
        run: |s| pruning_ratio::run(&RE_INF, s),
    },
    Experiment {
        name: "table12_accuracy_synthetic",
        title: "Table XII: A-STPM accuracy on the RE and INF synthetic datasets",
        run: |s| accuracy::run_synthetic(&RE_INF, s),
    },
    Experiment {
        name: "table13_14_pattern_counts",
        title: "Tables XIII and XIV: number of seasonal patterns on SC and HFM",
        run: |s| pattern_counts::run(&SC_HFM, s),
    },
    Experiment {
        name: "table15_16_pruning_ratio",
        title: "Tables XV and XVI: time series and events pruned by A-STPM on SC and HFM synthetic",
        run: |s| pruning_ratio::run(&SC_HFM, s),
    },
    Experiment {
        name: "table17_accuracy_real",
        title: "Table XVII: A-STPM accuracy on the SC and HFM (surrogate) real datasets",
        run: |s| accuracy::run_real(&SC_HFM, s),
    },
    Experiment {
        name: "table18_accuracy_synthetic",
        title: "Table XVIII: A-STPM accuracy on the SC and HFM synthetic datasets",
        run: |s| accuracy::run_synthetic(&SC_HFM, s),
    },
    Experiment {
        name: "table19_20_epsilon",
        title: "Tables XIX and XX: pattern loss under the tolerance buffer epsilon",
        run: |s| epsilon::run(&DatasetProfile::all(), s),
    },
    Experiment {
        name: "fig07_08_runtime_real",
        title: "Figures 7 and 8: runtime comparison on RE and INF (real)",
        run: |s| runtime_memory::run(&RE_INF, s, Metric::Runtime),
    },
    Experiment {
        name: "fig09_10_memory_real",
        title: "Figures 9 and 10: memory comparison on RE and INF (real)",
        run: |s| runtime_memory::run(&RE_INF, s, Metric::Memory),
    },
    Experiment {
        name: "fig11_12_scale_sequences",
        title: "Figures 11 and 12: scalability varying the number of sequences (RE, INF synthetic)",
        run: |s| scalability::run(&RE_INF, s, ScaleAxis::Sequences),
    },
    Experiment {
        name: "fig13_14_scale_series",
        title:
            "Figures 13 and 14: scalability varying the number of time series (RE, INF synthetic)",
        run: |s| scalability::run(&RE_INF, s, ScaleAxis::Series),
    },
    Experiment {
        name: "fig15_16_pruning_ablation",
        title: "Figures 15 and 16: pruning-technique ablation of E-STPM on RE and INF",
        run: |s| ablation::run(&RE_INF, s),
    },
    Experiment {
        name: "fig17_20_sc_hfm",
        title: "Figures 17-20: runtime and memory comparison on SC and HFM (real)",
        run: |s| {
            let mut tables = runtime_memory::run(&SC_HFM, s, Metric::Runtime);
            tables.extend(runtime_memory::run(&SC_HFM, s, Metric::Memory));
            tables
        },
    },
    Experiment {
        name: "fig21_24_scale_sc_hfm",
        title: "Figures 21-24: scalability on SC and HFM synthetic",
        run: |s| {
            let mut tables = scalability::run(&SC_HFM, s, ScaleAxis::Sequences);
            tables.extend(scalability::run(&SC_HFM, s, ScaleAxis::Series));
            tables
        },
    },
    Experiment {
        name: "fig25_26_pruning_ablation_sc_hfm",
        title: "Figures 25 and 26: pruning-technique ablation of E-STPM on SC and HFM",
        run: |s| ablation::run(&SC_HFM, s),
    },
];

fn usage(problem: &str) -> ! {
    eprintln!("all_experiments: {problem}");
    eprintln!("usage: all_experiments [--quick] [--only <name>]");
    eprintln!("names:");
    for experiment in EXPERIMENTS {
        eprintln!("  {}", experiment.name);
    }
    std::process::exit(2);
}

fn main() {
    let mut scale = BenchScale::full();
    let mut only = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => scale = BenchScale::quick(),
            "--only" => match args.next() {
                Some(name) => only = Some(name),
                None => usage("--only needs an experiment name"),
            },
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let selected: Vec<&Experiment> = match &only {
        Some(name) => match EXPERIMENTS.iter().find(|e| e.name == name.as_str()) {
            Some(experiment) => vec![experiment],
            None => usage(&format!("unknown experiment `{name}`")),
        },
        None => EXPERIMENTS.iter().collect(),
    };
    for experiment in selected {
        println!("### {} ###", experiment.title);
        for table in (experiment.run)(&scale) {
            table.print();
        }
    }
}
