//! Runs every table and figure reproduction in sequence (pass --quick for a smoke run).
use stpm_bench::experiments::BenchScale;

fn scale() -> BenchScale {
    if std::env::args().any(|a| a == "--quick") {
        BenchScale::quick()
    } else {
        BenchScale::full()
    }
}

fn main() {
    use stpm_bench::experiments::*;
    use stpm_datagen::DatasetProfile;
    let s = scale();
    let re_inf = [DatasetProfile::RenewableEnergy, DatasetProfile::Influenza];
    let sc_hfm = [DatasetProfile::SmartCity, DatasetProfile::HandFootMouth];
    let all = DatasetProfile::all();

    println!("### Qualitative (Table VIII) ###");
    for t in qualitative::run(&all, &s, 11) {
        t.print();
    }
    println!("### Pattern counts (Tables IX/X/XIII/XIV) ###");
    for t in pattern_counts::run(&all, &s) {
        t.print();
    }
    println!("### A-STPM accuracy, real (Tables VII/XVII) ###");
    for t in accuracy::run_real(&all, &s) {
        t.print();
    }
    println!("### A-STPM accuracy, synthetic (Tables XII/XVIII) ###");
    for t in accuracy::run_synthetic(&all, &s) {
        t.print();
    }
    println!("### A-STPM pruning ratios (Tables XI/XV/XVI) ###");
    for t in pruning_ratio::run(&all, &s) {
        t.print();
    }
    println!("### Epsilon sensitivity (Tables XIX/XX) ###");
    for t in epsilon::run(&all, &s) {
        t.print();
    }
    println!("### Runtime comparison (Figs 7/8/17/18) ###");
    for t in runtime_memory::run(&re_inf, &s, runtime_memory::Metric::Runtime) {
        t.print();
    }
    for t in runtime_memory::run(&sc_hfm, &s, runtime_memory::Metric::Runtime) {
        t.print();
    }
    println!("### Memory comparison (Figs 9/10/19/20) ###");
    for t in runtime_memory::run(&re_inf, &s, runtime_memory::Metric::Memory) {
        t.print();
    }
    for t in runtime_memory::run(&sc_hfm, &s, runtime_memory::Metric::Memory) {
        t.print();
    }
    println!("### Scalability in #sequences (Figs 11/12/21/22) ###");
    for t in scalability::run(&all, &s, scalability::ScaleAxis::Sequences) {
        t.print();
    }
    println!("### Scalability in #time series (Figs 13/14/23/24) ###");
    for t in scalability::run(&all, &s, scalability::ScaleAxis::Series) {
        t.print();
    }
    println!("### Pruning ablation (Figs 15/16/25/26) ###");
    for t in ablation::run(&all, &s) {
        t.print();
    }
}
