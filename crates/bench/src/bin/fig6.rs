//! Fig. 6 — collective latency heatmaps: `log10(t_MPI / t_DiOMP)` for
//! Broadcast (32 KB–64 MB) and AllReduce (128 KB–64 MB) on the paper's
//! three platforms (64 A100s, 64 GCDs, 16 GH200s). The DiOMP side runs
//! through the emergent chunk-pipelined ring engine by default; pass
//! `--profile` for the calibrated whole-collective curve fit (ablation)
//! or `--auto` for the transport autotuner's protocol-selecting engine
//! (the priced argmin over LL/tree, double binary tree and ring — the
//! configuration that reproduces the fitted small-size dips; the engine
//! it picks is printed per size).
//! `--json PATH` emits every cell — DiOMP µs with the run's
//! scheduler-entry count, MPI µs, and the log-ratio — as `BENCH_*.json`
//! records.

use diomp_apps::micro::{
    diomp_collective_full, fig6_nodes, fig6_pricing, log_ratio, mpi_collective, CollKind,
};
use diomp_bench::report::{json_path_from_args, BenchRecord};
use diomp_bench::{engine_label, mae, paper, print_ratio_row, sign_agreement, size_label};
use diomp_core::{CollEngine, Conduit, Tuner};
use diomp_sim::PlatformSpec;

/// Which DiOMP engine the run measures; `Auto` is derived per platform.
#[derive(Clone, Copy)]
enum EngineSel {
    Ring,
    Profile,
    Auto,
}

impl EngineSel {
    fn for_platform(self, platform: &PlatformSpec) -> CollEngine {
        match self {
            EngineSel::Ring => CollEngine::default(),
            EngineSel::Profile => CollEngine::Profile,
            EngineSel::Auto => Tuner::new(platform, Conduit::GasnetEx).coll_engine(),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_op(
    kind: CollKind,
    op_tag: &str,
    sizes: &[u64],
    sel: EngineSel,
    records: &mut Vec<BenchRecord>,
    refs: [(&str, &str, PlatformSpec, &[f64]); 3],
) {
    for (tag, name, platform, paper_row) in refs {
        let engine = sel.for_platform(&platform);
        let nodes = fig6_nodes(&platform);
        // Under --auto, show which engine the pricing model picks for
        // each size at this scale.
        if let CollEngine::Auto(_) = engine {
            let picks: Vec<String> = fig6_pricing(&platform, nodes, kind, sizes, &[])
                .iter()
                .zip(sizes)
                .map(|((e, _), &s)| format!("{} {}", size_label(s), engine_label(e)))
                .collect();
            println!("   [{tag}] auto picks: {}", picks.join(", "));
        }
        let mpi = mpi_collective(&platform, nodes, kind, sizes);
        let full = diomp_collective_full(&platform, nodes, kind, sizes, engine);
        let diomp: Vec<(u64, f64)> = full.iter().map(|&(s, us, _)| (s, us)).collect();
        let ratio = log_ratio(&mpi, &diomp);
        print_ratio_row(name, sizes, &ratio, paper_row);
        println!(
            "   sign agreement {:.0}%   MAE {:.2}",
            100.0 * sign_agreement(&ratio, paper_row),
            mae(&ratio, paper_row)
        );
        // Tag the DiOMP rows with the engine so ring and --profile
        // artifacts stay distinguishable side by side.
        let eng = match engine {
            CollEngine::Ring(_) => "diomp".to_string(),
            e => format!("diomp_{}", engine_label(&e)),
        };
        for (i, &(s, us, entries)) in full.iter().enumerate() {
            let sz = size_label(s);
            records.push(BenchRecord::with_entries(
                format!("fig6/{op_tag}_{tag}_{sz}/{eng}"),
                us,
                "us",
                entries,
            ));
            records.push(BenchRecord {
                name: format!("fig6/{op_tag}_{tag}_{sz}/mpi"),
                value: mpi[i].1,
                unit: "us".into(),
                entries_processed: None,
                sim_wall_ms: None,
            });
            records.push(BenchRecord {
                name: format!("fig6/{op_tag}_{tag}_{sz}/log_ratio"),
                value: ratio[i].1,
                unit: "log10".into(),
                entries_processed: None,
                sim_wall_ms: None,
            });
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = json_path_from_args(&args);
    let engine = if args.iter().any(|a| a == "--profile") {
        EngineSel::Profile
    } else if args.iter().any(|a| a == "--auto") {
        EngineSel::Auto
    } else {
        EngineSel::Ring
    };
    let mut records = Vec::new();
    println!("Fig. 6(a) Broadcast — log10(MPI/DiOMP), positive = DiOMP faster");
    run_op(
        CollKind::Broadcast,
        "bcast",
        &paper::FIG6_BCAST_SIZES,
        engine,
        &mut records,
        [
            (
                "A",
                "Slingshot 11 + A100 (64 GPUs)",
                PlatformSpec::platform_a(),
                &paper::FIG6_BCAST_A,
            ),
            ("C", "NDR IB + GH200 (16 GPUs)", PlatformSpec::platform_c(), &paper::FIG6_BCAST_C),
            (
                "B",
                "Slingshot 11 + MI250X (64 GCDs)",
                PlatformSpec::platform_b(),
                &paper::FIG6_BCAST_B,
            ),
        ],
    );
    println!("\nFig. 6(b) AllReduce(sum) — log10(MPI/DiOMP)");
    run_op(
        CollKind::AllReduce,
        "allred",
        &paper::FIG6_ALLRED_SIZES,
        engine,
        &mut records,
        [
            (
                "A",
                "Slingshot 11 + A100 (64 GPUs)",
                PlatformSpec::platform_a(),
                &paper::FIG6_ALLRED_A,
            ),
            ("C", "NDR IB + GH200 (16 GPUs)", PlatformSpec::platform_c(), &paper::FIG6_ALLRED_C),
            (
                "B",
                "Slingshot 11 + MI250X (64 GCDs)",
                PlatformSpec::platform_b(),
                &paper::FIG6_ALLRED_B,
            ),
        ],
    );
    diomp_bench::report::write_if_requested(json_path.as_deref(), &records);
}
