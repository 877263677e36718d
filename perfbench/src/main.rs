//! `perfbench` — the repository's benchmark: simulator cost, modelled
//! latency and paper fidelity, end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <scale4k|tenants|apps> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One process runs one workload. With `--trace 0` it repeats the
//! workload's pass (set-up + timed run) until `--seconds` have passed
//! and at least [`MIN_PASSES`] passes ran, then runs the output checks
//! outside the timed phase and prints every end-to-end metric. With
//! `--trace 1` it runs one untraced pass, one traced pass and the
//! workload's layer probes, and prints every per-layer metric. The last
//! stdout line is one JSON object `{correct, attempted, failed, metrics}`.
//! See `METRICS.md` for every metric's definition.

mod apps;
mod scale4k;
mod stats;
mod tenants;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;
/// Fewest timed passes in an end-to-end run, so that host times are
/// medians.
pub const MIN_PASSES: usize = 3;

/// A named value with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run measured and what failed.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<String, (f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, for stderr.
    pub failures: Vec<String>,
}

impl Report {
    /// Record a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// Count `ops` operations, `failed` of which failed for `why`.
    pub fn ops(&mut self, ops: u64, failed: u64, why: impl FnOnce() -> String) {
        self.attempted += ops;
        if failed > 0 {
            self.failed += failed;
            self.failures.push(why());
        }
    }
}

/// One pass of a workload.
pub struct Pass {
    /// Host seconds of set-up.
    pub setup_s: f64,
    /// Host seconds from the end of set-up to the last result.
    pub run_s: f64,
    /// Virtual latency of every operation, in nanoseconds, in a fixed
    /// order: the determinism check compares these bit for bit.
    pub op_vt_ns: Vec<u64>,
    /// Operations attempted and failed in the pass.
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed.
    pub failures: Vec<String>,
}

/// A benchmark workload.
pub trait Workload {
    /// Fewest passes an end-to-end run makes.
    fn min_passes(&self) -> usize {
        MIN_PASSES
    }
    /// One pass: set-up and the timed run. Records spans when the trace
    /// recorder is armed; keeps whatever the layer metrics need.
    fn pass(&mut self) -> Pass;
    /// The workload's headline numbers of the last pass (printed on
    /// every run, reported as per-layer metrics on traced runs).
    fn headline(&self) -> Vec<Metric>;
    /// Per-layer metrics of the traced pass plus the workload's layer
    /// probes (extra sub-runs with their own set-up).
    fn layers(&mut self, rep: &mut Report);
    /// Output checks, outside the timed phase.
    fn check(&mut self, rep: &mut Report);
}

/// Run `f`, turning a panic (a failed simulation) into an error.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())
    })
}

/// End-to-end metric names and units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("vt_gm_us", "virtual_us"),
    ("vt_p50_us", "virtual_us"),
    ("vt_p95_us", "virtual_us"),
];

/// Per-layer metric names and units, in `BENCHMARK.json` order. A
/// traced run reports every one; a layer or cell its workload does not
/// exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: String, u: &'static str| v.push((n, u));
    for (n, u) in [
        ("sim.entries", "count"),
        ("sim.loop_s", "s"),
        ("sim.us_per_entry", "us"),
        ("sim.coalesced_chunks", "count"),
        ("sim.spawn_s", "s"),
        ("sim.handoff_s", "s"),
        ("sim.qos.high_p50_us", "virtual_us"),
        ("sim.qos.normal_p50_us", "virtual_us"),
        ("sim.qos.low_p50_us", "virtual_us"),
        ("sim.qos.high_slowdown", "x"),
        ("device.build_s", "s"),
    ] {
        add(n.into(), u);
    }
    for c in apps::CELLS {
        add(format!("device.kernel_us.{}", c.tag()), "virtual_us");
    }
    for c in apps::CELLS {
        add(format!("device.compute_share.{}", c.tag()), "ratio");
    }
    add("fabric.world_build_s".into(), "s");
    for b in apps::probe_sizes() {
        add(format!("fabric.put_us.gasnet.{b}"), "virtual_us");
    }
    for b in apps::probe_sizes() {
        add(format!("fabric.put_us.gpi.{b}"), "virtual_us");
    }
    for b in apps::probe_sizes() {
        add(format!("fabric.mpi_p2p_us.{b}"), "virtual_us");
    }
    add("fabric.wire_gb".into(), "GB");
    add("xccl.init_s".into(), "s");
    for (suffix, unit) in [("vt_us", "virtual_us"), ("host_s", "s"), ("regret", "x")] {
        for c in scale4k::CELLS {
            add(format!("xccl.{}.{suffix}", c.name), unit);
        }
    }
    for (n, u) in [
        ("xccl.rserver_p50_us", "virtual_us"),
        ("xccl.coll_gm_us", "virtual_us"),
        ("xccl.coll_p50_us", "virtual_us"),
        ("xccl.coll_p99_us", "virtual_us"),
        ("xccl.coll_samples", "count"),
        ("xccl.high_p95_us", "virtual_us"),
        ("xccl.goodput_gbps", "virtual_GB/s"),
    ] {
        add(n.into(), u);
    }
    for b in apps::probe_sizes() {
        add(format!("core.put_us.{b}"), "virtual_us");
    }
    for c in apps::CELLS {
        for imp in apps::Impl::ALL {
            add(format!("apps.{}.{}_ms", c.tag(), imp.tag()), "virtual_ms");
        }
    }
    for (n, u) in [
        ("apps.matmul_speedup", "x"),
        ("apps.minimod_speedup", "x"),
        ("apps.diomp_over_mpi", "x"),
        ("apps.paper_gap", "ln"),
        ("trace_overhead", "x"),
    ] {
        add(n.into(), u);
    }
    v
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <scale4k|tenants|apps> [--seed N] [--seconds N] \
                     [--trace 0|1]\n  --seed defaults to 1; seed 20261017 is held out for \
                     confirming later claims";

fn parse_args() -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 30, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// `nproc`, CPU model and build profile: wall-clock numbers name their
/// machine.
fn machine_stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!("nproc={nproc} cpu=\"{cpu}\" profile={profile}")
}

/// The process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fold a pass's operation counts into the report, and check that its
/// virtual latencies equal the reference pass's bit for bit.
fn account(rep: &mut Report, pass: &Pass, reference: &Pass, what: &str) {
    rep.attempted += pass.attempted;
    rep.failed += pass.failed;
    rep.failures.extend(pass.failures.iter().cloned());
    if pass.failed == 0 && reference.failed == 0 && pass.op_vt_ns != reference.op_vt_ns {
        rep.failed += pass.attempted;
        rep.failures.push(format!("{what}: virtual latencies differ from the first pass"));
    }
}

/// The end-to-end metrics of a set of passes.
fn end_to_end(rep: &mut Report, passes: &[Pass], peak_rss_mb: f64) {
    let setup: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let run: Vec<f64> = passes.iter().map(|p| p.run_s).collect();
    rep.put("setup_s", stats::median(&setup), "s");
    // Printed, not gated: see METRICS.md.
    println!("run_s = {} s (median over passes)", stats::median(&run));
    rep.put("peak_rss_mb", peak_rss_mb, "MiB");
    let vt: Vec<f64> = passes[0].op_vt_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    if vt.is_empty() || vt.iter().any(|&v| v <= 0.0) {
        rep.failed += 1;
        rep.failures.push("no complete pass to take virtual latencies from".into());
        return;
    }
    let s = stats::sorted(&vt);
    rep.put("vt_gm_us", stats::geomean(&vt), "virtual_us");
    rep.put("vt_p50_us", stats::percentile(&s, 50.0), "virtual_us");
    rep.put("vt_p95_us", stats::percentile(&s, 95.0), "virtual_us");
}

fn run(args: &Args) -> Result<Report, String> {
    let mut w: Box<dyn Workload> = match args.workload.as_str() {
        "scale4k" => Box::new(scale4k::Scale4k::new(args.seed)),
        "tenants" => Box::new(tenants::Tenants::new(args.seed)),
        "apps" => Box::new(apps::Apps::new(args.seed)),
        w => return Err(format!("unknown workload {w}")),
    };
    let mut rep = Report::default();
    let start = Instant::now();
    if !args.trace {
        let mut passes = vec![w.pass()];
        // One pass's peak: later passes only add allocator slack.
        let peak = peak_rss_mb();
        while passes.len() < w.min_passes() || start.elapsed().as_secs() < args.seconds {
            passes.push(w.pass());
        }
        for (i, p) in passes.iter().enumerate() {
            println!("pass {i}: setup_s = {} run_s = {}", p.setup_s, p.run_s);
            account(&mut rep, p, &passes[0], &format!("pass {i}"));
        }
        println!("{} passes in {:.1} s", passes.len(), start.elapsed().as_secs_f64());
        end_to_end(&mut rep, &passes, peak);
        w.check(&mut rep);
        let fail_ratio = rep.failed as f64 / rep.attempted.max(1) as f64;
        println!("fail_ratio = {fail_ratio} ({} of {})", rep.failed, rep.attempted);
        for m in w.headline() {
            println!("{} = {} {}", m.name, m.value, m.unit);
        }
    } else {
        let base = w.pass();
        account(&mut rep, &base, &base, "untraced pass");
        trace::arm();
        let traced = w.pass();
        account(&mut rep, &traced, &base, "traced pass");
        let host = |p: &Pass| p.setup_s + p.run_s;
        rep.put("trace_overhead", host(&traced) / host(&base), "x");
        for m in w.headline() {
            rep.put(m.name, m.value, m.unit);
        }
        // The layer probes' sub-runs are traced too.
        w.layers(&mut rep);
        trace::disarm();
        w.check(&mut rep);
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, trace::to_chrome_json(&machine_stamp())))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("{} spans written to {}", trace::count(), path.display());
    }
    Ok(rep)
}

/// The result line: one JSON object `{correct, attempted, failed,
/// metrics}` holding every metric of the
/// mode's list, in list order.
fn result_line(rep: &mut Report, names: &[(String, &'static str)]) -> String {
    for name in rep.metrics.keys() {
        assert!(names.iter().any(|(n, _)| n == name), "metric {name} is not in the list");
    }
    let mut body = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let mut value = rep.metrics.get(name).map_or(0.0, |m| m.0);
        if !value.is_finite() {
            rep.failed += 1;
            rep.failures.push(format!("{name} is not finite"));
            value = 0.0;
        }
        println!("{name} = {value} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            trace::json_str(name),
            trace::json_str(unit)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        rep.failed == 0,
        rep.attempted.max(1),
        rep.failed
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!("# machine: {}", machine_stamp());
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut rep = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let names: Vec<(String, &'static str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let line = result_line(&mut rep, &names);
    for f in &rep.failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_lists_are_well_formed_and_unique() {
        let mut all: Vec<(String, &str)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect();
        all.extend(per_layer());
        assert!(per_layer().len() <= 128);
        let mut seen = std::collections::HashSet::new();
        for (n, u) in &all {
            assert!(valid_name(n), "bad metric name {n}");
            assert!(valid_unit(u), "bad unit {u} of {n}");
            assert!(seen.insert(n.clone()), "duplicate metric {n}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let listed: Vec<&str> = text
            .split("\"name\":")
            .skip(1)
            .map(|rest| rest.trim_start().trim_start_matches('"').split('"').next().unwrap())
            .collect();
        let mut want: Vec<String> = vec!["scale4k".into(), "tenants".into(), "apps".into()];
        want.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        want.extend(per_layer().into_iter().map(|(n, _)| n));
        assert_eq!(listed, want, "BENCHMARK.json and the metric lists disagree");
        for (n, u) in
            END_TO_END.iter().copied().chain(per_layer().iter().map(|(n, u)| (n.as_str(), *u)))
        {
            let entry = format!("\"name\": \"{n}\", \"unit\": \"{u}\"");
            assert!(text.contains(&entry), "BENCHMARK.json: {n} must have unit {u}");
        }
    }
}
