//! `bench5` — the signal-transport/flat-schedule benchmark behind
//! `BENCH_5.json`: cycles-per-wall-second on the standard workloads, in
//! release mode, with `Gpu::run_trace` alone inside the timed region.
//!
//! Two-phase use, so before/after numbers for a refactor come from the
//! same harness:
//!
//! ```sh
//! # on the old tree: record the "before" numbers
//! cargo run --release -p attila-bench --bin bench5 -- --out before.json
//! # on the new tree: measure again and merge the baseline in
//! cargo run --release -p attila-bench --bin bench5 -- \
//!     --baseline before.json --out BENCH_5.json
//! ```
//!
//! Without `--baseline`, the report's `before` mirrors `after` (ratio 1).

use std::time::Instant;

use attila_bench::bench_grid;
use attila_core::config::GpuConfig;
use attila_core::gpu::Gpu;
use attila_gl::workloads::{self, WorkloadParams};
use attila_gl::{compile, GlTrace};
use attila_json::Json;

/// One measured workload: `(name, cycles, best seconds per pass)`.
struct Measurement {
    name: &'static str,
    cycles: u64,
    secs: f64,
}

fn standard_workloads(full: bool) -> Vec<(&'static str, GlTrace)> {
    let p = if full {
        WorkloadParams { width: 160, height: 120, frames: 2, texture_size: 256, ..Default::default() }
    } else {
        WorkloadParams { width: 96, height: 96, frames: 1, texture_size: 128, ..Default::default() }
    };
    vec![
        ("quickstart", workloads::quickstart_trace(p.width, p.height)),
        ("doom3", workloads::doom3_like(p)),
        ("fillrate", workloads::fillrate(p.width, p.height, 4, true)),
        (
            "texture_stream",
            workloads::texture_stream(WorkloadParams {
                frames: if full { 4 } else { 3 },
                ..p
            }),
        ),
    ]
}

/// Times `run_trace` for one workload: one untimed warm-up pass plus
/// `samples` timed passes; returns the cycle count and the best pass.
fn measure(trace: &GlTrace, samples: u32) -> (u64, f64) {
    let mut config = GpuConfig::baseline();
    config.display.width = trace.width;
    config.display.height = trace.height;
    let commands = compile(trace.width, trace.height, &trace.calls).expect("trace compiles");
    let mut best = f64::INFINITY;
    let mut cycles = 0;
    for i in 0..=samples {
        let mut gpu = Gpu::new(config.clone());
        gpu.max_cycles = 2_000_000_000;
        gpu.keep_frames = false;
        let start = Instant::now();
        let result = gpu.run_trace(&commands).expect("simulation drains");
        let elapsed = start.elapsed().as_secs_f64();
        cycles = result.cycles;
        if i > 0 {
            best = best.min(elapsed);
        }
    }
    (cycles, best)
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn load_baseline(path: &str) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let json = attila_json::parse(&text).expect("baseline parses");
    let mut out = Vec::new();
    if let Some(Json::Arr(rows)) = json.get("workloads") {
        for row in rows {
            let (Some(name), Some(cps)) = (
                row.get("name").and_then(Json::as_str),
                row.get("after_cycles_per_sec").and_then(Json::as_f64),
            ) else {
                continue;
            };
            out.push((name.to_string(), cps));
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_5.json");
    let mut baseline_path: Option<String> = None;
    let mut samples = 3u32;
    let mut full = false;
    let mut workers_arg: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().expect("--out needs a value").clone(),
            "--baseline" => baseline_path = Some(it.next().expect("--baseline needs a value").clone()),
            "--samples" => samples = it.next().expect("--samples needs a value").parse().unwrap(),
            "--full" => full = true,
            "--workers" => {
                workers_arg =
                    Some(it.next().expect("--workers needs a value").parse().expect("--workers"))
            }
            other => panic!("unknown argument `{other}`"),
        }
    }
    let baseline = baseline_path.as_deref().map(load_baseline).unwrap_or_default();

    let mut rows = Vec::new();
    let mut measurements = Vec::new();
    for (name, trace) in standard_workloads(full) {
        let (cycles, secs) = measure(&trace, samples);
        println!("{name:<16} {cycles:>9} cycles  {:>8.2} ms  {:>7.2} Mcyc/s", secs * 1e3, cycles as f64 / secs / 1e6);
        measurements.push(Measurement { name, cycles, secs });
    }
    for m in &measurements {
        let after = m.cycles as f64 / m.secs;
        let before = baseline
            .iter()
            .find(|(n, _)| n == m.name)
            .map(|&(_, cps)| cps)
            .unwrap_or(after);
        let row = vec![
            ("name".into(), Json::Str(m.name.into())),
            ("cycles".into(), num(m.cycles as f64)),
            ("best_pass_secs".into(), num(m.secs)),
            ("before_cycles_per_sec".into(), num(before)),
            ("after_cycles_per_sec".into(), num(after)),
            ("speedup".into(), num(after / before)),
        ];
        rows.push(Json::Obj(row));
        println!(
            "{:<16} before {:>9.0} cyc/s  after {:>9.0} cyc/s  speedup {:>5.2}x",
            m.name,
            before,
            after,
            (m.cycles as f64 / m.secs) / before
        );
    }

    // Sweep scaling: the same 8-config grid run serially and across the
    // thread-pool sweep harness. On a single-core box the ratio is ~1 by
    // construction; the report records the worker count alongside.
    // `--workers` pins the pool size so multi-core scaling numbers are
    // reproducible regardless of the measuring machine's core count.
    let workers = workers_arg
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
    let sweep = bench_grid(full, workers);
    println!(
        "sweep: {} configs  serial {:.2}s  parallel({} workers) {:.2}s  scaling {:.2}x",
        sweep.configs, sweep.serial_secs, workers, sweep.parallel_secs, sweep.scaling()
    );

    let report = Json::Obj(vec![
        (
            "bench".into(),
            Json::Str("zero-allocation signal transport + flat clock schedule".into()),
        ),
        ("mode".into(), Json::Str(if full { "full" } else { "quick" }.into())),
        ("samples".into(), num(f64::from(samples))),
        ("workloads".into(), Json::Arr(rows)),
        (
            "sweep".into(),
            Json::Obj(vec![
                ("configs".into(), num(sweep.configs as f64)),
                ("workers".into(), num(workers as f64)),
                (
                    // Scaling is only meaningful relative to the cores
                    // that were actually available to the pool.
                    "host_cores".into(),
                    num(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) as f64),
                ),
                ("serial_secs".into(), num(sweep.serial_secs)),
                ("parallel_secs".into(), num(sweep.parallel_secs)),
                ("scaling".into(), num(sweep.scaling())),
            ]),
        ),
    ]);
    std::fs::write(&out_path, report.pretty()).expect("write report");
    println!("report -> {out_path}");
}
