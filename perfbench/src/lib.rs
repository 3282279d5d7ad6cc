//! The ATTILA performance benchmark: end-to-end host-time metrics per
//! workload, per-layer metrics from a separate traced run, a correctness
//! gate on every pass and a fingerprint of the simulated model.
//!
//! One process runs one workload. See `NOTES.md` beside this crate for
//! why each workload exists and which end-to-end metric each layer
//! metric should move.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use attila_core::checkpoint::Checkpoint;
use attila_core::commands::GpuCommand;
use attila_core::config::GpuConfig;
use attila_core::gpu::Gpu;
use attila_gl::GlTrace;
use attila_json::Json;

pub mod hostspeed;
pub mod scene;
pub mod serve_ckpt;
pub mod trace;

/// The workloads, by the names the command line takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Doom3,
    TextureStream,
    ServeCkpt,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Doom3,
        Workload::TextureStream,
        Workload::ServeCkpt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Doom3 => "doom3",
            Workload::TextureStream => "texture_stream",
            Workload::ServeCkpt => "serve_ckpt",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How many times this workload's log host time moves for each move
    /// of the host-speed probe's, fitted over sets of 10 runs of 35 s on
    /// the 2-core tuning host. The single-threaded simulations moved
    /// 1.6–2.2 times as much as the probe (2.15 over 30 s windows of a
    /// `doom3` frame loop, correlation 0.97). `serve_ckpt`, two threads
    /// with much of its time in checkpoint JSON and file writes, moved
    /// 1.0–1.3 times.
    pub fn host_sensitivity(self) -> i32 {
        match self {
            Workload::Doom3 | Workload::TextureStream => 2,
            Workload::ServeCkpt => 1,
        }
    }
}

/// Input scale: `Full` is the benchmark, `Tiny` the smoke-test size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// One benchmark run, as the command line asked for it.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Measuring time; the run still completes [`MIN_PASSES`] passes.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub size: Size,
    /// Corrupts every expected frame hash and cycle count, so the
    /// benchmark's tests can prove a wrong result is counted as a failed
    /// operation rather than crashing the run.
    pub wrong_expectation: bool,
    /// Where the traced run writes its spans and serve passes their
    /// checkpoint work dirs.
    pub out_dir: PathBuf,
}

/// Passes every run completes, however short `--seconds` is.
pub const MIN_PASSES: u32 = 2;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports: correctness counts, metrics, and a free-form
/// report (model fingerprint, host, raw samples) printed beside them.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub report: Vec<(String, Json)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// Runs one workload as `opts` asks.
pub fn run(opts: &Options) -> Outcome {
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("cannot create {}: {e}", opts.out_dir.display());
    }
    let mut outcome = match opts.workload {
        Workload::Doom3 | Workload::TextureStream => scene::run(opts),
        Workload::ServeCkpt => serve_ckpt::run(opts),
    };
    if !opts.trace {
        outcome.metrics.push(Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MB",
        });
    }
    let mut head = vec![
        (
            "workload".to_string(),
            Json::Str(opts.workload.name().into()),
        ),
        ("seed".to_string(), Json::Num(opts.seed as f64)),
        (
            "mode".to_string(),
            Json::Str(if opts.trace { "traced" } else { "untraced" }.into()),
        ),
        ("host_cores".to_string(), Json::Num(host_cores() as f64)),
        (
            "model_validated_against_hardware".to_string(),
            Json::Bool(false),
        ),
    ];
    head.append(&mut outcome.report);
    outcome.report = head;
    outcome
}

/// Cores the host offers this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The process's peak resident set (`VmHWM`) in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Derives an independent input seed for stream `stream` of run seed
/// `seed` (SplitMix64 finaliser), so every pass and job gets its own
/// content while the same `--seed` always gives the same inputs.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over 64-bit words.
pub fn fnv(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a over a byte string.
pub fn fnv_bytes(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The model fingerprint of a finished machine: every `Gpu::stats()`
/// total (by sorted name), the DRAM row counters and the cycle count,
/// folded into `hash`. A change that moves any simulated count moves it.
pub fn fingerprint(hash: u64, gpu: &Gpu) -> u64 {
    let stats = gpu.stats();
    let mut h = hash;
    for name in stats.names() {
        h = fnv(h, fnv_bytes(name.as_bytes()));
        h = fnv(h, stats.total(name).unwrap_or(0.0).to_bits());
    }
    let mem = gpu.memory();
    for v in [
        mem.row_hits(),
        mem.row_misses(),
        mem.row_conflicts(),
        mem.turnarounds(),
        gpu.cycle(),
    ] {
        h = fnv(h, v);
    }
    h
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Per-pass samples of named metrics, reduced to medians at the end.
#[derive(Debug, Default)]
pub struct Samples {
    by_name: BTreeMap<&'static str, Vec<f64>>,
}

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.by_name.entry(name).or_default().push(value);
    }

    /// The median of every metric in `names`, in that order; a metric
    /// with no samples reports 0.
    pub fn medians(&self, names: &[(&'static str, &'static str)]) -> Vec<Metric> {
        names
            .iter()
            .map(|&(name, unit)| {
                let value = self.by_name.get(name).map_or(0.0, |v| median(v));
                Metric { name, value, unit }
            })
            .collect()
    }

    /// Records one pass's end-to-end figures, scaled to the nominal host
    /// by the host-speed probe taken beside the pass (see [`hostspeed`]).
    /// The figures as measured and the probe go in as `raw.*` and
    /// `host.probe_s` samples.
    pub fn push_pass(&mut self, workload: Workload, probe_s: f64, pass: &PassTimes) {
        let f = hostspeed::factor(probe_s, workload.host_sensitivity());
        let sim_rate = pass.cycles as f64 / pass.sim_s;
        let job_rate = pass.jobs / pass.jobs_s;
        self.push("host.probe_s", probe_s);
        self.push("raw.sim_cycles_per_s", sim_rate);
        self.push("raw.wall_s", pass.wall_s);
        self.push("raw.setup_s", pass.setup_s);
        self.push("raw.jobs_per_s", job_rate);
        self.push("sim_cycles_per_s", sim_rate / f);
        self.push("wall_s", pass.wall_s * f);
        self.push("setup_s", pass.setup_s * f);
        self.push("jobs_per_s", job_rate / f);
    }

    /// Every sample, for the report line.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.by_name
                .iter()
                .map(|(name, values)| {
                    (
                        name.to_string(),
                        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                    )
                })
                .collect(),
        )
    }
}

/// One pass's end-to-end figures, as measured.
#[derive(Debug, Clone, Copy)]
pub struct PassTimes {
    /// Simulated cycles.
    pub cycles: u64,
    /// Host seconds the simulated cycles took.
    pub sim_s: f64,
    pub setup_s: f64,
    pub wall_s: f64,
    /// Jobs completed.
    pub jobs: f64,
    /// Host seconds the jobs took.
    pub jobs_s: f64,
}

/// The end-to-end metrics, with units, in report order. Each is the
/// median over the run's passes of the figure scaled to the nominal host.
pub const END_TO_END: [(&str, &str); 4] = [
    ("sim_cycles_per_s", "1/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
];

/// Per-layer timings the traced run reports from its spans, as
/// `(metric, span name)`; every one is in seconds.
pub const LAYER_TIMES: [(&str, &str); 8] = [
    ("gl.generate_s", "gl.generate"),
    ("gl.compile_s", "gl.compile"),
    ("core.elaborate_s", "core.elaborate"),
    ("core.run_trace_s", "core.run_trace"),
    ("checkpoint.capture_s", "checkpoint.capture"),
    ("checkpoint.write_s", "checkpoint.write"),
    ("checkpoint.read_s", "checkpoint.read"),
    ("checkpoint.restore_s", "checkpoint.restore"),
];

/// Per-layer metrics measured beside the span times, in report order.
/// The `serve.*` metrics stay 0 on the workloads that never serve.
pub const LAYER_EXTRA: [(&str, &str); 10] = [
    ("core.host_ns_per_clocked_cycle", "ns"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.overhead_share", "share"),
    ("serve.jobs_completed", "count"),
    ("serve.retries", "count"),
    ("serve.resumed", "count"),
    ("serve.quarantined", "count"),
    ("serve.worker_busy_share", "share"),
    ("trace.overhead_share", "share"),
    ("trace.span_ns", "ns"),
];

/// The baseline machine, sized to the trace's render target.
pub fn config_for(trace: &GlTrace) -> GpuConfig {
    let mut config = GpuConfig::baseline();
    config.display.width = trace.width;
    config.display.height = trace.height;
    config
}

/// Exact model counts gathered from finished machines, summed over every
/// machine a workload ran (one scene, or every serve job).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub commands: u64,
    pub cycles: u64,
    pub skipped: u64,
    pub shader_instructions: u64,
    pub shader_busy: u64,
    pub shader_slots: u64,
    pub bilinear_samples: u64,
    pub texunit_busy: u64,
    pub texunit_slots: u64,
    pub texcache_hits: u64,
    pub texcache_misses: u64,
    pub z_tested: u64,
    pub z_passed: u64,
    pub hz_tiles: u64,
    pub hz_tiles_rejected: u64,
    pub fragments_written: u64,
    pub signal_writes: u64,
    pub upload_bytes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub row_hits: u64,
    pub row_misses: u64,
    pub row_conflicts: u64,
    pub turnarounds: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Counters {
    /// Reads the counters of a machine that ran `commands` commands from
    /// cycle 0.
    pub fn of(gpu: &Gpu, commands: usize) -> Counters {
        let stats = gpu.stats();
        let sum = |suffix: &str| -> u64 {
            stats
                .names()
                .into_iter()
                .filter(|n| n.ends_with(suffix))
                .map(|n| stats.total(n).unwrap_or(0.0) as u64)
                .sum()
        };
        let stat = |name: &str| stats.total(name).unwrap_or(0.0) as u64;
        let cycles = gpu.cycle();
        let shader = gpu.shader_busy_cycles();
        let texunit = gpu.texture_busy_cycles();
        let (texcache_hits, texcache_misses, _) = gpu.texture_cache_stats();
        let mem = gpu.memory();
        Counters {
            commands: commands as u64,
            cycles,
            skipped: gpu.cycles_skipped(),
            shader_instructions: sum(".instructions"),
            shader_busy: shader.iter().sum(),
            shader_slots: shader.len() as u64 * cycles,
            bilinear_samples: sum(".bilinear_samples"),
            texunit_busy: texunit.iter().sum(),
            texunit_slots: texunit.len() as u64 * cycles,
            texcache_hits,
            texcache_misses,
            z_tested: sum(".fragments_tested"),
            z_passed: sum(".fragments_passed"),
            hz_tiles: stat("HZ.tiles"),
            hz_tiles_rejected: stat("HZ.tiles_rejected"),
            fragments_written: sum(".fragments_written"),
            signal_writes: gpu.binder().statuses().iter().map(|s| s.written).sum(),
            upload_bytes: stat("CommandProcessor.upload_bytes"),
            bytes_read: mem.bytes_read(),
            bytes_written: mem.bytes_written(),
            row_hits: mem.row_hits(),
            row_misses: mem.row_misses(),
            row_conflicts: mem.row_conflicts(),
            turnarounds: mem.turnarounds(),
        }
    }

    pub fn add(&mut self, o: &Counters) {
        self.commands += o.commands;
        self.cycles += o.cycles;
        self.skipped += o.skipped;
        self.shader_instructions += o.shader_instructions;
        self.shader_busy += o.shader_busy;
        self.shader_slots += o.shader_slots;
        self.bilinear_samples += o.bilinear_samples;
        self.texunit_busy += o.texunit_busy;
        self.texunit_slots += o.texunit_slots;
        self.texcache_hits += o.texcache_hits;
        self.texcache_misses += o.texcache_misses;
        self.z_tested += o.z_tested;
        self.z_passed += o.z_passed;
        self.hz_tiles += o.hz_tiles;
        self.hz_tiles_rejected += o.hz_tiles_rejected;
        self.fragments_written += o.fragments_written;
        self.signal_writes += o.signal_writes;
        self.upload_bytes += o.upload_bytes;
        self.bytes_read += o.bytes_read;
        self.bytes_written += o.bytes_written;
        self.row_hits += o.row_hits;
        self.row_misses += o.row_misses;
        self.row_conflicts += o.row_conflicts;
        self.turnarounds += o.turnarounds;
    }

    /// Host nanoseconds per cycle the clock loop actually clocked (idle
    /// skip jumps the rest).
    pub fn ns_per_clocked_cycle(&self, run_trace_s: f64) -> f64 {
        run_trace_s * 1e9 / (self.cycles - self.skipped).max(1) as f64
    }

    /// The per-layer model counts and ratios.
    pub fn metrics(&self) -> Vec<Metric> {
        let m = |name, value, unit| Metric { name, value, unit };
        let row_accesses = self.row_hits + self.row_misses + self.row_conflicts;
        vec![
            m("core.sim_cycles", self.cycles as f64, "cycles"),
            m("gl.commands", self.commands as f64, "count"),
            m(
                "emu.shader.instructions",
                self.shader_instructions as f64,
                "count",
            ),
            m(
                "core.shader.busy_share",
                ratio(self.shader_busy, self.shader_slots),
                "share",
            ),
            m(
                "emu.texture.bilinear_samples",
                self.bilinear_samples as f64,
                "count",
            ),
            m(
                "core.texunit.busy_share",
                ratio(self.texunit_busy, self.texunit_slots),
                "share",
            ),
            m(
                "mem.texcache.hit_share",
                ratio(
                    self.texcache_hits,
                    self.texcache_hits + self.texcache_misses,
                ),
                "share",
            ),
            m(
                "core.zstencil.pass_share",
                ratio(self.z_passed, self.z_tested),
                "share",
            ),
            m(
                "core.hz.cull_share",
                ratio(self.hz_tiles_rejected, self.hz_tiles),
                "share",
            ),
            m(
                "core.colorwrite.fragments_written",
                self.fragments_written as f64,
                "count",
            ),
            m("sim.signal_writes", self.signal_writes as f64, "count"),
            m("sim.cycles_skipped", self.skipped as f64, "cycles"),
            m("sim.skip_share", ratio(self.skipped, self.cycles), "share"),
            m("core.cp.upload_bytes", self.upload_bytes as f64, "bytes"),
            m("mem.bytes_read", self.bytes_read as f64, "bytes"),
            m("mem.bytes_written", self.bytes_written as f64, "bytes"),
            m(
                "mem.row_hit_share",
                ratio(self.row_hits, row_accesses),
                "share",
            ),
            m("mem.row_conflicts", self.row_conflicts as f64, "count"),
            m("mem.turnarounds", self.turnarounds as f64, "count"),
        ]
    }
}

/// Per-layer self times of every traced pass, reduced to medians over
/// passes, plus the full self-time table for the report line.
pub fn layer_times(tracer: &trace::Tracer) -> (Samples, Json) {
    let self_times = tracer.self_times();
    let mut per_pass: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for (&(pass, name), &secs) in &self_times {
        per_pass.entry(pass).or_default().insert(name, secs);
    }
    let mut samples = Samples::default();
    let mut table: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for names in per_pass.values() {
        for (metric, span) in LAYER_TIMES {
            samples.push(metric, names.get(span).copied().unwrap_or(0.0));
        }
        for (&name, &secs) in names {
            table.entry(name).or_default().push(secs);
        }
    }
    let table = Json::Obj(
        table
            .into_iter()
            .map(|(name, v)| (name.to_string(), Json::Num(median(&v))))
            .collect(),
    );
    (samples, table)
}

/// Watchdog for every run: far beyond any workload here, so only a hang
/// trips it.
pub const WATCHDOG_CYCLES: u64 = 2_000_000_000;

/// Steps a drained machine until it is quiescent (checkpointable). A
/// finished run needs a cycle or two for credit returns to land.
fn settle(gpu: &mut Gpu) -> Result<(), String> {
    for _ in 0..100_000 {
        if gpu.quiescent() {
            return Ok(());
        }
        gpu.try_step()
            .map_err(|e| format!("settling after the run failed: {e}"))?;
    }
    Err("no quiescent point within 100000 cycles of the run's end".into())
}

/// What the checkpoint probe measured.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Host seconds of the run without checkpoints.
    pub plain_s: f64,
    /// Host seconds of the same run with `checkpoint_every` set.
    pub checkpointed_s: f64,
    /// Size of the end-state checkpoint file.
    pub bytes: u64,
}

impl Probe {
    /// The share of the checkpointed run that checkpointing cost.
    pub fn overhead_share(&self) -> f64 {
        (self.checkpointed_s - self.plain_s) / self.checkpointed_s
    }
}

/// The checkpoint layer, called from outside. Runs `commands` on a fresh
/// machine with `checkpoint_every = every` (writing to `path`), then takes
/// its quiescent end state through capture, write, read and restore and
/// checks the restored machine has the same fingerprint. `plain_s` is the
/// host time of the same run without checkpoints; when the caller has
/// not measured it, the probe runs it first.
pub fn checkpoint_probe(
    tracer: &mut trace::Tracer,
    config: &GpuConfig,
    commands: &[GpuCommand],
    every: u64,
    path: &Path,
    plain_s: Option<f64>,
) -> Result<Probe, String> {
    let fresh = || {
        let mut gpu = Gpu::new(config.clone());
        gpu.max_cycles = WATCHDOG_CYCLES;
        gpu.keep_frames = false;
        gpu
    };
    let plain_s = match plain_s {
        Some(secs) => secs,
        None => {
            let mut gpu = fresh();
            let (run, secs) = tracer.call("probe.run_trace", || gpu.run_trace(commands));
            run.map_err(|e| format!("plain run failed: {e}"))?;
            secs
        }
    };
    let mut gpu = fresh();
    gpu.checkpoint_every = Some(every.max(1));
    gpu.checkpoint_path = Some(path.to_path_buf());
    let (run, checkpointed_s) =
        tracer.call("probe.run_trace_checkpointed", || gpu.run_trace(commands));
    run.map_err(|e| format!("checkpointed run failed: {e}"))?;
    settle(&mut gpu)?;
    let (ckpt, _) = tracer.call("checkpoint.capture", || gpu.capture_checkpoint());
    let (written, _) = tracer.call("checkpoint.write", || ckpt.write_file(path));
    written.map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(path)
        .map_err(|e| format!("checkpoint file: {e}"))?
        .len();
    let (read, _) = tracer.call("checkpoint.read", || Checkpoint::read_file(path));
    let read = read.map_err(|e| e.to_string())?;
    let (restored, _) = tracer.call("checkpoint.restore", || {
        Gpu::restore(config.clone(), commands, &read, None)
    });
    let restored = restored.map_err(|e| format!("restore refused its own checkpoint: {e}"))?;
    let _ = std::fs::remove_file(path);
    if fingerprint(FNV_OFFSET, &restored) != fingerprint(FNV_OFFSET, &gpu) {
        return Err("the restored machine differs from the one checkpointed".into());
    }
    Ok(Probe {
        plain_s,
        checkpointed_s,
        bytes,
    })
}

/// Host nanoseconds one recorded span costs, from 10 000 empty calls.
pub fn span_cost_ns() -> f64 {
    const CALLS: u32 = 10_000;
    let mut tracer = trace::Tracer::new();
    tracer.set_recording(true);
    let clock = trace::Clock::start();
    for _ in 0..CALLS {
        tracer.call("empty", || ());
    }
    clock.secs() * 1e9 / f64::from(CALLS)
}

/// Turns a finished run's per-pass samples into its metrics: end-to-end
/// medians, or, traced, the model counts, the span self times and the
/// other per-layer medians. Adds the raw samples (and, traced, the
/// self-time table and the spans file) to `report`.
pub fn finish(
    opts: &Options,
    tracer: &trace::Tracer,
    counters: &Counters,
    mut samples: Samples,
    report: &mut Vec<(String, Json)>,
) -> Vec<Metric> {
    if !opts.trace {
        report.push(("samples".into(), samples.to_json()));
        return samples.medians(&END_TO_END);
    }
    samples.push("trace.span_ns", span_cost_ns());
    let (times, self_table) = layer_times(tracer);
    report.push(("self_time_s".into(), self_table));
    report.push(("samples".into(), samples.to_json()));
    report.push(("spans".into(), write_spans(opts, tracer)));
    let mut metrics = counters.metrics();
    metrics.extend(times.medians(&LAYER_TIMES.map(|(m, _)| (m, "s"))));
    metrics.extend(samples.medians(&LAYER_EXTRA));
    metrics
}

/// Writes the traced run's spans to `<out_dir>/spans-<workload>-<seed>.json`,
/// returning the path for the report (or the error text).
pub fn write_spans(opts: &Options, tracer: &trace::Tracer) -> Json {
    let path = opts
        .out_dir
        .join(format!("spans-{}-{}.json", opts.workload.name(), opts.seed));
    match tracer.write(&path) {
        Ok(()) => Json::Str(path.display().to_string()),
        Err(e) => Json::Str(format!("spans not written: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn sub_seeds_differ_per_stream_and_repeat_per_seed() {
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
        assert_eq!(sub_seed(7, 3), sub_seed(7, 3));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("quake"), None);
    }
}
