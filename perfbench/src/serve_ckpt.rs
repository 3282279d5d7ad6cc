//! `serve_ckpt`: `attila_core::serve::serve` over equal-size
//! `ut2004_like` jobs that checkpoint as they run.
//!
//! Every odd-numbered job gets a simulated-cycle budget that expires after
//! its first checkpoint, so its retry resumes through `try_resume` →
//! `Checkpoint::read_file` → `Gpu::restore`: the daemon reads checkpoints
//! as well as writing them. Budgets are chosen per job by a calibration
//! run before measuring, and every pass checks each job finished on the
//! cycle an uninterrupted direct run finishes on.

use std::path::{Path, PathBuf};

use attila_core::checkpoint::Checkpoint;
use attila_core::commands::GpuCommand;
use attila_core::config::GpuConfig;
use attila_core::gpu::{Gpu, GpuError};
use attila_core::serve::{serve, JobSpec, JobStatus, ServeConfig, ServeReport};
use attila_gl::workloads::{self, WorkloadParams};
use attila_gl::{compile, GlTrace};
use attila_json::Json;

use crate::hostspeed;
use crate::trace::{Clock, Tracer};
use crate::{
    checkpoint_probe, config_for, fingerprint, finish, fnv, median, sub_seed, Counters, Options,
    Outcome, PassTimes, Probe, Samples, Size, FNV_OFFSET, MIN_PASSES, WATCHDOG_CYCLES,
};

/// Serve workers: the host's 2 cores, never more.
pub const WORKERS: usize = 2;

/// Jobs per pass (a multiple of [`WORKERS`], so equal-size jobs leave no
/// worker idle at the end) and the checkpoint interval in cycles.
fn shape(size: Size) -> (usize, u64) {
    match size {
        Size::Full => (8, 60_000),
        Size::Tiny => (2, 2_000),
    }
}

/// The API trace of job `seed`.
fn job_trace(size: Size, seed: u64) -> GlTrace {
    let full = size == Size::Full;
    workloads::ut2004_like(WorkloadParams {
        width: if full { 160 } else { 48 },
        height: if full { 120 } else { 36 },
        frames: 2,
        texture_size: if full { 256 } else { 32 },
        seed,
        ..Default::default()
    })
}

/// A job as calibration fixed it.
#[derive(Debug, Clone)]
struct Plan {
    id: String,
    seed: u64,
    /// Final cycle of an uninterrupted direct run.
    cycles: u64,
    /// Cycle budget per attempt, for the jobs that must resume.
    budget: Option<u64>,
}

/// What calibrating one job found: its plan, its exact model counts and
/// its model fingerprint.
type Calibrated = Result<(Plan, Counters, u64), String>;

/// The job's compiled commands and machine configuration.
fn job_input(
    tracer: &mut Tracer,
    size: Size,
    seed: u64,
) -> Result<(GpuConfig, Vec<GpuCommand>, f64), String> {
    let (trace, generate_s) = tracer.call("gl.generate", || job_trace(size, seed));
    let (compiled, compile_s) = tracer.call("gl.compile", || {
        compile(trace.width, trace.height, &trace.calls)
    });
    let commands = compiled.map_err(|e| format!("trace does not compile: {e}"))?;
    Ok((config_for(&trace), commands, generate_s + compile_s))
}

/// A budget under which the job's first attempt expires after writing a
/// checkpoint and its retry, resuming from that checkpoint, finishes:
/// the checkpoint must lie more than `cycles - budget` into the run.
/// Tries the smallest budget first, so the retry wastes least.
fn pick_budget(
    config: &GpuConfig,
    commands: &[GpuCommand],
    cycles: u64,
    every: u64,
    path: &Path,
) -> Result<u64, String> {
    for eighths in [5, 6, 7] {
        let budget = cycles * eighths / 8;
        let _ = std::fs::remove_file(path);
        let mut gpu = Gpu::new(config.clone());
        gpu.max_cycles = budget;
        gpu.keep_frames = false;
        gpu.checkpoint_every = Some(every);
        gpu.checkpoint_path = Some(path.to_path_buf());
        match gpu.run_trace(commands) {
            Err(GpuError::Watchdog { .. }) => {}
            Ok(_) => return Err(format!("finished within a budget of {budget} cycles")),
            Err(e) => return Err(format!("budgeted run failed: {e}")),
        }
        let resume_from = Checkpoint::read_file(path).map(|c| c.body.cycle);
        let _ = std::fs::remove_file(path);
        if let Ok(from) = resume_from {
            if cycles - from < budget {
                return Ok(budget);
            }
        }
    }
    Err(format!(
        "no budget lets a retry resume and finish ({cycles} cycles, checkpoint every {every})"
    ))
}

/// Runs job `j` directly, uninterrupted, for its reference cycle count,
/// counts and fingerprint, and picks its budget when it must resume.
fn calibrate_job(opts: &Options, j: usize, dir: &Path) -> Calibrated {
    let (_, every) = shape(opts.size);
    let seed = sub_seed(opts.seed, j as u64);
    let (config, commands, _) = job_input(&mut Tracer::new(), opts.size, seed)?;
    let mut gpu = Gpu::new(config.clone());
    gpu.max_cycles = WATCHDOG_CYCLES;
    gpu.keep_frames = false;
    gpu.run_trace(&commands)
        .map_err(|e| format!("direct run failed: {e}"))?;
    let cycles = gpu.cycle();
    let id = format!("job{j:02}");
    let budget = if j % 2 == 1 {
        Some(pick_budget(
            &config,
            &commands,
            cycles,
            every,
            &dir.join(format!("{id}.ckpt")),
        )?)
    } else {
        None
    };
    let counters = Counters::of(&gpu, commands.len());
    Ok((
        Plan {
            id,
            seed,
            cycles,
            budget,
        },
        counters,
        fingerprint(FNV_OFFSET, &gpu),
    ))
}

/// Calibrates every job, spread over [`WORKERS`] threads.
fn calibrate(opts: &Options, dir: &Path) -> Vec<Calibrated> {
    let (jobs, _) = shape(opts.size);
    let _ = std::fs::create_dir_all(dir);
    let mut slots: Vec<Option<Calibrated>> = vec![None; jobs];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                scope.spawn(move || {
                    (w..jobs)
                        .step_by(WORKERS)
                        .map(|j| (j, calibrate_job(opts, j, dir)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (j, c) in handle.join().expect("calibration thread panicked") {
                slots[j] = Some(c);
            }
        }
    });
    let _ = std::fs::remove_dir_all(dir);
    slots
        .into_iter()
        .map(|c| c.expect("every job calibrated"))
        .collect()
}

/// One serve pass: build every job's input, then serve them all from a
/// fresh, empty work dir.
struct ServePass {
    setup_s: f64,
    serve_s: f64,
    report: ServeReport,
    specs: Vec<JobSpec>,
}

fn serve_pass(
    tracer: &mut Tracer,
    opts: &Options,
    plans: &[Plan],
    dir: &Path,
) -> Result<ServePass, String> {
    let (_, every) = shape(opts.size);
    let _ = std::fs::remove_dir_all(dir);
    let mut setup_s = 0.0;
    let mut specs = Vec::with_capacity(plans.len());
    for plan in plans {
        let (config, commands, secs) = job_input(tracer, opts.size, plan.seed)?;
        setup_s += secs;
        specs.push(JobSpec {
            max_cycles: plan.budget.unwrap_or(WATCHDOG_CYCLES),
            checkpoint_every: Some(every),
            ..JobSpec::new(plan.id.clone(), config, commands)
        });
    }
    let kept = if tracer.recording() {
        specs.clone()
    } else {
        Vec::new()
    };
    let config = ServeConfig {
        workers: WORKERS,
        retry_limit: 3,
        // No wall-clock sleep between a failed attempt and its retry.
        backoff_base_ms: 0,
        backoff_cap_ms: 0,
        work_dir: dir.to_path_buf(),
    };
    let (report, serve_s) = tracer.call("serve.serve", || serve(&config, specs));
    let _ = std::fs::remove_dir_all(dir);
    Ok(ServePass {
        setup_s,
        serve_s,
        report,
        specs: kept,
    })
}

/// The correctness gate: every job completed on its reference cycle
/// (deliberately off by one when `wrong` is set), and exactly the
/// budgeted jobs resumed from a checkpoint. Returns one error per failed
/// job.
fn check_jobs(report: &ServeReport, plans: &[Plan], wrong: bool) -> Vec<String> {
    let mut errors = Vec::new();
    for plan in plans {
        let Some(result) = report.results.iter().find(|r| r.id == plan.id) else {
            errors.push(format!("{}: missing from the serve report", plan.id));
            continue;
        };
        let mut problems = Vec::new();
        let expected = plan.cycles + u64::from(wrong);
        match &result.status {
            JobStatus::Completed { cycles, .. } if *cycles != expected => {
                problems.push(format!("finished at cycle {cycles}, expected {expected}"));
            }
            JobStatus::Completed { .. } => {}
            JobStatus::Quarantined { signature, .. } => {
                problems.push(format!("quarantined: {signature}"));
            }
        }
        let want_resumed = u32::from(plan.budget.is_some());
        if result.resumed != want_resumed {
            problems.push(format!(
                "resumed {} times, expected {want_resumed}",
                result.resumed
            ));
        }
        if !problems.is_empty() {
            errors.push(format!("{}: {}", plan.id, problems.join("; ")));
        }
    }
    errors
}

/// The traced pass's direct replay of every job: an uncheckpointed run,
/// then the checkpoint probe. Returns the probes summed over the jobs
/// (with the median checkpoint size) and one error per failed job.
fn replay(
    tracer: &mut Tracer,
    opts: &Options,
    plans: &[Plan],
    specs: &[JobSpec],
) -> (Probe, Vec<String>) {
    let (_, every) = shape(opts.size);
    let path = opts
        .out_dir
        .join(format!("probe-serve_ckpt-{}.ckpt", opts.seed));
    let mut total = Probe {
        plain_s: 0.0,
        checkpointed_s: 0.0,
        bytes: 0,
    };
    let (mut bytes, mut errors) = (Vec::new(), Vec::new());
    tracer.open("probe");
    for (plan, spec) in plans.iter().zip(specs) {
        let (mut gpu, _) = tracer.call("core.elaborate", || Gpu::new(spec.config.clone()));
        gpu.max_cycles = WATCHDOG_CYCLES;
        gpu.keep_frames = false;
        let (run, run_s) = tracer.call("core.run_trace", || gpu.run_trace(&spec.commands));
        let expected = plan.cycles + u64::from(opts.wrong_expectation);
        let checked = match run {
            Err(e) => Err(format!("direct run failed: {e}")),
            Ok(_) if gpu.cycle() != expected => Err(format!(
                "direct run finished at cycle {}, expected {expected}",
                gpu.cycle()
            )),
            Ok(_) => checkpoint_probe(
                tracer,
                &spec.config,
                &spec.commands,
                every,
                &path,
                Some(run_s),
            ),
        };
        match checked {
            Ok(probe) => {
                total.plain_s += probe.plain_s;
                total.checkpointed_s += probe.checkpointed_s;
                bytes.push(probe.bytes as f64);
            }
            Err(e) => errors.push(format!("{} replay: {e}", plan.id)),
        }
    }
    tracer.close();
    total.bytes = median(&bytes) as u64;
    (total, errors)
}

pub fn run(opts: &Options) -> Outcome {
    let seed = opts.seed;
    let calibrated = calibrate(opts, &opts.out_dir.join(format!("calib-{seed}")));
    let (mut attempted, mut failed) = (calibrated.len() as u64, 0u64);
    let mut plans = Vec::new();
    let mut counters = Counters::default();
    let mut model_hash = FNV_OFFSET;
    for c in calibrated {
        match c {
            Ok((plan, job_counters, job_hash)) => {
                counters.add(&job_counters);
                model_hash = fnv(model_hash, job_hash);
                plans.push(plan);
            }
            Err(e) => {
                failed += 1;
                eprintln!("serve_ckpt calibration: {e}");
            }
        }
    }
    let reference_cycles: u64 = plans.iter().map(|p| p.cycles).sum();

    let dir: PathBuf = opts.out_dir.join(format!("serve-{seed}"));
    let mut tracer = Tracer::new();
    let mut samples = Samples::default();
    let mut bracket = hostspeed::Bracket::new();
    let clock = Clock::start();
    let mut pass = 0u32;
    while failed == 0 && (pass < MIN_PASSES || clock.secs() < opts.seconds) {
        tracer.set_pass(pass);
        // As in the scene workloads: a traced run serves each pass twice,
        // untraced and traced in alternating order, then replays the jobs.
        let order: &[bool] = match (opts.trace, pass % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        let mut walls = [None, None];
        for &traced in order {
            tracer.set_recording(traced);
            tracer.open("pass");
            let result = serve_pass(&mut tracer, opts, &plans, &dir);
            tracer.close();
            let probe_s = bracket.after_pass();
            attempted += plans.len() as u64;
            let served = match result {
                Ok(served) => served,
                Err(e) => {
                    failed += plans.len() as u64;
                    eprintln!("serve_ckpt pass {pass}: {e}");
                    continue;
                }
            };
            let errors = check_jobs(&served.report, &plans, opts.wrong_expectation);
            for e in &errors {
                eprintln!("serve_ckpt pass {pass}: {e}");
            }
            failed += errors.len() as u64;
            if !errors.is_empty() {
                continue;
            }
            let wall_s = served.setup_s + served.serve_s;
            walls[usize::from(traced)] = Some(wall_s);
            if !opts.trace {
                let pass = PassTimes {
                    cycles: reference_cycles,
                    sim_s: served.serve_s,
                    setup_s: served.setup_s,
                    wall_s,
                    jobs: served.report.completed() as f64,
                    jobs_s: served.serve_s,
                };
                samples.push_pass(opts.workload, probe_s, &pass);
            } else if traced {
                let report = &served.report;
                samples.push("serve.jobs_completed", report.completed() as f64);
                samples.push("serve.retries", report.retries as f64);
                samples.push(
                    "serve.resumed",
                    report.results.iter().map(|r| f64::from(r.resumed)).sum(),
                );
                samples.push("serve.quarantined", report.quarantined() as f64);
                let (probe, errors) = replay(&mut tracer, opts, &plans, &served.specs);
                attempted += plans.len() as u64;
                failed += errors.len() as u64;
                for e in &errors {
                    eprintln!("serve_ckpt pass {pass}: {e}");
                }
                if errors.is_empty() {
                    let ns = counters.ns_per_clocked_cycle(probe.plain_s);
                    let busy = probe.plain_s / (served.serve_s * WORKERS as f64);
                    samples.push("core.host_ns_per_clocked_cycle", ns);
                    samples.push("checkpoint.bytes", probe.bytes as f64);
                    samples.push("checkpoint.overhead_share", probe.overhead_share());
                    samples.push("serve.worker_busy_share", busy);
                }
            }
        }
        if let [Some(untraced), Some(traced)] = walls {
            samples.push("trace.overhead_share", traced / untraced - 1.0);
        }
        pass += 1;
    }

    let mut report = vec![
        ("passes".to_string(), Json::Num(f64::from(pass))),
        ("workers".to_string(), Json::Num(WORKERS as f64)),
        (
            "core.sim_cycles".to_string(),
            Json::Num(counters.cycles as f64),
        ),
        (
            "model_fingerprint".to_string(),
            Json::Str(format!("{model_hash:#018x}")),
        ),
        (
            "jobs".to_string(),
            Json::Arr(
                plans
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("id".into(), Json::Str(p.id.clone())),
                            ("cycles".into(), Json::Num(p.cycles as f64)),
                            (
                                "budget".into(),
                                p.budget.map_or(Json::Null, |b| Json::Num(b as f64)),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    let metrics = finish(opts, &tracer, &counters, samples, &mut report);
    Outcome {
        attempted,
        failed,
        metrics,
        report,
    }
}
