//! `doom3` and `texture_stream`: one scene per pass, simulated by one
//! fresh machine, every frame checked against the golden renderer.
//!
//! Pass `p` renders the scene of seed `sub_seed(--seed, p)`, so a run
//! averages over scenes instead of depending on one: runs made with
//! different seeds are compared with each other, and `doom3`'s cost
//! moves a few percent from scene to scene.

use attila_core::commands::GpuCommand;
use attila_core::config::GpuConfig;
use attila_core::golden::GoldenRenderer;
use attila_core::gpu::{FrameDump, Gpu};
use attila_gl::workloads::{self, WorkloadParams};
use attila_gl::{compile, diff_frames, GlTrace};
use attila_json::Json;

use crate::hostspeed;
use crate::trace::{Clock, Tracer};
use crate::{
    checkpoint_probe, config_for, fingerprint, finish, fnv_bytes, sub_seed, Counters, Options,
    Outcome, PassTimes, Samples, Size, Workload, FNV_OFFSET, MIN_PASSES, WATCHDOG_CYCLES,
};

/// Checkpoint interval of the probe, in cycles.
const PROBE_EVERY: u64 = 60_000;

/// The commands up to and including the first frame's swap. The
/// checkpoint probe runs this prefix: a checkpoint run-length encodes the
/// whole memory image, and after all of `texture_stream`'s fresh textures
/// one is over 600 MB of JSON.
fn first_frame(commands: &[GpuCommand]) -> &[GpuCommand] {
    let end = commands
        .iter()
        .position(|c| matches!(c, GpuCommand::Swap))
        .map_or(commands.len(), |i| i + 1);
    &commands[..end]
}

/// The API trace of one scene.
pub fn scene_trace(workload: Workload, size: Size, seed: u64) -> GlTrace {
    let full = size == Size::Full;
    let base = WorkloadParams {
        width: if full { 160 } else { 48 },
        height: if full { 120 } else { 36 },
        texture_size: if full { 256 } else { 32 },
        seed,
        ..Default::default()
    };
    match workload {
        Workload::Doom3 => workloads::doom3_like(WorkloadParams {
            frames: if full { 2 } else { 1 },
            ..base
        }),
        // About 8 ms of `run_trace` per fresh 256² texture on a 2-core
        // host: 128 of them give a second of simulation.
        Workload::TextureStream => workloads::texture_stream(WorkloadParams {
            frames: if full { 128 } else { 4 },
            ..base
        }),
        Workload::ServeCkpt => unreachable!("serve_ckpt has no single scene"),
    }
}

/// One simulated scene and the host time of each phase.
struct SceneRun {
    config: GpuConfig,
    commands: Vec<GpuCommand>,
    gpu: Gpu,
    frames: Vec<FrameDump>,
    setup_s: f64,
    run_s: f64,
}

/// One pass through the layers: generate, compile, elaborate, run.
fn run_scene(
    tracer: &mut Tracer,
    workload: Workload,
    size: Size,
    seed: u64,
) -> Result<SceneRun, String> {
    let (trace, generate_s) = tracer.call("gl.generate", || scene_trace(workload, size, seed));
    let (compiled, compile_s) = tracer.call("gl.compile", || {
        compile(trace.width, trace.height, &trace.calls)
    });
    let commands = compiled.map_err(|e| format!("trace does not compile: {e}"))?;
    let config = config_for(&trace);
    let (mut gpu, elaborate_s) = tracer.call("core.elaborate", || Gpu::new(config.clone()));
    gpu.max_cycles = WATCHDOG_CYCLES;
    gpu.keep_frames = true;
    let (result, run_s) = tracer.call("core.run_trace", || gpu.run_trace(&commands));
    let result = result.map_err(|e| format!("simulation failed: {e}"))?;
    Ok(SceneRun {
        config,
        commands,
        gpu,
        frames: result.framebuffers,
        setup_s: generate_s + compile_s + elaborate_s,
        run_s,
    })
}

/// The correctness gate: every frame bit-identical to the golden
/// renderer's. The expected hash is the golden frame's, deliberately
/// corrupted when `wrong` is set.
fn check_frames(frames: &[FrameDump], golden: &[FrameDump], wrong: bool) -> Result<(), String> {
    if frames.len() != golden.len() {
        return Err(format!(
            "{} frames rendered, the golden renderer gave {}",
            frames.len(),
            golden.len()
        ));
    }
    for (i, (sim, gold)) in frames.iter().zip(golden).enumerate() {
        if (sim.width, sim.height) != (gold.width, gold.height) {
            return Err(format!(
                "frame {i} is {}x{}, expected {}x{}",
                sim.width, sim.height, gold.width, gold.height
            ));
        }
        let expected = fnv_bytes(&gold.rgba) ^ u64::from(wrong);
        let got = fnv_bytes(&sim.rgba);
        if got != expected {
            return Err(format!(
                "frame {i} hash {got:#018x}, expected {expected:#018x}"
            ));
        }
        let diff = diff_frames(sim, gold);
        if !diff.identical() {
            return Err(format!(
                "frame {i} differs from the golden renderer: {diff}"
            ));
        }
    }
    Ok(())
}

pub fn run(opts: &Options) -> Outcome {
    let name = opts.workload.name();
    let probe_path = opts
        .out_dir
        .join(format!("probe-{name}-{}.ckpt", opts.seed));
    let mut tracer = Tracer::new();
    let mut samples = Samples::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first: Option<(Counters, u64)> = None;
    let mut bracket = hostspeed::Bracket::new();
    let clock = Clock::start();
    let mut pass = 0u32;
    while pass < MIN_PASSES || clock.secs() < opts.seconds {
        let seed = sub_seed(opts.seed, u64::from(pass));
        tracer.set_pass(pass);
        // An untraced run times each scene once. A traced run times it
        // twice, untraced and traced in alternating order, so the pair
        // measures the tracing overhead, then probes the checkpoint layer.
        let order: &[bool] = match (opts.trace, pass % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        let mut golden: Option<Vec<FrameDump>> = None;
        let mut walls = [None, None];
        for &traced in order {
            tracer.set_recording(traced);
            tracer.open("pass");
            let result = run_scene(&mut tracer, opts.workload, opts.size, seed);
            tracer.close();
            let probe_s = bracket.after_pass();
            attempted += 1;
            let checked = result.and_then(|run| {
                let golden = golden.get_or_insert_with(|| {
                    GoldenRenderer::new(run.config.memory.gpu_memory_bytes())
                        .run_trace(&run.commands)
                });
                check_frames(&run.frames, golden, opts.wrong_expectation).map(|()| run)
            });
            let run = match checked {
                Ok(run) => run,
                Err(e) => {
                    failed += 1;
                    eprintln!("{name} pass {pass}: {e}");
                    continue;
                }
            };
            let counters = Counters::of(&run.gpu, run.commands.len());
            first.get_or_insert_with(|| (counters, fingerprint(FNV_OFFSET, &run.gpu)));
            let wall_s = run.setup_s + run.run_s;
            walls[usize::from(traced)] = Some(wall_s);
            if !opts.trace {
                let pass = PassTimes {
                    cycles: counters.cycles,
                    sim_s: run.run_s,
                    setup_s: run.setup_s,
                    wall_s,
                    jobs: 1.0,
                    jobs_s: wall_s,
                };
                samples.push_pass(opts.workload, probe_s, &pass);
            } else if traced {
                samples.push(
                    "core.host_ns_per_clocked_cycle",
                    counters.ns_per_clocked_cycle(run.run_s),
                );
                tracer.open("probe");
                let frame = first_frame(&run.commands);
                let probe = checkpoint_probe(
                    &mut tracer,
                    &run.config,
                    frame,
                    PROBE_EVERY,
                    &probe_path,
                    None,
                );
                tracer.close();
                attempted += 1;
                match probe {
                    Ok(p) => {
                        samples.push("checkpoint.bytes", p.bytes as f64);
                        samples.push("checkpoint.overhead_share", p.overhead_share());
                    }
                    Err(e) => {
                        failed += 1;
                        eprintln!("{name} pass {pass} checkpoint probe: {e}");
                    }
                }
            }
        }
        if let [Some(untraced), Some(traced)] = walls {
            samples.push("trace.overhead_share", traced / untraced - 1.0);
        }
        pass += 1;
    }

    let (counters, model_hash) = first.unwrap_or_default();
    let mut report = vec![
        ("passes".to_string(), Json::Num(f64::from(pass))),
        (
            "core.sim_cycles".to_string(),
            Json::Num(counters.cycles as f64),
        ),
        (
            "model_fingerprint".to_string(),
            Json::Str(format!("{model_hash:#018x}")),
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
