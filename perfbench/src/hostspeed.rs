//! A fixed probe of how fast the host runs code like the simulator's at
//! this moment.
//!
//! Other tenants of a shared host slow a pass down, for tens of seconds
//! at a time. The simulator, a branchy interpreter of queues and maps,
//! slows more than plain arithmetic or memory streams do. This probe is a
//! small bytecode interpreter over a `BTreeMap` and a pool of `Vec`s,
//! running a fixed program. On the 2-core host this was tuned on:
//!
//! - its time tracked the simulator's from pass to pass, with log
//!   correlation 0.73 (arithmetic 0.33, random memory reads 0.35–0.48);
//! - each workload's log host time moved a fixed multiple of the probe's
//!   (see [`crate::Workload::host_sensitivity`]), so a pass on a slowed
//!   host is scaled by the probe ratio raised to that multiple;
//! - over three sets of 10 runs of 35 s, scaling cut the interquartile
//!   range of `texture_stream`'s median `wall_s` from 19–41% of the
//!   median to 3–7%, and no workload's median moved more than 5% from
//!   set to set.
//!
//! The probe is the benchmark's own code and never calls the simulator,
//! so a change to the simulator cannot move it.

use std::collections::BTreeMap;

use crate::trace::Clock;

/// The probe's time on the tuning host in a quiet stretch, at the top of
/// its own run-to-run noise there. A slower probe means other tenants are
/// slowing the host, and host-time metrics are scaled to a host where the
/// probe takes exactly this long. A probe at or below it leaves the pass
/// as measured, so the probe's own noise does not rescale quiet runs.
pub const NOMINAL_S: f64 = 0.062;

const STEPS: u64 = 2_000_000;

/// Runs the probe once and returns its host time in seconds.
pub fn probe() -> f64 {
    let clock = Clock::start();
    std::hint::black_box(interpret(std::hint::black_box(STEPS)));
    clock.secs()
}

/// How much faster than nominal the host runs the workload now, judged
/// by a probe time: multiply a measured time by this, or divide a
/// measured rate, to get the nominal-host value. `sensitivity` is how
/// many times the workload's log host time moves for each move of the
/// probe's (see [`crate::Workload::host_sensitivity`]).
pub fn factor(probe_s: f64, sensitivity: i32) -> f64 {
    (NOMINAL_S / probe_s.max(NOMINAL_S)).powi(sensitivity)
}

/// Probes before the first pass and after every pass, so each pass is
/// bracketed by two probes.
#[derive(Debug)]
pub struct Bracket {
    before: f64,
}

impl Bracket {
    pub fn new() -> Self {
        Bracket { before: probe() }
    }

    /// Call right after a pass: probes again and returns the mean of the
    /// probes before and after the pass.
    pub fn after_pass(&mut self) -> f64 {
        let after = probe();
        let mean = (self.before + after) / 2.0;
        self.before = after;
        mean
    }
}

impl Default for Bracket {
    fn default() -> Self {
        Bracket::new()
    }
}

fn interpret(steps: u64) -> u64 {
    let mut x: u64 = 99;
    let program: Vec<u8> = (0..4096)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect();
    let mut map: BTreeMap<u32, u32> = BTreeMap::new();
    let mut pool: Vec<Vec<u32>> = vec![Vec::new(); 64];
    let mut regs = [1u64; 8];
    let mut pc = 0usize;
    let mut acc = 0u64;
    for step in 0..steps {
        let op = program[pc];
        let r = usize::from(op >> 4) & 7;
        match op & 15 {
            0 => regs[r] = regs[r].wrapping_add(regs[(r + 1) & 7]),
            1 => regs[r] ^= regs[r] << 7,
            2 => regs[r] = regs[r].wrapping_mul(0x9E37),
            3 => *map.entry(regs[r] as u32 & 0xFFF).or_insert(0) += 1,
            4 => acc ^= u64::from(map.get(&(regs[r] as u32 & 0xFFF)).copied().unwrap_or(0)),
            5 => {
                let v = &mut pool[regs[r] as usize & 63];
                v.push(step as u32);
                if v.len() > 256 {
                    v.clear();
                }
            }
            6 => {
                let v = &pool[regs[r] as usize & 63];
                acc = acc.wrapping_add(v.iter().take(8).map(|&x| u64::from(x)).sum::<u64>());
            }
            7 => {
                if regs[r] & 1 == 0 {
                    pc = (pc + 3) % program.len();
                }
            }
            8 => regs[r] = regs[r].rotate_left(11) ^ acc,
            9 => acc = acc.wrapping_add(regs[r] >> 3),
            10 => regs[r] = regs[r] / (regs[(r + 3) & 7] | 1) + 7,
            11 => {
                map.remove(&(regs[r] as u32 & 0xFFF));
            }
            12 => regs[r] = regs[r].wrapping_sub(acc),
            13 => acc ^= u64::from(regs[r].count_ones()),
            14 => regs[(r + 2) & 7] = regs[r],
            _ => regs[r] = !regs[r],
        }
        pc = (pc + 1) % program.len();
    }
    acc ^ regs[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_does_the_same_work_every_time() {
        assert_eq!(interpret(10_000), interpret(10_000));
        assert!(probe() > 0.0);
        assert!((factor(NOMINAL_S, 2) - 1.0).abs() < 1e-12);
        assert!((factor(NOMINAL_S * 2.0, 2) - 0.25).abs() < 1e-12);
        assert_eq!(
            factor(NOMINAL_S / 2.0, 2),
            1.0,
            "a quiet host is left as measured"
        );
    }
}
