//! What every workload shares: the run description, the closed loop that
//! times one operation at a time, repeated set-up, the seeded query
//! stream, and the result a workload hands back.

use crate::check::{fold_hashes, Verdict};
use crate::metrics::MetricSet;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use uncertain_geom::{Point, Rect};
use utree::{Query, Refine};

/// The four workloads. Their names are fixed: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RefineMc,
    WalkCold,
    ServeMixed,
    BuildIngest,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RefineMc,
        Workload::WalkCold,
        Workload::ServeMixed,
        Workload::BuildIngest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RefineMc => "refine_mc",
            Workload::WalkCold => "walk_cold",
            Workload::ServeMixed => "serve_mixed",
            Workload::BuildIngest => "build_ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One invocation of one workload.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub workload: Workload,
    /// Drives every generator: datasets, query centres, request mix,
    /// insert/delete order. The library only ever sees generated inputs.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Record spans and print the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Tiny sizes for `cargo test`.
    pub smoke: bool,
    /// Keep the trace file after the run directory is removed.
    pub keep_trace: bool,
}

impl RunCfg {
    /// `full`, or `smoke` under `--smoke`.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// How often set-up runs; the median is reported. A traced run prints
    /// no set-up time and sets up once.
    pub fn setups(&self) -> usize {
        if self.smoke || self.trace {
            1
        } else {
            3
        }
    }

    /// A generator seed of its own for stream `stream` of this run.
    pub fn sub_seed(&self, stream: u64) -> u64 {
        // SplitMix64 finalizer: neighbouring seeds give unrelated streams.
        let mut z = self
            .seed
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// What a workload hands back for printing.
#[derive(Debug, Default)]
pub struct RunReport {
    pub metrics: MetricSet,
    /// Operations run plus oracle comparisons made.
    pub attempted: u64,
    /// Operations that errored, answers that changed between repetitions,
    /// oracle contradictions and broken trace identities.
    pub failed: u64,
    /// Facts about the run that are not metrics (`answers_fnv`, sample
    /// counts, sizes), printed as `name = value` lines.
    pub info: Vec<(String, String)>,
}

impl RunReport {
    pub fn note(&mut self, name: &str, value: impl std::fmt::Display) {
        self.info.push((name.to_string(), value.to_string()));
    }

    pub fn absorb(&mut self, verdict: Verdict) {
        self.attempted += verdict.checked;
        self.failed += verdict.violations;
    }

    /// Records a prediction the harness wrote down; a broken one fails
    /// the run.
    pub fn predict(&mut self, what: &str, holds: bool) {
        self.attempted += 1;
        if !holds {
            self.failed += 1;
            eprintln!("ledger: prediction broken: {what}");
        }
        self.note(&format!("predict[{what}]"), holds);
    }
}

/// When a phase of the closed loop ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    Ops(usize),
    /// Timed nanoseconds (what an operation reports as untimed does not
    /// count).
    Nanos(u64),
}

impl Stop {
    pub fn seconds(s: f64) -> Self {
        Stop::Nanos((s * 1e9) as u64)
    }
}

/// What one operation of the loop reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpDone {
    /// Hash of the answer's ids, in order.
    pub hash: u64,
    /// Nanoseconds the operation spent on checking, to be left out of its
    /// latency and of the phase's wall clock.
    pub untimed_ns: u64,
}

/// One phase (warm-up or measurement) of a closed loop.
#[derive(Debug, Default)]
pub struct Phase {
    /// Caller-timed latency of each successful operation, in run order.
    pub lat_ns: Vec<u64>,
    /// Wall clock of the phase without the untimed parts.
    pub wall_ns: u64,
    /// Answer hashes in run order.
    pub hashes: Vec<u64>,
}

impl Phase {
    pub fn ops(&self) -> usize {
        self.lat_ns.len()
    }

    pub fn ops_per_s(&self, ops_per_call: usize) -> f64 {
        (self.ops() * ops_per_call) as f64 * 1e9 / self.wall_ns.max(1) as f64
    }

    /// Latencies, ascending.
    pub fn sorted(&self) -> Vec<u64> {
        let mut v = self.lat_ns.clone();
        v.sort_unstable();
        v
    }

    /// FNV-1a over the answers of the first `ops` operations.
    pub fn answers_fnv(&self, ops: usize) -> (u64, usize) {
        let n = ops.min(self.hashes.len());
        (fold_hashes(&self.hashes[..n]), n)
    }
}

/// A single client that sends its next operation only when the previous
/// one has returned. Operations come from a cycle of `cycle` distinct
/// inputs (`None`: a stream that never repeats); whenever an input comes
/// round again its answer must hash the same — every operation is checked
/// for determinism that way, at no cost inside the timed call.
#[derive(Debug)]
pub struct ClosedLoop {
    cycle: Option<usize>,
    next: usize,
    seen: Vec<Option<u64>>,
    pub attempted: u64,
    pub errors: u64,
    pub mismatches: u64,
}

impl ClosedLoop {
    pub fn new(cycle: Option<usize>) -> Self {
        Self {
            cycle,
            next: 0,
            seen: vec![None; cycle.unwrap_or(0)],
            attempted: 0,
            errors: 0,
            mismatches: 0,
        }
    }

    /// Runs operations until `stop`, continuing where the last phase
    /// ended. `op` gets the input's index in the cycle (or in the stream).
    pub fn run(
        &mut self,
        stop: Stop,
        mut op: impl FnMut(usize) -> Result<OpDone, String>,
    ) -> Phase {
        let mut phase = Phase::default();
        let mut untimed = 0u64;
        let mut calls = 0usize;
        let start = Instant::now();
        loop {
            let done = match stop {
                Stop::Ops(n) => calls >= n,
                Stop::Nanos(limit) => start.elapsed().as_nanos() as u64 - untimed >= limit,
            };
            if done {
                break;
            }
            let index = self.cycle.map_or(self.next, |c| self.next % c);
            self.next += 1;
            self.attempted += 1;
            calls += 1;
            let t0 = Instant::now();
            let result = op(index);
            let elapsed = t0.elapsed().as_nanos() as u64;
            match result {
                Ok(done) => {
                    untimed += done.untimed_ns;
                    phase.lat_ns.push(elapsed.saturating_sub(done.untimed_ns));
                    phase.hashes.push(done.hash);
                    if self.cycle.is_some() {
                        match self.seen[index] {
                            None => self.seen[index] = Some(done.hash),
                            Some(first) if first != done.hash => {
                                self.mismatches += 1;
                                eprintln!(
                                    "ledger: answer of input {index} changed between repetitions"
                                );
                            }
                            Some(_) => {}
                        }
                    }
                }
                Err(e) => {
                    self.errors += 1;
                    eprintln!("ledger: operation {index} failed: {e}");
                }
            }
        }
        phase.wall_ns = (start.elapsed().as_nanos() as u64).saturating_sub(untimed);
        phase
    }

    /// The hash input `index` gave when it first ran.
    pub fn first_hash(&self, index: usize) -> Option<u64> {
        self.seen.get(index).copied().flatten()
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.mismatches
    }
}

/// Wall clock of one set-up, and of the bulk loads inside it.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupClock {
    pub total_s: f64,
    pub build_s: f64,
    pub built_objs: usize,
}

/// Sets up `times` times, keeping the last result; each earlier one is
/// dropped before the next is built, so peak memory is one set-up's.
pub fn repeat_setup<T>(
    times: usize,
    mut setup: impl FnMut(usize) -> std::io::Result<(T, SetupClock)>,
) -> std::io::Result<(T, Vec<SetupClock>)> {
    let mut clocks = Vec::with_capacity(times);
    let mut last = None;
    for round in 0..times.max(1) {
        drop(last.take());
        let (built, clock) = setup(round)?;
        clocks.push(clock);
        last = Some(built);
    }
    Ok((last.expect("at least one set-up ran"), clocks))
}

/// The range-query stream of the paper's Sec 6: cubes of side `qs`
/// centred on data points, `p_q` cycling 0.1–0.9, Monte-Carlo refinement
/// seeded per query.
pub fn query_cycle<const D: usize>(
    centers: &[Point<D>],
    len: usize,
    qs: f64,
    n1: usize,
    seed: u64,
) -> Vec<Query<D>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|i| {
            let c = centers[rng.gen_range(0..centers.len())];
            Query::range(Rect::cube(&c, qs))
                .threshold(threshold(i))
                .refine(Refine::monte_carlo(n1, seed ^ i as u64))
                .build()
                .expect("generated queries are valid")
        })
        .collect()
}

/// `p_q` of the `i`-th generated query: 0.1, 0.2, … 0.9, round again.
pub fn threshold(i: usize) -> f64 {
    0.1 + 0.1 * (i % 9) as f64
}

/// Indices of a cycle whose answers go to the oracle: every `every`-th.
pub fn checked_indices(cycle: usize, every: usize) -> impl Iterator<Item = usize> {
    (0..cycle).step_by(every)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_wraps_the_cycle_and_catches_a_changed_answer() {
        let mut lp = ClosedLoop::new(Some(3));
        let warm = lp.run(Stop::Ops(2), |i| {
            Ok(OpDone {
                hash: i as u64,
                untimed_ns: 0,
            })
        });
        assert_eq!(warm.hashes, vec![0, 1]);
        let mut calls = 0;
        let phase = lp.run(Stop::Ops(5), |i| {
            calls += 1;
            // input 1 answers differently the second time round
            let hash = if i == 1 { 99 } else { i as u64 };
            Ok(OpDone {
                hash,
                untimed_ns: 0,
            })
        });
        assert_eq!(calls, 5);
        assert_eq!(
            phase.hashes,
            vec![2, 0, 99, 2, 0],
            "continues where warm-up ended"
        );
        assert_eq!((lp.mismatches, lp.errors, lp.attempted), (1, 0, 7));
        assert_eq!(lp.first_hash(1), Some(1));
        assert_eq!(phase.answers_fnv(2).1, 2);
    }

    #[test]
    fn errors_count_and_untimed_time_is_left_out() {
        let mut lp = ClosedLoop::new(None);
        let phase = lp.run(Stop::Ops(4), |i| {
            if i == 2 {
                return Err("boom".into());
            }
            let t0 = Instant::now();
            std::thread::sleep(std::time::Duration::from_millis(3));
            Ok(OpDone {
                hash: 0,
                untimed_ns: t0.elapsed().as_nanos() as u64,
            })
        });
        assert_eq!((phase.ops(), lp.errors, lp.failed()), (3, 1, 1));
        assert!(
            phase.lat_ns.iter().all(|&ns| ns < 2_000_000),
            "{:?}",
            phase.lat_ns
        );
        assert!(phase.wall_ns < 6_000_000);
    }

    #[test]
    fn timed_stop_ends_the_phase() {
        let mut lp = ClosedLoop::new(Some(1));
        let phase = lp.run(Stop::seconds(0.02), |_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            Ok(OpDone::default())
        });
        assert!(phase.ops() >= 5 && phase.wall_ns >= 20_000_000);
    }

    #[test]
    fn streams_follow_the_seed() {
        let cfg = |seed| RunCfg {
            workload: Workload::RefineMc,
            seed,
            seconds: 1.0,
            trace: false,
            smoke: true,
            keep_trace: false,
        };
        assert_eq!(cfg(4).sub_seed(1), cfg(4).sub_seed(1));
        assert_ne!(cfg(4).sub_seed(1), cfg(4).sub_seed(2));
        assert_ne!(cfg(4).sub_seed(1), cfg(5).sub_seed(1));
        let centers = [Point::new([10.0, 10.0]), Point::new([500.0, 80.0])];
        let a = query_cycle(&centers, 20, 100.0, 50, 7);
        assert_eq!(a, query_cycle(&centers, 20, 100.0, 50, 7));
        assert_ne!(a, query_cycle(&centers, 20, 100.0, 50, 8));
        assert!((a[9].threshold() - 0.1).abs() < 1e-12 && (a[8].threshold() - 0.9).abs() < 1e-12);
        assert_eq!(Workload::parse("walk_cold"), Some(Workload::WalkCold));
        assert_eq!(Workload::parse("nope"), None);
    }
}
