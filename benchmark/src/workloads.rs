//! The three workloads and the checks every op must pass.
//!
//! Why each workload exists (see also `benchmark/README.md`):
//!
//! * `campus_100k` — the city-scale run users see (`campus_smoke`):
//!   100 000 closed-loop implants in 16 interference cells, streaming
//!   metrics, 2 s simulated, on 2 shards. Set-up is a large share of an op,
//!   so it carries the `setup_s` that link memoisation must move. It uses
//!   the lazy pair tables, a deep event queue, the band-indexed medium at
//!   scale, coex and the shard exchange and merge.
//! * `ward_trials` — the event-loop-bound opposite: 16 Monte-Carlo trials
//!   of a 100-tag walking ward (closed loop, margin-aware scheduler,
//!   stored metrics). It uses the dense pair tables, a shallow queue, a
//!   `LinkMatrix::flush` every mobility tick, and parallelism across trials
//!   instead of across cells.
//! * `paper_suite` — every `sim::experiments` runner, as `run_experiments`
//!   runs them: the waveform PHY path. `net` does no work in it, so it is
//!   the control on which every `net` change must show no change.

use interscatter::net::prelude::*;
use interscatter::net::scenario::Scenario;
use interscatter::sim::experiments as exp;
use interscatter::wifi::dot11b::DsssRate;

use crate::trace::Spans;

/// Tags of the campus workload.
pub const CAMPUS_TAGS: usize = 100_000;
/// Shards the campus workload runs on: more than one, so the shard
/// exchange and the worker threads are on the measured path.
pub const CAMPUS_SHARDS: usize = 2;
/// Tags of the walking ward.
pub const WARD_TAGS: usize = 100;
/// Monte-Carlo trials per `ward_trials` op.
pub const WARD_TRIALS: usize = 16;
/// The set-up horizon: the smallest valid simulated duration, so a run
/// does its scenario build, partition, engine init and link build and
/// almost nothing else.
pub const SETUP_HORIZON_S: f64 = 1e-9;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Scenario::campus(100_000)` through `net::run` on 2 shards.
    Campus,
    /// 16 walking-ward trials through `net::run_trials`.
    Ward,
    /// The `run_experiments` suite of paper figures.
    Paper,
}

impl Workload {
    /// Every workload, in the order BENCHMARK.json lists them.
    pub const ALL: [Workload; 3] = [Workload::Campus, Workload::Ward, Workload::Paper];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Campus => "campus_100k",
            Workload::Ward => "ward_trials",
            Workload::Paper => "paper_suite",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What the workload's throughput counts.
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::Campus => "engine events",
            Workload::Ward => "trials",
            Workload::Paper => "waveform packets and frames",
        }
    }

    /// Runs one op. `setup` runs the op's set-up variant instead: the
    /// 1 ns horizon for the network workloads, one packet per measurement
    /// point for the paper suite.
    pub fn op(self, seed: u64, setup: bool, spans: &mut Spans) -> Outcome {
        match self {
            Workload::Campus => campus_op(seed, setup, spans),
            Workload::Ward => ward_op(seed, setup, spans),
            Workload::Paper => paper_op(seed, setup, spans),
        }
    }
}

/// What one op produced, reduced to what the checks compare.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// FNV-1a digest of the op's deterministic output: the campus report
    /// and telemetry text, the Monte-Carlo report text, or the suite's
    /// report text. Every op of a run must reproduce the first one's.
    pub digest: u64,
    /// Work done, in the workload's [`Workload::work_unit`].
    pub work: u64,
    /// Invariants the op broke; empty when it passed.
    pub problems: Vec<String>,
}

impl Outcome {
    fn failed(problem: String) -> Outcome {
        Outcome {
            problems: vec![problem],
            ..Outcome::default()
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// 64-bit FNV-1a, the digest the repository pins its reports with.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Derives an independent seed for one consumer of the workload seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    // splitmix64 finaliser over the pair.
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The campus scenario of the workload, optionally profiled and with the
/// set-up horizon. Preset construction and `build()` are part of the op.
pub fn campus_scenario(setup: bool, profile: bool) -> Result<Scenario, NetError> {
    let mut builder = Scenario::campus(CAMPUS_TAGS).builder().execution(
        ExecutionSection::new()
            .trace(false)
            .shards(CAMPUS_SHARDS)
            .profile(profile),
    );
    if setup {
        builder = builder.duration_s(SETUP_HORIZON_S);
    }
    builder.build()
}

/// The ward scenario of the workload.
pub fn ward_scenario(setup: bool, profile: bool) -> Result<Scenario, NetError> {
    let mut builder = Scenario::walking_ward(WARD_TAGS)
        .closed_loop()
        .with_scheduler(SchedPolicy::margin_aware())
        .builder()
        .execution(
            ExecutionSection::new()
                .trace(false)
                .trials(WARD_TRIALS)
                .profile(profile),
        );
    if setup {
        builder = builder.duration_s(SETUP_HORIZON_S);
    }
    builder.build()
}

/// Events a set-up run may process: only what was scheduled at start-up —
/// one first arrival per tag, one first slot per carrier, one first start
/// per coex source and mobility tick, and a horizon per cell.
fn startup_event_bound(scenario: &Scenario, cells: usize) -> u64 {
    let coex = scenario.coex.as_ref().map_or(0, |c| c.sources.len());
    (scenario.tags.len() + scenario.carriers.len() + coex + 1 + cells) as u64
}

/// Invariants every network run must hold.
fn check_metrics(out: &mut Outcome, m: &NetworkMetrics, setup: bool, label: &str) {
    let (offered, attempts, delivered) = (m.offered_packets(), m.attempts(), m.delivered_packets());
    out.check(delivered <= attempts, || {
        format!("{label}: delivered {delivered} > attempts {attempts}")
    });
    if setup {
        out.check(attempts == 0 && delivered == 0, || {
            format!("{label}: set-up run transmitted ({attempts} attempts, {delivered} delivered)")
        });
    } else {
        out.check(offered > 0, || format!("{label}: no packet offered"));
    }
}

/// Builds and runs the campus op; the span names are the op's top-level
/// calls.
pub fn campus_run(
    seed: u64,
    setup: bool,
    spans: &mut Spans,
) -> Result<(Scenario, NetRunResult), String> {
    let profile = spans.enabled();
    let scenario = spans
        .time("scenario.build", || campus_scenario(setup, profile))
        .map_err(|e| format!("campus build: {e}"))?;
    let result = spans
        .time("net.run", || interscatter::net::run(&scenario, seed))
        .map_err(|e| format!("campus run: {e}"))?;
    Ok((scenario, result))
}

/// Checks a campus op and digests its report and telemetry text.
pub fn campus_check(scenario: &Scenario, result: &NetRunResult, setup: bool) -> Outcome {
    let m = &result.metrics;
    let text = format!("{}\n{}", m.report(), result.telemetry.render());
    let mut out = Outcome {
        digest: fnv1a(&text),
        work: result.telemetry.events,
        problems: Vec::new(),
    };
    check_metrics(&mut out, m, setup, "campus");
    out.check(
        m.latency_ms.is_empty()
            && m.poll_latency_ms.is_empty()
            && m.transaction_latency_ms.is_empty(),
        || "campus: streaming mode stored per-event samples".into(),
    );
    let cells = m.shard_load.as_ref().map_or(1, |l| l.cell_events.len());
    if setup {
        let (events, bound) = (out.work, startup_event_bound(scenario, cells));
        out.check(events <= bound, || {
            format!("campus: set-up run processed {events} events > start-up bound {bound}")
        });
    } else {
        // Physical sanity: every implant sits within a metre of its
        // helper, so a good share of its polled transactions complete
        // (0.38-0.51 over seeds 1, 2, 3, 42 and 1000 at the time of
        // writing).
        let completion = m.transaction_completion_rate();
        out.check(completion > 0.2, || {
            format!("campus: transaction completion {completion:.3} <= 0.2")
        });
    }
    out
}

fn campus_op(seed: u64, setup: bool, spans: &mut Spans) -> Outcome {
    match campus_run(seed, setup, spans) {
        Ok((scenario, result)) => campus_check(&scenario, &result, setup),
        Err(e) => Outcome::failed(e),
    }
}

/// Builds the ward scenario and runs its trials.
pub fn ward_run(
    seed: u64,
    setup: bool,
    spans: &mut Spans,
) -> Result<(Scenario, MonteCarloReport), String> {
    let profile = spans.enabled();
    let scenario = spans
        .time("scenario.build", || ward_scenario(setup, profile))
        .map_err(|e| format!("ward build: {e}"))?;
    let report = spans
        .time("net.run_trials", || {
            interscatter::net::run_trials(&scenario, seed)
        })
        .map_err(|e| format!("ward run_trials: {e}"))?;
    Ok((scenario, report))
}

/// Checks a ward op and digests its Monte-Carlo report.
pub fn ward_check(report: &MonteCarloReport, setup: bool) -> Outcome {
    let mut out = Outcome {
        digest: fnv1a(&report.report()),
        work: report.trials.len() as u64,
        problems: Vec::new(),
    };
    out.check(report.trials.len() == WARD_TRIALS, || {
        format!(
            "ward: {} trials, expected {WARD_TRIALS}",
            report.trials.len()
        )
    });
    for (i, m) in report.trials.iter().enumerate() {
        check_metrics(&mut out, m, setup, &format!("ward trial {i}"));
    }
    if !setup {
        // Physical sanity: patients walk in and out of their bedside
        // helper's range, and the margin-aware scheduler grants the tags
        // that are in range, so every trial delivers (mean delivery ratio
        // 0.136-0.152 over seeds 1, 2, 3, 42 and 1000 at the time of
        // writing).
        for (i, m) in report.trials.iter().enumerate() {
            out.check(m.delivered_packets() > 0, || {
                format!("ward trial {i}: nothing delivered")
            });
        }
        let ratio = mean(report.trials.iter().map(NetworkMetrics::delivery_ratio));
        out.check(ratio > 0.05, || {
            format!("ward: mean delivery ratio {ratio:.3} <= 0.05")
        });
    }
    out
}

fn ward_op(seed: u64, setup: bool, spans: &mut Spans) -> Outcome {
    match ward_run(seed, setup, spans) {
        Ok((_, report)) => ward_check(&report, setup),
        Err(e) => Outcome::failed(e),
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n.max(1) as f64
}

/// The suite's parameters for one seed. In the set-up variant every
/// per-point packet, frame or payload count is 1, which leaves the work
/// that does not scale with the packet count.
pub struct SuiteParams {
    pub fig06: exp::fig06::Fig06Params,
    pub fig09_seed: u64,
    pub fig10: exp::fig10::Fig10Params,
    pub fig11: exp::fig11::Fig11Params,
    pub fig12: exp::fig12::Fig12Params,
    pub fig13: exp::fig13::Fig13Params,
    pub fig14: exp::fig14::Fig14Params,
    pub fig15: exp::fig15::Fig15Params,
    pub fig16: exp::fig16::Fig16Params,
    pub fig17: exp::fig17::Fig17Params,
    pub scrambler_frames: u64,
}

impl SuiteParams {
    /// Default parameters with every seed field derived from `seed`.
    pub fn new(seed: u64, setup: bool) -> SuiteParams {
        let mut p = SuiteParams {
            fig06: Default::default(),
            fig09_seed: derive_seed(seed, 0x09),
            fig10: Default::default(),
            fig11: exp::fig11::Fig11Params {
                seed: derive_seed(seed, 0x11),
                ..Default::default()
            },
            fig12: exp::fig12::Fig12Params {
                seed: derive_seed(seed, 0x12),
                ..Default::default()
            },
            fig13: exp::fig13::Fig13Params {
                seed: derive_seed(seed, 0x13),
                ..Default::default()
            },
            fig14: exp::fig14::Fig14Params {
                seed: derive_seed(seed, 0x14),
                ..Default::default()
            },
            fig15: Default::default(),
            fig16: Default::default(),
            fig17: exp::fig17::Fig17Params {
                seed: derive_seed(seed, 0x17),
                ..Default::default()
            },
            scrambler_frames: 1000,
        };
        if setup {
            p.fig11.packets_per_location = 1;
            p.fig13.frames = 1;
            p.fig14.packets_per_location = 1;
            p.fig17.payloads_per_distance = 1;
        }
        p
    }

    /// Waveform packets and frames the suite synthesizes and decodes:
    /// Fig. 11's 802.11b packets, Fig. 13's AM-OFDM frames, Fig. 14's
    /// ZigBee packets and Fig. 17's card-to-card payloads.
    pub fn waveform_packets(&self) -> u64 {
        (2 * self.fig11.locations * self.fig11.packets_per_location
            + self.fig13.distances_ft.len() * self.fig13.frames
            + self.fig14.distances_ft.len() * self.fig14.packets_per_location
            + self.fig17.distances_in.len() * self.fig17.payloads_per_distance) as u64
    }
}

/// What the suite produced.
pub struct SuiteOut {
    /// Every runner's report, concatenated in suite order.
    pub text: String,
    /// Fig. 11's per-location PER points.
    pub fig11: Vec<exp::fig11::PerPoint>,
    /// Fig. 11 and Fig. 14 packets that decoded.
    pub decoded: u64,
}

/// Runs the suite in `run_experiments` order, one span per runner.
pub fn run_suite(
    p: &SuiteParams,
    spans: &mut Spans,
) -> Result<SuiteOut, interscatter::sim::SimError> {
    let mut text = String::new();
    let r = spans.time("sim.fig06", || exp::fig06::run(&p.fig06))?;
    text.push_str(&exp::fig06::report(&r));
    let r = spans.time("sim.fig09", || exp::fig09::run(p.fig09_seed))?;
    text.push_str(&exp::fig09::report(&r));
    let r = spans.time("sim.packet_fit", exp::packet_fit::run);
    text.push_str(&exp::packet_fit::report(&r));
    let r = spans.time("sim.fig10", || exp::fig10::run(&p.fig10))?;
    text.push_str(&exp::fig10::report(&r));
    let fig11 = spans.time("sim.fig11", || exp::fig11::run(&p.fig11))?;
    text.push_str(&exp::fig11::report(&fig11));
    let r = spans.time("sim.fig12", || exp::fig12::run(&p.fig12))?;
    text.push_str(&exp::fig12::report(&r));
    let r = spans.time("sim.fig13", || exp::fig13::run(&p.fig13))?;
    text.push_str(&exp::fig13::report(&r));
    let (fig14, cdf) = spans.time("sim.fig14", || exp::fig14::run(&p.fig14))?;
    text.push_str(&exp::fig14::report(&fig14, &cdf));
    let r = spans.time("sim.fig15", || exp::fig15::run(&p.fig15))?;
    text.push_str(&exp::fig15::report(&r));
    let r = spans.time("sim.fig16", || exp::fig16::run(&p.fig16))?;
    text.push_str(&exp::fig16::report(&r));
    let r = spans.time("sim.fig17", || exp::fig17::run(&p.fig17))?;
    text.push_str(&exp::fig17::report(&r));
    let (rows, points) = spans.time("sim.power", exp::power::run);
    text.push_str(&exp::power::report(&rows, &points));
    let r = spans.time("sim.scrambler_seed", || {
        exp::scrambler_seed::run(p.scrambler_frames)
    });
    text.push_str(&exp::scrambler_seed::report(&r));
    let r = spans.time(
        "sim.ablations",
        || -> Result<String, interscatter::sim::SimError> {
            let square = exp::ablations::square_wave_ablation()?;
            let guards =
                exp::ablations::guard_interval_ablation(&[0.0, 4e-6, 20e-6, 100e-6, 200e-6]);
            let shifts = exp::ablations::shift_ablation(&[22e6, 35.75e6, 36e6, 60e6]);
            Ok(exp::ablations::report(&square, &guards, &shifts))
        },
    )?;
    text.push_str(&r);

    let decoded = |share: f64, packets: usize| (share * packets as f64).round() as u64;
    let decoded = fig11
        .iter()
        .map(|pt| decoded(1.0 - pt.per, p.fig11.packets_per_location))
        .chain(
            fig14
                .iter()
                .map(|row| decoded(row.delivery_ratio, p.fig14.packets_per_location)),
        )
        .sum();
    Ok(SuiteOut {
        text,
        fig11,
        decoded,
    })
}

/// Checks a suite op and digests its report text.
pub fn paper_check(params: &SuiteParams, suite: &SuiteOut) -> Outcome {
    let mut out = Outcome {
        digest: fnv1a(&suite.text),
        work: params.waveform_packets(),
        problems: Vec::new(),
    };
    // Physical sanity: Fig. 11's strongest location (about -55 dBm)
    // decodes every packet at both rates.
    for rate in [DsssRate::Mbps2, DsssRate::Mbps11] {
        let strongest = suite
            .fig11
            .iter()
            .filter(|p| p.rate == rate)
            .max_by(|a, b| a.rssi_dbm.total_cmp(&b.rssi_dbm));
        out.check(strongest.is_some_and(|p| p.per == 0.0), || {
            format!("paper: Fig. 11 strongest {rate:?} location lost packets: {strongest:?}")
        });
    }
    out
}

fn paper_op(seed: u64, setup: bool, spans: &mut Spans) -> Outcome {
    let params = SuiteParams::new(seed, setup);
    match run_suite(&params, spans) {
        Ok(suite) => paper_check(&params, &suite),
        Err(e) => Outcome::failed(format!("paper suite: {e}")),
    }
}
