//! The traced run (`--trace 1`): per-layer numbers, measured from outside
//! the program.
//!
//! Every number here comes from the benchmark's own code: spans around
//! calls into each layer's public API, the `net::prof` phases the program
//! already records when `ExecutionSection::profile(true)` is set, counters
//! read from the run results and `ShardLoad`, and small probes of each
//! layer's public API sized like the workload. The program itself is not
//! instrumented.
//!
//! The pass covers every layer, so it runs the op of every workload,
//! whichever `--workload` names. Layer → end-to-end metric each number
//! should move is written down in `benchmark/README.md`.

use std::collections::VecDeque;
use std::hint::black_box;

use interscatter::net::engine::NetworkSim;
use interscatter::net::entities::streams::trial_seed;
use interscatter::net::event::{EventKind, EventQueue};
use interscatter::net::links::{LinkMatrix, Listener};
use interscatter::net::medium::{Band, Emitter, Medium};
use interscatter::net::prelude::*;
use interscatter::net::prof::ProfSummary;
use interscatter::net::sched::SlotView;
use interscatter::sim::downlink::DownlinkScenario;
use interscatter::sim::uplink::UplinkScenario;
use rand::SeedableRng;

use crate::clock::{self, Stopwatch};
use crate::json::Obj;
use crate::workloads::{self, derive_seed, Outcome, SuiteParams, Workload};

/// One closed span: a named call into a layer, timed from outside.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Index of the enclosing span, `None` at the top.
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

/// The span recorder. Switched off, [`Spans::time`] only calls through.
#[derive(Debug)]
pub struct Spans {
    clock: Option<Stopwatch>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans {
            clock: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder timing spans against `clock`.
    fn on(clock: Stopwatch) -> Spans {
        Spans {
            clock: Some(clock),
            ..Spans::off()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.clock.is_some()
    }

    /// Opens a span named `name` inside the innermost open one; returns
    /// its index. No-op (index 0) when switched off.
    fn begin(&mut self, name: &str) -> usize {
        let Some(clock) = self.clock else {
            return 0;
        };
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_s: clock.secs(),
            end_s: f64::NAN,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span.
    fn end(&mut self) {
        if let (Some(clock), Some(id)) = (self.clock, self.open.pop()) {
            self.spans[id].end_s = clock.secs();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// Index of the last span opened.
    fn last(&self) -> usize {
        self.spans.len() - 1
    }

    fn secs(&self, id: usize) -> f64 {
        self.spans[id].end_s - self.spans[id].start_s
    }

    /// Seconds of the direct children of span `id` named `name`.
    fn child_secs(&self, id: usize, name: &str) -> f64 {
        self.children(id)
            .filter(|&c| self.spans[c].name == name)
            .map(|c| self.secs(c))
            .sum()
    }

    fn children(&self, id: usize) -> impl Iterator<Item = usize> + '_ {
        (id + 1..self.spans.len()).filter(move |&c| self.spans[c].parent == Some(id))
    }

    /// Share of span `id` its direct children cover.
    fn coverage(&self, id: usize) -> f64 {
        self.children(id).map(|c| self.secs(c)).sum::<f64>() / self.secs(id)
    }

    fn to_json(&self) -> String {
        let items: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let mut o = Obj::new();
                o.str("name", &s.name);
                o.raw("parent", s.parent.map_or("null".into(), |p| p.to_string()));
                o.num("start_s", s.start_s);
                o.num("end_s", s.end_s);
                o.finish()
            })
            .collect();
        format!("[{}]", items.join(","))
    }
}

/// The per-layer metrics, in the order they were measured.
#[derive(Default)]
struct Layers {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failures: Vec<String>,
}

impl Layers {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn count(&mut self, name: &str, value: u64) {
        self.put(name, value as f64, "count");
    }

    /// Value of a metric measured earlier in the run.
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Records a check that could not run or did not pass.
    fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failures.push(what);
    }

    /// Records one checked op.
    fn record(&mut self, what: &str, out: &Outcome, reference: u64) {
        self.attempted += 1;
        let mut problems = out.problems.clone();
        if problems.is_empty() && out.digest != reference {
            problems.push("digest differs from the untraced op's".into());
        }
        if !problems.is_empty() {
            self.failures
                .push(format!("{what}: {}", problems.join("; ")));
        }
    }
}

/// Layers whose numbers the public API does not expose, with the reason.
/// The traced run names them instead of reaching into internals.
const UNMEASURABLE: [(&str, &str); 5] = [
    (
        "event.peak_depth",
        "each cell's EventQueue lives inside the engine core, which exposes no queue depth; \
         event.push_pop_ns.* drive a standalone EventQueue at the workload's depth instead",
    ),
    (
        "medium.candidate_visits",
        "Medium counts no per-band candidate visits; medium.* time its public calls instead",
    ),
    (
        "links.lazy_pair_evals",
        "LinkMatrix counts no lazy pair-power evaluations; links.power_query_ns.* time the \
         public power_dbm query instead",
    ),
    (
        "telemetry.dispatches",
        "the per-event telemetry dispatch runtime is private to the engine",
    ),
    (
        "shard.epoch_wall_s",
        "the profile records per-cell busy time, not the wall time of each epoch barrier; \
         shard.barrier_wait_s is derived from per-cell busy time and the shard chunking",
    ),
];

/// Untraced and traced ops per workload for the overhead estimate.
const OVERHEAD_REPS: usize = 3;

/// The traced run. It covers every layer, so it runs every workload's op,
/// whichever workload the command line names.
pub fn run(seed: u64) -> Obj {
    let clock = Stopwatch::start();
    let mut spans = Spans::on(clock);
    let mut layers = Layers::default();

    // Memory right after the campus set-up, before anything else ran in
    // this process.
    let setup = Workload::Campus.op(seed, true, &mut Spans::off());
    layers.record("campus set-up", &setup, setup.digest);
    layers.put("mem.rss_after_setup_mb", clock::peak_rss_mib(), "MB");

    campus_layers(seed, &mut spans, &mut layers);
    ward_layers(seed, &mut spans, &mut layers);
    paper_layers(seed, &mut spans, &mut layers);
    net_probes(seed, &mut spans, &mut layers);
    phy_probes(seed, &mut spans, &mut layers);

    let mut metrics = Obj::new();
    for (name, value, unit) in &layers.metrics {
        let mut m = Obj::new();
        m.num("value", *value);
        m.str("unit", unit);
        metrics.obj(name, m);
    }
    let unmeasurable: Vec<String> = UNMEASURABLE
        .iter()
        .map(|(metric, reason)| {
            let mut o = Obj::new();
            o.str("metric", metric);
            o.str("reason", reason);
            o.finish()
        })
        .collect();
    let mut obj = Obj::new();
    obj.int("seed", seed);
    obj.int("attempted", layers.attempted);
    obj.int("failed", layers.failures.len() as u64);
    obj.strs("failures", &layers.failures);
    obj.obj("metrics", metrics);
    obj.raw("unmeasurable", format!("[{}]", unmeasurable.join(",")));
    obj.raw("spans", spans.to_json());
    obj
}

/// Runs [`OVERHEAD_REPS`] pairs of an untraced op of `w` and `traced` (the
/// same op with spans, inside a root span named after the workload),
/// alternating so both see the same host conditions. Records the tracing
/// overhead and the root span's coverage by its children; returns the last
/// traced op's root span and result, and the first untraced op's outcome,
/// which the traced op must reproduce.
fn traced<R>(
    w: Workload,
    seed: u64,
    spans: &mut Spans,
    layers: &mut Layers,
    mut traced: impl FnMut(&mut Spans) -> R,
) -> (usize, R, Outcome) {
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut reference: Option<Outcome> = None;
    let mut last = None;
    for _ in 0..OVERHEAD_REPS {
        let (out, s) = clock::timed(|| w.op(seed, false, &mut Spans::off()));
        let digest = reference.get_or_insert_with(|| out.clone()).digest;
        layers.record(w.name(), &out, digest);
        plain_s.push(s);

        let root = spans.begin(w.name());
        let result = traced(spans);
        spans.end();
        traced_s.push(spans.secs(root));
        last = Some((root, result));
    }
    let (root, result) = last.expect("at least one rep");
    let short = match w {
        Workload::Campus => "campus",
        Workload::Ward => "ward",
        Workload::Paper => "paper",
    };
    layers.put(
        &format!("trace.overhead_frac.{short}"),
        median(&mut traced_s) / median(&mut plain_s) - 1.0,
        "ratio",
    );
    layers.put(
        &format!("trace.span_coverage.{short}"),
        spans.coverage(root),
        "ratio",
    );
    (root, result, reference.expect("at least one rep"))
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn phase_s(summary: &ProfSummary, phase: &str) -> f64 {
    summary
        .phase_totals_ns
        .iter()
        .filter(|(name, _)| name == phase)
        .map(|(_, ns)| *ns as f64 * 1e-9)
        .sum()
}

/// The engine counters of one or more runs.
fn put_counts(layers: &mut Layers, suffix: &str, events: u64, runs: &[&NetworkMetrics]) {
    let sum = |f: &dyn Fn(&NetworkMetrics) -> usize| runs.iter().map(|m| f(m) as u64).sum::<u64>();
    layers.count(&format!("count.engine_events.{suffix}"), events);
    layers.count(
        &format!("count.offered.{suffix}"),
        sum(&|m| m.offered_packets()),
    );
    layers.count(&format!("count.attempts.{suffix}"), sum(&|m| m.attempts()));
    layers.count(
        &format!("count.delivered.{suffix}"),
        sum(&|m| m.delivered_packets()),
    );
    layers.count(
        &format!("count.csma_defers.{suffix}"),
        sum(&|m| m.tags.iter().map(|t| t.csma_defers).sum()),
    );
    layers.count(&format!("count.polls.{suffix}"), sum(&|m| m.polls()));
    layers.count(&format!("count.grants.{suffix}"), sum(&|m| m.grants()));
}

fn campus_layers(seed: u64, spans: &mut Spans, layers: &mut Layers) {
    let w = Workload::Campus;
    let (root, run, reference) = traced(w, seed, spans, layers, |spans| {
        workloads::campus_run(seed, false, spans)
    });
    let (scenario, result) = match run {
        Ok(r) => r,
        Err(e) => {
            layers.fail(e);
            return;
        }
    };
    layers.record(
        "campus traced",
        &workloads::campus_check(&scenario, &result, false),
        reference.digest,
    );
    let run_s = spans.child_secs(root, "net.run");
    layers.put(
        "scenario.build_s",
        spans.child_secs(root, "scenario.build"),
        "s",
    );

    let events = result.telemetry.events;
    let m = &result.metrics;
    let (Some(prof), Some(load)) = (&result.prof, &m.shard_load) else {
        layers.fail("campus: profiled multi-cell run has no profile or shard load".into());
        return;
    };
    let summary = prof.summary();
    let busy_ns: u64 = summary.cells.iter().map(|c| c.busy_ns).sum();
    layers.put("shard.partition_s", phase_s(&summary, "partition"), "s");
    layers.put("shard.exchange_s", summary.exchange_ns as f64 * 1e-9, "s");
    layers.put(
        "shard.merge_finalize_s",
        summary.merge_ns as f64 * 1e-9,
        "s",
    );
    layers.put("shard.epoch_busy_s", busy_ns as f64 * 1e-9, "s");
    layers.put(
        "shard.barrier_wait_s",
        barrier_wait_s(&summary, workloads::CAMPUS_SHARDS),
        "s",
    );
    layers.put(
        "shard.parallel_eff",
        busy_ns as f64 * 1e-9 / (run_s * workloads::CAMPUS_SHARDS as f64),
        "ratio",
    );
    let link_build_s = phase_s(&summary, "link_build");
    layers.put("links.build_s", link_build_s, "s");
    layers.put(
        "links.build_ns_per_tag",
        link_build_s * 1e9 / scenario.tags.len() as f64,
        "ns",
    );
    layers.put(
        "net.ns_per_event.campus",
        busy_ns as f64 / events as f64,
        "ns",
    );
    layers.count("shard.cells", load.cell_events.len() as u64);
    layers.put("shard.load_fairness", load.load_fairness(), "ratio");
    layers.put("shard.epoch_skew", load.epoch_skew().0, "ratio");
    layers.count("shard.ghost_windows", load.ghost_windows.iter().sum());
    put_counts(layers, "campus", events, &[m]);

    // The outcome gap between the sharded run and the exact single engine
    // on the same scenario and seed. A speed change that moves it changed
    // the model.
    match spans.time("campus.exact_engine", || {
        NetworkSim::new(&scenario, seed).with_trace(false).run()
    }) {
        Ok(exact) => layers.put(
            "shard.per_gap",
            (m.per() - exact.metrics.per()).abs(),
            "ratio",
        ),
        Err(e) => layers.fail(format!("campus exact engine: {e}")),
    }
}

/// Time shards spent waiting at the epoch barrier: per epoch, each shard's
/// busy time against the busiest shard's. Shards own contiguous chunks of
/// `ceil(cells / shards)` cells, the chunking `rayon::det` documents.
fn barrier_wait_s(summary: &ProfSummary, shards: usize) -> f64 {
    let cells = summary.cells.len();
    if cells == 0 {
        return 0.0;
    }
    let chunk = cells.div_ceil(shards.max(1));
    let epochs = summary
        .cells
        .iter()
        .flat_map(|c| c.epochs.iter().map(|(e, _)| *e))
        .max()
        .map_or(0, |e| e as usize + 1);
    let mut group_busy = vec![vec![0u64; cells.div_ceil(chunk)]; epochs];
    for (i, cell) in summary.cells.iter().enumerate() {
        for &(epoch, ns) in &cell.epochs {
            group_busy[epoch as usize][i / chunk] += ns;
        }
    }
    let wait_ns: u64 = group_busy
        .iter()
        .map(|groups| {
            let max = groups.iter().copied().max().unwrap_or(0);
            groups.iter().map(|g| max - g).sum::<u64>()
        })
        .sum();
    wait_ns as f64 * 1e-9
}

fn ward_layers(seed: u64, spans: &mut Spans, layers: &mut Layers) {
    let w = Workload::Ward;
    let (root, run, reference) = traced(w, seed, spans, layers, |spans| {
        workloads::ward_run(seed, false, spans)
    });
    let (scenario, report) = match run {
        Ok(r) => r,
        Err(e) => {
            layers.fail(e);
            return;
        }
    };
    layers.record(
        "ward traced",
        &workloads::ward_check(&report, false),
        reference.digest,
    );
    let trials_s = spans.child_secs(root, "net.run_trials");

    // The same trials one at a time, on this thread: per-trial cost, and
    // the engine event counts the Monte-Carlo report does not carry.
    let mut trial_s = Vec::new();
    let mut events = 0;
    for (i, pooled) in report.trials.iter().enumerate() {
        let run = spans.time("ward.serial_trial", || {
            interscatter::net::run(&scenario, trial_seed(seed, i))
        });
        trial_s.push(spans.secs(spans.last()));
        match run {
            Ok(r) => {
                events += r.telemetry.events;
                if r.metrics.report() == pooled.report() {
                    layers.attempted += 1;
                } else {
                    layers.fail(format!(
                        "ward trial {i}: serial run differs from run_trials"
                    ));
                }
            }
            Err(e) => layers.fail(format!("ward serial trial {i}: {e}")),
        }
    }
    let serial_s: f64 = trial_s.iter().sum();
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(workloads::WARD_TRIALS);
    layers.put(
        "runner.trial_s_max",
        trial_s.iter().copied().fold(0.0, f64::max),
        "s",
    );
    layers.put("runner.trial_s_p50", median(&mut trial_s), "s");
    layers.put(
        "runner.parallel_eff",
        serial_s / (trials_s * threads as f64),
        "ratio",
    );

    let epoch_s: f64 = report.prof.iter().map(|p| phase_s(p, "epoch")).sum();
    layers.put("net.ns_per_event.ward", epoch_s * 1e9 / events as f64, "ns");
    let trials: Vec<&NetworkMetrics> = report.trials.iter().collect();
    put_counts(layers, "ward", events, &trials);
}

fn paper_layers(seed: u64, spans: &mut Spans, layers: &mut Layers) {
    let w = Workload::Paper;
    let params = SuiteParams::new(seed, false);
    let (root, run, reference) = traced(w, seed, spans, layers, |spans| {
        workloads::run_suite(&params, spans)
    });
    let suite = match run {
        Ok(s) => s,
        Err(e) => {
            layers.fail(format!("paper suite: {e}"));
            return;
        }
    };
    layers.record(
        "paper traced",
        &workloads::paper_check(&params, &suite),
        reference.digest,
    );
    let runners: Vec<(String, f64)> = spans
        .children(root)
        .map(|c| (spans.spans[c].name.clone(), spans.secs(c)))
        .collect();
    for (name, secs) in runners {
        layers.put(&format!("{name}_s"), secs, "s");
    }
    layers.count("count.waveform_packets", params.waveform_packets());
    layers.count("count.decoded_packets", suite.decoded);
}

/// Median seconds per call of `f` over `reps` batches of `batch` calls,
/// inside one span named `name`.
fn per_call(
    spans: &mut Spans,
    name: &str,
    reps: usize,
    batch: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    spans.time(name, || {
        let mut secs: Vec<f64> = (0..reps)
            .map(|r| {
                let (_, s) = clock::timed(|| {
                    for i in 0..batch {
                        f(r * batch + i);
                    }
                });
                s / batch as f64
            })
            .collect();
        median(&mut secs)
    })
}

/// A deterministic pseudo-random stream for the probes' inputs.
fn mix(i: usize) -> u64 {
    derive_seed(i as u64, 0x1a7e)
}

/// The event queue in hold mode: `depth` pending events, each pop followed
/// by one push a random gap later (mean gap `horizon / events`).
fn queue_push_pop_ns(spans: &mut Spans, name: &str, depth: usize, mean_gap_ns: u64) -> f64 {
    let mut queue = EventQueue::new();
    let span = (2 * mean_gap_ns).max(2);
    for i in 0..depth {
        let at = Time::from_nanos(mix(i) % (span * depth as u64 / 2).max(1));
        queue.schedule(at, EventKind::PacketArrival { tag: i });
    }
    let batch = 100_000;
    per_call(spans, name, 7, batch, |i| {
        let ev = queue.pop().expect("hold mode keeps the queue full");
        let at = ev.at.after_nanos(mix(i) % span);
        queue.schedule(at, ev.kind);
    }) * 1e9
}

fn net_probes(seed: u64, spans: &mut Spans, layers: &mut Layers) {
    let (campus, ward) = match (
        workloads::campus_scenario(false, false),
        workloads::ward_scenario(false, false),
    ) {
        (Ok(c), Ok(w)) => (c, w),
        (Err(e), _) | (_, Err(e)) => {
            layers.fail(format!("probe scenarios: {e}"));
            return;
        }
    };

    // Event queue, at each workload's pending-event depth (one pending
    // arrival per tag, one slot per carrier, coex starts and the horizon;
    // each campus cell owns its queue) and mean gap between events (the
    // horizon over the events the op handled per queue).
    let cells = interscatter::net::shard::partition(&campus).len().max(1);
    let campus_depth = (campus.tags.len() + campus.carriers.len() + 4) / cells;
    let campus_events = layers.get("count.engine_events.campus").unwrap_or(1e5) / cells as f64;
    let campus_gap = (campus.duration_s * 1e9 / campus_events) as u64;
    let ward_depth = ward.tags.len() + ward.carriers.len() + 2;
    let ward_events =
        layers.get("count.engine_events.ward").unwrap_or(1.7e6) / workloads::WARD_TRIALS as f64;
    let ward_gap = (ward.duration_s * 1e9 / ward_events) as u64;
    let v = queue_push_pop_ns(spans, "event.campus", campus_depth, campus_gap);
    layers.put("event.push_pop_ns.campus", v, "ns");
    let v = queue_push_pop_ns(spans, "event.ward", ward_depth, ward_gap);
    layers.put("event.push_pop_ns.ward", v, "ns");

    // Link matrices: pair-power queries on the lazy (campus) and dense
    // (ward) layouts, and the ward's per-tick row refresh.
    let campus_links = spans.time("links.campus_build", || LinkMatrix::build(&campus));
    let ward_links = spans.time("links.ward_build", || LinkMatrix::build(&ward));
    let (campus_links, mut ward_links) = match (campus_links, ward_links) {
        (Ok(c), Ok(w)) => (c, w),
        (Err(e), _) | (_, Err(e)) => {
            layers.fail(format!("probe link matrices: {e}"));
            return;
        }
    };
    let pair_query = |links: &LinkMatrix, tags: usize, receivers: usize, i: usize| {
        let (a, b) = (
            (mix(i) % tags as u64) as usize,
            (mix(i + 1) % tags as u64) as usize,
        );
        let at = if i.is_multiple_of(2) {
            Listener::Tag(b)
        } else {
            Listener::Receiver(b % receivers)
        };
        black_box(links.power_dbm(Emitter::Tag(a), at));
    };
    let (n, r) = (campus.tags.len(), campus.receivers.len());
    let v = per_call(spans, "links.campus_query", 7, 20_000, |i| {
        pair_query(&campus_links, n, r, i)
    });
    layers.put("links.power_query_ns.campus", v * 1e9, "ns");
    let (n, r) = (ward.tags.len(), ward.receivers.len());
    let v = per_call(spans, "links.ward_query", 7, 200_000, |i| {
        pair_query(&ward_links, n, r, i)
    });
    layers.put("links.power_query_ns.ward", v * 1e9, "ns");

    // One mobility tick: every tag moves a few centimetres, then flush.
    let home: Vec<Position> = (0..ward.tags.len())
        .map(|t| ward_links.position(EntityId::Tag(t)))
        .collect();
    let mut rows = 0;
    let v = per_call(spans, "links.ward_flush", 7, 50, |i| {
        let dx = if i % 2 == 0 { 0.05 } else { 0.0 };
        for (t, p) in home.iter().enumerate() {
            ward_links.set_position(EntityId::Tag(t), Position::new(p.x + dx, p.y, p.z));
        }
        rows = ward_links.flush(&ward);
    });
    layers.put("links.flush_us", v * 1e6, "us");
    layers.count("links.flush_rows", rows as u64);

    // The medium with ward-like traffic on the air: busy checks and
    // start/finish pairs across the three Wi-Fi channels and a BLE tone.
    let bands = [
        Band::new(2.412e9, 22e6),
        Band::new(2.437e9, 22e6),
        Band::new(2.462e9, 22e6),
        Band::new(2.426e9, 2e6),
    ];
    let mut medium = Medium::new();
    let on_air = 8;
    let far = Time::from_secs(10.0);
    let mut live: VecDeque<u64> = (0..on_air)
        .map(|k| {
            medium.start(
                Emitter::Tag(k),
                bands[k % bands.len()],
                None,
                Time::ZERO,
                far,
            )
        })
        .collect();
    let v = per_call(spans, "medium.busy", 7, 100_000, |i| {
        black_box(medium.busy(bands[i % bands.len()], Time::from_nanos(i as u64)));
    });
    layers.put("medium.busy_ns", v * 1e9, "ns");
    // Hold mode: each new emission ends the oldest, so `on_air` stay on
    // the air and each emission overlaps a bounded number of others.
    let v = per_call(spans, "medium.start_finish", 7, 100_000, |i| {
        let now = Time::from_nanos(i as u64);
        if let Some(oldest) = live.pop_front() {
            black_box(medium.finish(oldest));
        }
        live.push_back(medium.start(
            Emitter::Tag(i % 64),
            bands[i % bands.len()],
            None,
            now,
            now.after_nanos(500_000),
        ));
    });
    layers.put("medium.start_finish_ns", v * 1e9, "ns");

    // The margin-aware scheduler picking among a 100-tag backlog on the
    // ward's live link margins.
    let members: Vec<usize> = (0..ward.tags.len()).collect();
    let mut sched = CarrierSched::new(SchedPolicy::margin_aware(), members, 0);
    let backlog = |t: usize| Some(Time::from_nanos(t as u64));
    let v = per_call(spans, "sched.pick", 7, 20_000, |i| {
        let view = SlotView {
            now: Time::from_nanos(1_000_000 + i as u64),
            links: &ward_links,
            occupancy: 0.0,
        };
        black_box(sched.pick(&backlog, &view));
    });
    layers.put("sched.pick_ns", v * 1e9, "ns");

    // Streaming latency sketch, the campus's per-sample metrics path.
    let mut sketch = LatencySketch::new();
    let v = per_call(spans, "telemetry.sketch", 7, 200_000, |i| {
        sketch.add(0.5 + (mix(i ^ seed as usize) % 100_000) as f64 * 1e-3);
    });
    black_box(sketch.count());
    layers.put("telemetry.sketch_record_ns", v * 1e9, "ns");
}

fn phy_probes(seed: u64, spans: &mut Spans, layers: &mut Layers) {
    use interscatter::backscatter::ssb;
    use interscatter::dsp::iq::tone;
    use interscatter::dsp::spectrum::{welch_psd, WelchConfig};
    use interscatter::dsp::units::db_to_amplitude;
    use interscatter::wifi::dot11b::{Dot11bReceiver, Dot11bTransmitter, DsssRate};
    use interscatter::wifi::ofdm::am::{craft_data_bits, symbol_schedule};
    use interscatter::wifi::ofdm::symbol::SYMBOL_LEN;
    use interscatter::wifi::ofdm::OfdmTransmitter;
    use interscatter::zigbee::{ZigbeeReceiver, ZigbeeTransmitter};

    let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(seed, 0xf1));

    // 802.11b, shaped like Fig. 11's packets at its strongest location.
    let uplink = UplinkScenario::fig10_bench(4.0, 1.0, 10.0);
    let noise = uplink.noise_model();
    let amplitude = db_to_amplitude(-60.0);
    let mut dot11b =
        |rate, len: usize, tx_name: Option<&str>, rx_name: &str, layers: &mut Layers| {
            let payload: Vec<u8> = (0..len).map(|i| (i * 7 % 251) as u8).collect();
            let tx = Dot11bTransmitter::new(rate);
            if let Some(name) = tx_name {
                let v = per_call(spans, "wifi.dot11b_tx", 5, 20, |_| {
                    black_box(tx.transmit(&payload).ok());
                });
                layers.put(name, v * 1e6, "us");
            }
            let Ok(frame) = tx.transmit(&payload) else {
                return None;
            };
            let scaled: Vec<_> = frame.chips.iter().map(|&c| c * amplitude).collect();
            let noisy = noise.add_noise(&scaled, &mut rng);
            let rx = Dot11bReceiver::default();
            let decoded = rx.receive(&noisy).is_ok_and(|r| r.payload == payload);
            let v = per_call(spans, "wifi.dot11b_rx", 5, 4, |_| {
                black_box(rx.receive(&noisy).ok());
            });
            layers.put(rx_name, v * 1e6, "us");
            Some((scaled, decoded))
        };
    if dot11b(DsssRate::Mbps2, 31, None, "wifi.dot11b_rx_2mbps_us", layers).map(|(_, ok)| ok)
        != Some(true)
    {
        layers.fail("PHY probe: 2 Mbps packet at -60 dBm did not decode".into());
    }
    match dot11b(
        DsssRate::Mbps11,
        77,
        Some("wifi.dot11b_tx_us"),
        "wifi.dot11b_rx_11mbps_us",
        layers,
    ) {
        Some((scaled, ok)) => {
            if !ok {
                layers.fail("PHY probe: 11 Mbps packet at -60 dBm did not decode".into());
            }
            let v = per_call(spans, "channel.awgn", 5, 20, |_| {
                black_box(noise.add_noise(&scaled, &mut rng));
            });
            layers.put("channel.awgn_us", v * 1e6, "us");
        }
        None => layers.fail("PHY probe: 802.11b transmit failed".into()),
    }

    // The AM-OFDM downlink of Fig. 13: craft and transmit one 32-bit
    // frame, then decode it at the tag's envelope detector.
    let downlink = DownlinkScenario::fig13_bench(20.0);
    let seed_byte = 0x2c;
    let bits: Vec<u8> = (0..32).map(|i| ((i * 5 + 1) % 3 == 0) as u8).collect();
    let schedule = symbol_schedule(&bits);
    let tx = OfdmTransmitter::new(downlink.rate, seed_byte);
    let v = per_call(spans, "wifi.ofdm_am_tx", 5, 20, |_| {
        let data = craft_data_bits(downlink.rate, seed_byte, &schedule, &mut rng);
        black_box(tx.transmit_raw_bits(&data).ok());
    });
    layers.put("wifi.ofdm_am_tx_us", v * 1e6, "us");
    let data = craft_data_bits(downlink.rate, seed_byte, &schedule, &mut rng);
    match tx.transmit_raw_bits(&data) {
        Ok(frame) => {
            let amplitude = db_to_amplitude(downlink.received_power_dbm(1.5));
            let attenuated: Vec<_> = frame.samples.iter().map(|&s| s * amplitude).collect();
            let noisy = interscatter::channel::noise::NoiseModel::envelope_detector()
                .add_noise(&attenuated, &mut rng);
            let v = per_call(spans, "backscatter.envelope_decode", 5, 20, |_| {
                black_box(
                    downlink
                        .detector
                        .decode_am_downlink(&noisy, SYMBOL_LEN)
                        .ok(),
                );
            });
            layers.put("backscatter.envelope_decode_us", v * 1e6, "us");
        }
        Err(e) => layers.fail(format!("PHY probe: OFDM transmit: {e}")),
    }

    // ZigBee, shaped like Fig. 14's 20-byte packets.
    let payload: Vec<u8> = (0..20).map(|i| (i * 3 % 251) as u8).collect();
    let ztx = ZigbeeTransmitter::default();
    let v = per_call(spans, "zigbee.tx", 5, 20, |_| {
        black_box(ztx.transmit(&payload).ok());
    });
    layers.put("zigbee.tx_us", v * 1e6, "us");
    match ztx.transmit(&payload) {
        Ok(wave) => {
            let zigbee = UplinkScenario::fig14_zigbee(3.0);
            let amplitude = db_to_amplitude(zigbee.rssi_dbm());
            let scaled: Vec<_> = wave.samples.iter().map(|&c| c * amplitude).collect();
            let noisy = zigbee.noise_model().add_noise(&scaled, &mut rng);
            let rx = ZigbeeReceiver::default();
            let v = per_call(spans, "zigbee.rx", 5, 20, |_| {
                black_box(rx.receive(&noisy).ok());
            });
            layers.put("zigbee.rx_us", v * 1e6, "us");
        }
        Err(e) => layers.fail(format!("PHY probe: ZigBee transmit: {e}")),
    }

    // Fig. 6's single-sideband shift and Welch PSD.
    let params = interscatter::sim::experiments::fig06::Fig06Params::default();
    let carrier = tone(0.0, params.sample_rate, params.num_samples, 0.0);
    let cfg = ssb::SsbConfig::new(params.sample_rate, params.shift_hz);
    let v = per_call(spans, "backscatter.ssb_shift", 5, 3, |_| {
        black_box(ssb::shift_tone(&cfg, &carrier).ok());
    });
    layers.put("backscatter.ssb_shift_us", v * 1e6, "us");
    match ssb::shift_tone(&cfg, &carrier) {
        Ok(wave) => {
            let welch = WelchConfig::default();
            let v = per_call(spans, "dsp.welch_psd", 5, 3, |_| {
                black_box(welch_psd(&wave, params.sample_rate, &welch).ok());
            });
            layers.put("dsp.welch_psd_us", v * 1e6, "us");
        }
        Err(e) => layers.fail(format!("PHY probe: SSB shift: {e}")),
    }
}
