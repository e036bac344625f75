//! The benchmark's workload runner. `run.py` builds and drives it; run it
//! directly as
//!
//! ```text
//! workloads --workload <campus_100k|ward_trials|paper_suite> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times ops of the workload for `--seconds` seconds
//! and prints one JSON object of raw samples: per-op wall seconds, set-up
//! seconds, CPU seconds per op, work per op and peak RSS, plus the ops
//! attempted and the checks they failed. With `--trace 1` it runs the
//! traced pass of `trace.rs` instead, which covers every workload whatever
//! `--workload` names, and prints its spans and per-layer metrics. `run.py`
//! turns either into the benchmark's result line.

#![forbid(unsafe_code)]

mod clock;
mod json;
mod trace;
mod workloads;

use clock::Stopwatch;
use json::Obj;
use trace::Spans;
use workloads::{Outcome, Workload};

/// Set-up runs per measuring run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Timed ops a measuring run makes at least, however long they take.
const MIN_OPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Counts ops and the checks they failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Records one op: its own invariants, and that it reproduced the
    /// `reference` digest of its kind.
    fn record(&mut self, what: &str, out: &Outcome, reference: u64) {
        self.attempted += 1;
        let mut problems = out.problems.clone();
        if out.problems.is_empty() && out.digest != reference {
            problems.push(format!(
                "digest {:016x} differs from the run's first {what} op {reference:016x}",
                out.digest
            ));
        }
        if !problems.is_empty() {
            self.failed += 1;
            // Keep the report short when every op fails the same way.
            if self.failures.len() < 8 {
                self.failures
                    .push(format!("{what}: {}", problems.join("; ")));
            }
        }
    }

    fn write(&self, obj: &mut Obj) {
        obj.int("attempted", self.attempted);
        obj.int("failed", self.failed);
        obj.strs("failures", &self.failures);
    }
}

/// The measuring run: one untimed reference op, after which the peak RSS
/// is read, [`SETUP_REPS`] set-up runs, then timed ops until `seconds`
/// have passed.
fn measure(args: &Args) -> Obj {
    let mut tally = Tally::default();
    let mut off = Spans::off();
    let w = args.workload;

    // The first op warms caches and gives the digest every later op must
    // reproduce.
    let reference = w.op(args.seed, false, &mut off);
    tally.record("full", &reference, reference.digest);
    // The peak memory of one op in a process that has run nothing else.
    // Read after the whole run it would also carry the allocator arenas
    // that later ops' worker threads leave behind (16-32 MB on
    // ward_trials, against 121 MB on campus_100k).
    let peak_rss_mb = clock::peak_rss_mib();

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut setup_reference = None;
    for _ in 0..SETUP_REPS {
        let (out, secs) = clock::timed(|| w.op(args.seed, true, &mut off));
        let first = *setup_reference.get_or_insert(out.digest);
        tally.record("set-up", &out, first);
        setup_s.push(secs);
    }

    let mut op_s = Vec::new();
    let window = Stopwatch::start();
    let cpu_start = clock::process_cpu_s();
    while op_s.len() < MIN_OPS || window.secs() < args.seconds {
        let (out, secs) = clock::timed(|| w.op(args.seed, false, &mut off));
        tally.record("full", &out, reference.digest);
        op_s.push(secs);
    }
    let cpu_s_per_op = (clock::process_cpu_s() - cpu_start) / op_s.len() as f64;

    let mut obj = Obj::new();
    obj.str("workload", w.name());
    obj.int("seed", args.seed);
    obj.str("work_unit", w.work_unit());
    obj.int("work_per_op", reference.work);
    obj.nums("op_s", &op_s);
    obj.nums("setup_s", &setup_s);
    obj.num("cpu_s_per_op", cpu_s_per_op);
    obj.num("peak_rss_mb", peak_rss_mb);
    tally.write(&mut obj);
    obj
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("workloads: {e}");
            std::process::exit(2);
        }
    };
    let obj = if args.trace {
        trace::run(args.seed)
    } else {
        measure(&args)
    };
    println!("{}", obj.finish());
}
