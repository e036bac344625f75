//! Host-side readings: the wall clock, process CPU time and memory. This is
//! the one module of the benchmark that reads the host clock or `/proc`.

// detlint: allow(wall_clock): a benchmark measures host time by design
use std::time::Instant;

/// A stopwatch started at construction.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    // detlint: allow(wall_clock): the stopwatch's anchor
    start: Instant,
}

impl Stopwatch {
    /// Starts a stopwatch now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            // detlint: allow(wall_clock): the stopwatch's anchor
            start: Instant::now(),
        }
    }

    /// Seconds since the stopwatch started.
    pub fn secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Times `f`: `(result, seconds)`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let watch = Stopwatch::start();
    let result = f();
    (result, watch.secs())
}

/// `/proc` reports CPU time in clock ticks of `USER_HZ`, which Linux fixes
/// at 100 for every user-space interface.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has used so far, all threads
/// (including threads that already exited).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; the numeric fields start after
    // its closing parenthesis. utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(user), Some(sys)) => (user + sys) / USER_HZ,
        _ => f64::NAN,
    }
}

/// A `VmXxx` line of `/proc/self/status`, in MiB.
fn status_mib(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Peak resident set size of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM")
}
