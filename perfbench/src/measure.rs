//! Measurement plumbing shared by the workloads: fixed time windows,
//! reservoir-sampled latencies, owner-written progress slots, the stall
//! watchdog, and small statistics helpers.
//!
//! A run of `--seconds` is cut into [`WINDOWS`] equal windows. Every
//! worker counts each successful acquisition in the window in which the
//! guard was taken and keeps a uniform sample of its latencies there;
//! the supervising thread folds each window into `(p50, p99,
//! acquisitions)` once it has closed. Sample memory and folding work are
//! fixed whatever the throughput. The reported end-to-end value of a
//! metric is the median over windows, which keeps one disturbed window
//! on a shared host from moving it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Windows per measured run.
pub const WINDOWS: usize = 20;

/// No attempt resolving for this long ends the run as stalled.
pub const STALL_WINDOW: Duration = Duration::from_secs(2);

/// Linear-interpolation quantile of ascending `sorted` (`NaN` if empty).
pub fn quantile_sorted<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (a, b) = (sorted[lo].into(), sorted[hi].into());
    a + (b - a) * (pos - lo as f64)
}

/// Median of `values` (`NaN` if empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// Nanoseconds between two instants, saturated into a `u32` sample.
pub fn ns(from: Instant, to: Instant) -> u32 {
    u32::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u32::MAX)
}

/// `p50` and `p99` of one sample set.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Samples summarised.
    pub n: u64,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarise `samples` (sorts them in place); `None` when empty.
    pub fn of(samples: &mut [u32]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        Some(Summary {
            n: samples.len() as u64,
            p50: quantile_sorted(samples, 0.5),
            p99: quantile_sorted(samples, 0.99),
        })
    }
}

/// A uniform sample of at most `cap` values of a stream (Algorithm R,
/// driven by xorshift), so memory and sorting work stay fixed whatever
/// the stream's length.
#[derive(Debug, Default)]
pub struct Reservoir {
    kept: Vec<u32>,
    seen: u64,
    rng: u64,
}

impl Reservoir {
    /// Offer one value; at most `cap` are kept.
    pub fn offer(&mut self, x: u32, cap: usize) {
        self.seen += 1;
        if self.kept.len() < cap {
            self.kept.push(x);
            return;
        }
        // Value number `seen` replaces a kept one with probability
        // cap / seen.
        self.rng |= 1;
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let j = (self.rng % self.seen) as usize;
        if j < cap {
            self.kept[j] = x;
        }
    }
}

/// Spans kept per thread and call site in a traced run.
const SPAN_RESERVOIR: usize = 1 << 18;

/// Span samples of one traced call site, gathered across threads.
#[derive(Debug, Default)]
pub struct Spans(Mutex<(Vec<u32>, u64)>);

impl Spans {
    /// Add what `res` kept and saw.
    pub fn absorb(&self, res: &Reservoir) {
        let mut g = self.0.lock().expect("span sink poisoned");
        g.0.extend_from_slice(&res.kept);
        g.1 += res.seen;
    }

    /// Quantiles of the kept samples, with `n` the spans recorded.
    pub fn summary(&self) -> Option<Summary> {
        let mut g = self.0.lock().expect("span sink poisoned");
        let seen = g.1;
        Summary::of(&mut g.0).map(|s| Summary { n: seen, ..s })
    }

    /// The median as a metric named `name`, with its sample count.
    pub fn p50_metric(&self, name: &'static str) -> crate::Metric {
        let s = self.summary();
        crate::metric(
            name,
            s.map_or(f64::NAN, |s| s.p50),
            "ns",
            s.map_or(0, |s| s.n),
        )
    }
}

/// One thread's spans of one call site, handed to the shared [`Spans`]
/// when dropped.
#[derive(Debug)]
pub struct SpanBuf<'a> {
    sink: &'a Spans,
    res: Reservoir,
}

impl<'a> SpanBuf<'a> {
    /// An empty buffer feeding `sink`.
    pub fn new(sink: &'a Spans) -> Self {
        SpanBuf {
            sink,
            res: Reservoir::default(),
        }
    }

    /// Record one span.
    pub fn push(&mut self, ns: u32) {
        self.res.offer(ns, SPAN_RESERVOIR);
    }
}

impl Drop for SpanBuf<'_> {
    fn drop(&mut self) {
        self.sink.absorb(&self.res);
    }
}

#[derive(Debug, Default)]
struct Bin {
    samples: Vec<u32>,
    acquires: u64,
    summary: Option<Summary>,
    /// Samples that arrived after the window was folded (dropped).
    late: u64,
}

/// The fixed windows of one measured run. Built before set-up; the
/// clock starts at [`begin`](Self::begin).
#[derive(Debug)]
pub struct Windows {
    start: OnceLock<Instant>,
    len: Duration,
    bins: Vec<Mutex<Bin>>,
    /// Sample buffers of folded windows, reused by later ones so the
    /// benchmark's own allocations do not grow or churn over a run.
    spare: Mutex<Vec<Vec<u32>>>,
}

impl Windows {
    /// [`WINDOWS`] windows covering `total`.
    pub fn new(total: Duration) -> Self {
        Windows {
            start: OnceLock::new(),
            len: total / WINDOWS as u32,
            bins: (0..WINDOWS).map(|_| Mutex::default()).collect(),
            spare: Mutex::default(),
        }
    }

    /// Start the clock (idempotent).
    pub fn begin(&self) {
        self.start.get_or_init(Instant::now);
    }

    fn start(&self) -> Instant {
        *self.start.get().expect("windows not begun")
    }

    /// When the last window closes: workers stop starting attempts.
    pub fn end(&self) -> Instant {
        self.start() + self.len * WINDOWS as u32
    }

    fn index(&self, t: Instant) -> Option<usize> {
        let start = self.start();
        let i =
            (t.saturating_duration_since(start).as_nanos() / self.len.as_nanos().max(1)) as usize;
        (t >= start && i < WINDOWS).then_some(i)
    }

    fn push(&self, w: usize, samples: &mut Vec<u32>, acquires: u64) {
        let mut bin = self.bins[w].lock().expect("window bin poisoned");
        bin.acquires += acquires;
        if bin.summary.is_some() {
            bin.late += samples.len() as u64;
        } else {
            if bin.samples.capacity() == 0 {
                if let Some(buf) = self.spare.lock().expect("spare buffers poisoned").pop() {
                    bin.samples = buf;
                }
            }
            bin.samples.extend_from_slice(samples);
        }
        samples.clear();
    }

    fn fold(&self, bin: &mut Bin) {
        if bin.summary.is_none() && !bin.samples.is_empty() {
            bin.summary = Summary::of(&mut bin.samples);
            let mut buf = std::mem::take(&mut bin.samples);
            buf.clear();
            self.spare.lock().expect("spare buffers poisoned").push(buf);
        }
    }

    /// Fold every window that closed at least a quarter-window ago.
    pub fn fold_closed(&self, now: Instant) {
        let Some(&start) = self.start.get() else {
            return;
        };
        for (w, bin) in self.bins.iter().enumerate() {
            let closes = start + self.len * (w as u32 + 1) + self.len / 4;
            if now >= closes {
                self.fold(&mut bin.lock().expect("window bin poisoned"));
            }
        }
    }

    /// Fold the remaining windows and report per-window figures. Every
    /// window is reported: after a stall, the windows the run did not
    /// reach count as windows without acquisitions.
    pub fn finish(&self) -> WindowReport {
        let mut r = WindowReport::default();
        for bin in &self.bins {
            let mut bin = bin.lock().expect("window bin poisoned");
            self.fold(&mut bin);
            r.acquires_per_s
                .push(bin.acquires as f64 / self.len.as_secs_f64());
            if let Some(s) = bin.summary {
                r.samples += s.n;
                r.p50.push(s.p50);
                r.p99.push(s.p99);
            }
            r.late += bin.late;
        }
        r
    }
}

/// Per-window figures of one run (or per-iteration, for `sim_check`).
#[derive(Debug, Default, Clone)]
pub struct WindowReport {
    /// Successful acquisitions per second, per window.
    pub acquires_per_s: Vec<f64>,
    /// Enter-latency median, per window, ns.
    pub p50: Vec<f64>,
    /// Enter-latency 99th percentile, per window, ns.
    pub p99: Vec<f64>,
    /// Latency samples behind the quantiles (kept reservoir samples).
    pub samples: u64,
    /// Samples dropped because they reached a window after it was folded.
    pub late: u64,
}

/// Latency samples one worker keeps per window.
pub const RESERVOIR: usize = 65_536;

/// One worker's samples for its current window, handed to the
/// [`Windows`] when the worker moves to another window or flushes.
#[derive(Debug, Default)]
pub struct Recorder {
    cur: usize,
    res: Reservoir,
}

impl Recorder {
    /// One successful acquisition, guard taken at `held` after `ns`.
    pub fn record(&mut self, windows: &Windows, held: Instant, ns: u32) {
        let Some(w) = windows.index(held) else {
            return;
        };
        if w != self.cur {
            self.flush(windows);
            self.cur = w;
        }
        self.res.offer(ns, RESERVOIR);
    }

    /// Hand the buffered samples to `windows`.
    pub fn flush(&mut self, windows: &Windows) {
        if self.res.seen > 0 {
            windows.push(self.cur, &mut self.res.kept, self.res.seen);
            self.res.seen = 0;
        }
    }
}

/// Attempt counters of one worker (thread or task), written only by
/// that worker and read by the watchdog. Cache-line padded so workers
/// never share a line.
#[repr(align(128))]
#[derive(Debug, Default)]
pub struct Slot {
    started: AtomicU64,
    resolved: AtomicU64,
}

impl Slot {
    /// An attempt starts.
    pub fn begin(&self) {
        bump(&self.started);
    }

    /// The attempt in flight resolved (acquired or gave up).
    pub fn end(&self) {
        bump(&self.resolved);
    }

    /// Attempts started.
    pub fn started(&self) -> u64 {
        self.started.load(Ordering::Relaxed)
    }

    /// Attempts started but not resolved.
    pub fn in_flight(&self) -> u64 {
        self.started() - self.resolved.load(Ordering::Relaxed)
    }
}

/// Owner-only increment: a plain store, no read-modify-write (the
/// counter is written by one worker and only read by others).
pub fn bump(c: &AtomicU64) {
    c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

/// Progress of every worker plus the stop flag the watchdog raises.
#[derive(Debug)]
pub struct Progress {
    slots: Vec<Slot>,
    stop: AtomicBool,
}

impl Progress {
    /// Slots for `workers` workers.
    pub fn new(workers: usize) -> Self {
        Progress {
            slots: (0..workers).map(|_| Slot::default()).collect(),
            stop: AtomicBool::new(false),
        }
    }

    /// Worker `i`'s slot.
    pub fn slot(&self, i: usize) -> &Slot {
        &self.slots[i]
    }

    /// Attempts started by all workers.
    pub fn started(&self) -> u64 {
        self.slots.iter().map(Slot::started).sum()
    }

    /// Attempts in flight across all workers.
    pub fn in_flight(&self) -> u64 {
        self.slots.iter().map(Slot::in_flight).sum()
    }

    fn resolved(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.resolved.load(Ordering::Relaxed))
            .sum()
    }

    /// Whether workers must stop (stall detected).
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Raise the stop flag.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }
}

/// Supervise a run from the calling thread until `done()` holds: fold
/// closed windows, and if no attempt resolves for `stall`, raise the
/// stop flag and return `true`.
pub fn supervise(
    progress: &Progress,
    windows: Option<&Windows>,
    stall: Duration,
    done: impl Fn() -> bool,
) -> bool {
    let mut last = progress.resolved();
    let mut last_change = Instant::now();
    while !done() {
        std::thread::sleep(Duration::from_millis(50));
        let now = Instant::now();
        if let Some(w) = windows {
            w.fold_closed(now);
        }
        let r = progress.resolved();
        if r != last {
            last = r;
            last_change = now;
        } else if now - last_change >= stall {
            progress.stop();
            return true;
        }
    }
    false
}

/// Wait up to `limit` for `done()`; whether it came true.
pub fn wait_for(limit: Duration, done: impl Fn() -> bool) -> bool {
    let until = Instant::now() + limit;
    while !done() {
        if Instant::now() >= until {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

/// How a supervised run ended.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ended {
    /// The watchdog saw no attempt resolve for a stall window.
    pub stalled: bool,
    /// Attempts in flight when the watchdog fired: all of them failed.
    pub unresolved: u64,
    /// After the stall the workers did not finish within another stall
    /// window; they were abandoned (the process must exit soon).
    pub hung: bool,
}

/// Run `work` on a helper thread and supervise it from this one (see
/// [`supervise`]). On a stall, `on_stall` runs once the stop flag is
/// up (to wake parked workers), then the workers get one more stall
/// window to notice. A worker panic is re-raised here.
pub fn drive(
    progress: &Progress,
    windows: Option<&Windows>,
    stall: Duration,
    work: impl FnOnce() + Send + 'static,
    on_stall: impl FnOnce(),
) -> Ended {
    let done = Arc::new(AtomicBool::new(false));
    let finished = Arc::clone(&done);
    let helper = std::thread::spawn(move || {
        work();
        finished.store(true, Ordering::Release);
    });
    let is_done = || done.load(Ordering::Acquire) || helper.is_finished();
    let stalled = supervise(progress, windows, stall, is_done);
    let (mut hung, mut unresolved) = (false, 0);
    if stalled {
        unresolved = progress.in_flight();
        on_stall();
        hung = !wait_for(stall, is_done);
    }
    if !hung {
        if let Err(panic) = helper.join() {
            std::panic::resume_unwind(panic);
        }
    }
    Ended {
        stalled,
        unresolved,
        hung,
    }
}

/// Seeded local work standing in for a caller's think time: a
/// dependent multiply-add chain of `iters` steps. The compiler may fold
/// several steps into one, so a step costs well under a multiply: the
/// workloads note the measured time.
pub fn think(iters: u32, seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..iters {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    std::hint::black_box(x)
}

/// Peak resident set size of this process in MiB (`VmHWM`), `NaN` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM:")
}

/// Resident set size of this process in MiB (`VmRSS`), `NaN` where
/// `/proc` is unavailable.
pub fn rss_mb() -> f64 {
    proc_status_mb("VmRSS:")
}

fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Median seconds of one call of `setup`, over at least `min_reps`
/// timed samples and more until 50 ms have been timed (at most 2001).
/// Calls faster than 20 µs are timed in batches of equal size so that a
/// sample is not dominated by timer and allocator jitter. Returns the
/// median, the number of timed samples it is taken over, and the value
/// the last call built.
pub fn timed_setup<T>(min_reps: usize, mut setup: impl FnMut() -> T) -> (f64, usize, T) {
    let t = Instant::now();
    let mut last = std::hint::black_box(setup());
    let first = t.elapsed();
    let batch =
        (Duration::from_micros(20).as_nanos() / first.as_nanos().max(1)).clamp(1, 1000) as usize;
    let mut secs = Vec::new();
    let mut total = 0.0;
    let mut built = Vec::with_capacity(batch);
    while secs.len() < min_reps.max(1) || (total < 0.05 && secs.len() < 2001) {
        drop(last);
        let t = Instant::now();
        for _ in 1..batch {
            built.push(std::hint::black_box(setup()));
        }
        last = std::hint::black_box(setup());
        let dt = t.elapsed().as_secs_f64();
        built.clear();
        secs.push(dt / batch as f64);
        total += dt;
    }
    (median(&secs), secs.len(), last)
}
