//! The host block every report carries: what the box is and what it can
//! do at most, measured on the box itself, so per-layer rates can be read
//! as a share of a peak rather than in isolation.

use sesr_serve::json::JsonObject;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Identity and measured peaks of the machine a run executed on.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub flags: Vec<(&'static str, bool)>,
    pub kernel_variant: &'static str,
    /// Single-thread f32 fused multiply-add throughput, GFLOP/s (one FMA
    /// counts two flops).
    pub fma_gflops: f64,
    /// Single-thread streaming copy bandwidth, GB/s of bytes read plus
    /// bytes written.
    pub copy_gbs: f64,
}

impl Host {
    /// Probes the machine. Takes about half a second and allocates two
    /// 48 MiB buffers, so call it after peak memory has been read.
    pub fn probe() -> Self {
        Self {
            nproc: nproc(),
            cpu_model: cpu_model(),
            flags: cpu_flags(),
            kernel_variant: sesr_tensor::simd::kernel_variant().name(),
            fma_gflops: best_of(5, fma_gflops),
            copy_gbs: best_of(5, copy_gbs),
        }
    }

    /// Peak single-thread multiply-accumulates per second, in GMAC/s.
    pub fn peak_gmac_s(&self) -> f64 {
        self.fma_gflops / 2.0
    }

    pub fn to_json(&self) -> String {
        let flags = self
            .flags
            .iter()
            .fold(JsonObject::new(), |o, (name, on)| o.bool(name, *on))
            .finish();
        JsonObject::new()
            .int("nproc", self.nproc as u64)
            .str("cpu_model", &self.cpu_model)
            .raw("flags", &flags)
            .str("kernel_variant", self.kernel_variant)
            .num("fma_gflops", self.fma_gflops)
            .num("copy_gbs", self.copy_gbs)
            .finish()
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn best_of(n: usize, f: impl Fn() -> f64) -> f64 {
    (0..n).map(|_| f()).fold(0.0, f64::max)
}

/// Eight independent accumulators of eight lanes each: enough chains in
/// flight to keep both FMA ports busy, and a shape the compiler turns
/// into vector FMAs under the workspace's `target-cpu=native`.
fn fma_gflops() -> f64 {
    const ITERS: usize = 2_000_000;
    let mut acc = [[1.0f32; 8]; 8];
    let (x, y) = (black_box(0.999_999_9f32), black_box(1.0e-7f32));
    let start = Instant::now();
    for _ in 0..ITERS {
        for chain in acc.iter_mut() {
            for v in chain.iter_mut() {
                *v = v.mul_add(x, y);
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    black_box(acc);
    (ITERS * 64 * 2) as f64 / secs / 1e9
}

fn copy_gbs() -> f64 {
    const WORDS: usize = 12 << 20; // 48 MiB of f32, past any last-level cache
    let src = vec![1.0f32; WORDS];
    let mut dst = vec![0.0f32; WORDS];
    dst.copy_from_slice(&src); // fault the pages in before timing
    let start = Instant::now();
    dst.copy_from_slice(black_box(&src));
    let secs = start.elapsed().as_secs_f64();
    black_box(&dst);
    (2 * WORDS * 4) as f64 / secs / 1e9
}

/// The host-speed reference: a fixed f32 matrix product owned by the
/// benchmark, never the program's code, so no change to the program can
/// move it. The shared host this benchmark was sized on runs everything
/// up to a half slower for minutes at a time, without reporting steal
/// time; the reference slows with the workload, so the end-to-end
/// timings are scaled by it.
pub struct Reference {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

/// Shape `m x k` times `k x n` of the reference product, and products per
/// sample: 84 MFLOP, with all three matrices resident in L2.
const REF_M: usize = 64;
const REF_K: usize = 64;
const REF_N: usize = 256;
const REF_REPS: usize = 20;

/// Time of one reference sample on an idle core of the recording host at
/// full speed; a slowdown of 1 means the host ran that fast.
pub const REF_NOMINAL_MS: f64 = 1.5;

/// Pause between two reference samples: a sample costs about 2% of a core.
const REF_EVERY: Duration = Duration::from_millis(100);

impl Reference {
    pub fn new() -> Self {
        Self {
            a: (0..REF_M * REF_K).map(|i| (i % 7) as f32 * 0.01).collect(),
            b: (0..REF_K * REF_N).map(|i| (i % 5) as f32 * 0.01).collect(),
            c: vec![0.0; REF_M * REF_N],
        }
    }

    /// Runs one sample and returns its time on this thread's CPU clock, in
    /// ms. Time the thread spent waiting for a core does not count, so a
    /// sample taken while the system under test keeps every core busy
    /// still measures how fast the core ran.
    pub fn sample_ms(&mut self) -> f64 {
        let start = thread_cpu_s();
        for _ in 0..REF_REPS {
            gemm(&self.a, &self.b, &mut self.c);
            black_box(&mut self.c);
        }
        (thread_cpu_s() - start) * 1e3
    }
}

/// `c += a b` for the reference shapes, row by row.
#[inline(never)]
fn gemm(a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..REF_M {
        let ci = &mut c[i * REF_N..(i + 1) * REF_N];
        for p in 0..REF_K {
            let av = a[i * REF_K + p];
            let bp = &b[p * REF_N..(p + 1) * REF_N];
            for (cv, &bv) in ci.iter_mut().zip(bp) {
                *cv = cv.mul_add(av, bv);
            }
        }
    }
}

/// One reference sample: when it ran (its midpoint) and its time, in ms.
#[derive(Debug, Clone, Copy)]
pub struct RefSample {
    pub at: Instant,
    pub ms: f64,
}

/// Samples the [`Reference`] every [`REF_EVERY`] on a thread of its own,
/// at times unrelated to the workload's sends, until finished or dropped.
pub struct RefSampler {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<Vec<RefSample>>>,
}

impl RefSampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let thread = std::thread::spawn(move || {
            let mut reference = Reference::new();
            let mut samples = Vec::new();
            loop {
                std::thread::sleep(REF_EVERY);
                if flag.load(Ordering::Relaxed) {
                    return samples;
                }
                let t0 = Instant::now();
                let ms = reference.sample_ms();
                let at = t0 + (Instant::now() - t0) / 2;
                samples.push(RefSample { at, ms });
            }
        });
        Self {
            stop,
            thread: Some(thread),
        }
    }

    /// Stops the sampler and returns its samples in the order taken.
    pub fn finish(mut self) -> Vec<RefSample> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .take()
            .map(|t| t.join().expect("the reference sampler does not panic"))
            .unwrap_or_default()
    }
}

impl Drop for RefSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Span of reference samples whose median gives the host's slowdown at
/// one moment: long enough for a steady median (about 25 samples), short
/// enough to follow the host's phases, which last seconds.
const LOCAL_SPAN: Duration = Duration::from_millis(2500);

/// Turns wall-clock intervals into time at full host speed. The host's
/// slowdown at each moment is the median reference sample within
/// [`LOCAL_SPAN`] around it, over [`REF_NOMINAL_MS`]; an interval at full
/// speed is the integral of one over the slowdown across it. Outside the
/// sampled stretch, and where no sample lies near, the run's median
/// slowdown applies.
#[derive(Debug, Clone)]
pub struct HostClock {
    /// Start of the first step.
    origin: Instant,
    /// Slowdown of each [`REF_EVERY`]-long step from `origin`.
    steps: Vec<f64>,
    /// Full-speed seconds from `origin` to the start of each step, plus
    /// one entry for the end of the last.
    elapsed: Vec<f64>,
    /// The median slowdown of the run.
    overall: f64,
}

impl HostClock {
    /// A clock that runs at `slowdown` throughout.
    pub fn constant(slowdown: f64) -> Self {
        Self {
            origin: Instant::now(),
            steps: Vec::new(),
            elapsed: vec![0.0],
            overall: slowdown,
        }
    }

    /// The clock of a run from its reference samples; `None` without a
    /// usable sample.
    pub fn from_samples(samples: &[RefSample]) -> Option<Self> {
        let ms: Vec<f64> = samples.iter().map(|s| s.ms).collect();
        let overall = crate::stats::median(&ms) / REF_NOMINAL_MS;
        if !(overall.is_finite() && overall > 0.0) {
            return None;
        }
        let origin = samples.iter().map(|s| s.at).min()?;
        let last = samples.iter().map(|s| s.at).max()?;
        let step = REF_EVERY.as_secs_f64();
        let count = ((last - origin).as_secs_f64() / step).floor() as usize + 1;
        let half = LOCAL_SPAN.as_secs_f64() / 2.0;
        let steps: Vec<f64> = (0..count)
            .map(|i| {
                let mid = (i as f64 + 0.5) * step;
                let near: Vec<f64> = samples
                    .iter()
                    .filter(|s| ((s.at - origin).as_secs_f64() - mid).abs() <= half)
                    .map(|s| s.ms)
                    .collect();
                if near.is_empty() {
                    overall
                } else {
                    crate::stats::median(&near) / REF_NOMINAL_MS
                }
            })
            .collect();
        let mut elapsed = vec![0.0];
        for s in &steps {
            elapsed.push(elapsed.last().copied().unwrap_or(0.0) + step / s);
        }
        Some(Self {
            origin,
            steps,
            elapsed,
            overall,
        })
    }

    /// The run's median slowdown.
    pub fn overall(&self) -> f64 {
        self.overall
    }

    /// Seconds at full host speed from `origin` to `t` (negative before).
    fn at(&self, t: Instant) -> f64 {
        let step = REF_EVERY.as_secs_f64();
        let x = if t >= self.origin {
            (t - self.origin).as_secs_f64()
        } else {
            -(self.origin - t).as_secs_f64()
        };
        let n = self.steps.len();
        if x < 0.0 {
            return x / self.overall;
        }
        let i = (x / step).floor() as usize;
        if i >= n {
            return self.elapsed[n] + (x - n as f64 * step) / self.overall;
        }
        self.elapsed[i] + (x - i as f64 * step) / self.steps[i]
    }

    /// The full-speed length of the interval from `a` to `b`, in seconds.
    pub fn seconds(&self, a: Instant, b: Instant) -> f64 {
        (self.at(b) - self.at(a)).max(0.0)
    }
}

/// CPU time consumed by the calling thread, in seconds.
fn thread_cpu_s() -> f64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec`, the only memory
    // clock_gettime writes.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

fn cpu_flags() -> Vec<(&'static str, bool)> {
    #[cfg(target_arch = "x86_64")]
    {
        vec![
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
            (
                "avx512_vnni",
                std::arch::is_x86_feature_detected!("avx512vnni"),
            ),
        ]
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

/// The CPU brand string from CPUID leaves 0x8000_0002..=0x8000_0004.
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        let mut bytes = Vec::with_capacity(48);
        for leaf in 0x8000_0002u32..=0x8000_0004 {
            let r = __cpuid(leaf);
            for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                bytes.extend_from_slice(&reg.to_le_bytes());
            }
        }
        String::from_utf8_lossy(&bytes)
            .trim_matches(char::from(0))
            .trim()
            .to_string()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        std::env::consts::ARCH.to_string()
    }
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    /// `struct rusage` on Linux: two `timeval`s, then fourteen `long`s,
    /// the first of which is `ru_maxrss` in KiB.
    #[repr(C)]
    struct RUsage {
        words: [i64; 18],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage { words: [0; 18] };
    // SAFETY: `usage` is a valid, writable buffer laid out as the C
    // `struct rusage` (144 bytes on 64-bit Linux), and getrusage writes
    // nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return f64::NAN;
    }
    usage.words[4] as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_and_monotone() {
        let before = peak_rss_mb();
        assert!(before > 0.0, "ru_maxrss read {before}");
        let big = vec![1u8; 64 << 20];
        black_box(&big);
        assert!(peak_rss_mb() >= before + 32.0, "64 MiB touch not seen");
    }

    #[test]
    fn reference_counts_this_threads_cpu_only() {
        let mut r = Reference::new();
        let busy = r.sample_ms();
        assert!(busy > 0.0 && busy.is_finite(), "sample read {busy} ms");
        let t = thread_cpu_s();
        std::thread::sleep(Duration::from_millis(30));
        assert!(thread_cpu_s() - t < 0.01, "sleeping counted as CPU time");
        let sampler = RefSampler::start();
        std::thread::sleep(REF_EVERY * 3 + REF_EVERY / 2);
        let samples = sampler.finish();
        assert!(
            (2..=4).contains(&samples.len()),
            "{} samples",
            samples.len()
        );
        assert!(samples.windows(2).all(|w| w[0].at < w[1].at));
    }

    /// A host at full speed for 10 s, then twice as slow for 10 s: an
    /// interval well inside either phase is scaled by that phase's
    /// slowdown, and one across the change by each part's own.
    #[test]
    fn host_clock_follows_the_local_slowdown() {
        let t0 = Instant::now() + Duration::from_secs(10);
        let at = |s: f64| {
            if s < 0.0 {
                t0 - Duration::from_secs_f64(-s)
            } else {
                t0 + Duration::from_secs_f64(s)
            }
        };
        let samples: Vec<RefSample> = (0..200)
            .map(|i| RefSample {
                at: at(i as f64 * 0.1),
                ms: REF_NOMINAL_MS * if i < 100 { 1.0 } else { 2.0 },
            })
            .collect();
        let clock = HostClock::from_samples(&samples).expect("samples");
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(clock.seconds(at(2.0), at(4.0)), 2.0));
        assert!(close(clock.seconds(at(14.0), at(16.0)), 1.0));
        // Across the change, within half a step of the exact 6 + 3 s.
        assert!((clock.seconds(at(4.0), at(16.0)) - 9.0).abs() < 0.06);
        // Before and after the samples the run's median applies; for a
        // 50/50 split that is the lower middle sample.
        assert!(close(clock.overall(), 1.0));
        assert!(close(clock.seconds(at(-3.0), at(-1.5)), 1.5));
        assert!(close(clock.seconds(at(30.0), at(31.0)), 1.0));
        assert!(close(clock.seconds(at(4.0), at(2.0)), 0.0));
        let flat = HostClock::constant(2.0);
        assert!(close(flat.seconds(at(1.0), at(5.0)), 2.0));
        assert!(HostClock::from_samples(&[]).is_none());
    }
}
