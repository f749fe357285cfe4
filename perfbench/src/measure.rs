//! Measurement primitives: duration histograms, percentiles, and the
//! `/proc` readers for peak memory and CPU time (process and per thread).

use std::io;
use verus_stats::quantile::quantile_sorted;
use verus_stats::Histogram;

/// Sub-buckets per power of two in [`DurHist`]: bucket width is at most
/// 1/16 of its lower edge, so a reported percentile is within ~3 %.
const SUB: u64 = 16;
const BUCKETS: usize = 976;

/// A log-linear histogram of nanosecond durations: O(1) record, fixed
/// 8 KiB of memory however many calls it folds.
#[derive(Clone)]
pub struct DurHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for DurHist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn bucket(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let e = u64::from(63 - ns.leading_zeros());
    let sub = (ns >> (e - 4)) & (SUB - 1);
    ((e - 3) * SUB + sub) as usize
}

/// The midpoint of bucket `i`, in ns.
fn bucket_mid(i: usize) -> f64 {
    let i = i as u64;
    if i < SUB {
        return i as f64;
    }
    let e = i / SUB + 3;
    let width = 1u64 << (e - 4);
    let lo = (1u64 << e) + (i % SUB) * width;
    lo as f64 + width as f64 / 2.0
}

impl DurHist {
    /// Folds one duration.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket(ns)] += 1;
        self.total += 1;
    }

    /// Adds every count of `other`.
    pub fn merge(&mut self, other: &DurHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Durations folded so far.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile in ns (bucket midpoint); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(i);
            }
        }
        bucket_mid(BUCKETS - 1)
    }
}

/// Linear-interpolated `q`-quantile of `values` (sorted in place); 0
/// when empty.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    quantile_sorted(values, q)
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(&mut values.to_vec(), 0.5)
}

/// The `q`-quantile of a uniform-bin histogram, interpolated linearly
/// inside the bin that holds the rank. Overflow samples count as lying
/// above the top bin (the quantile clamps to its upper edge).
pub fn hist_quantile(h: &Histogram, q: f64) -> f64 {
    let (under, _) = h.out_of_range();
    let total = h.total();
    if total == 0 || h.bins() < 2 {
        return 0.0;
    }
    let width = h.center(1) - h.center(0);
    let lo = h.center(0) - width / 2.0;
    let rank = q * total as f64;
    let mut below = under as f64;
    if rank <= below {
        return lo;
    }
    for (i, &c) in h.counts().iter().enumerate() {
        let c = c as f64;
        if below + c >= rank && c > 0.0 {
            return lo + width * (i as f64 + (rank - below) / c);
        }
        below += c;
    }
    lo + width * h.bins() as f64
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Reads a CPU-time clock, in seconds with nanosecond resolution.
fn cpu_clock_s(clock: i32) -> io::Result<f64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, matching the `#[repr(C)]` layout above),
    // and `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9)
}

/// CPU seconds (user + system) this process has used, threads that
/// already exited included. Like every CPU time here it leaves out time
/// the hypervisor gave to other guests.
pub fn process_cpu_s() -> io::Result<f64> {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu_s() -> io::Result<f64> {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds of thread `tid` of this process (the first field of its
/// `schedstat`, nanoseconds on CPU).
fn task_cpu_s(tid: &str) -> io::Result<f64> {
    let text = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))?;
    text.split_whitespace()
        .next()
        .and_then(|ns| ns.parse::<u64>().ok())
        .map(|ns| ns as f64 / 1e9)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unparsable schedstat"))
}

/// One live thread's CPU time.
#[derive(Debug, Clone)]
pub struct ThreadCpu {
    /// Kernel thread id.
    pub tid: u32,
    /// Thread name as the kernel keeps it (truncated to 15 bytes).
    pub name: String,
    /// User + system CPU seconds.
    pub cpu_s: f64,
}

/// CPU time of every live thread of this process, from
/// `/proc/self/task/*/{comm,schedstat}`. A thread that exits between the
/// directory listing and its reads is skipped.
pub fn thread_cpu() -> io::Result<Vec<ThreadCpu>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir("/proc/self/task")? {
        let entry = entry?;
        let Some(tid_str) = entry.file_name().to_str().map(str::to_owned) else {
            continue;
        };
        let Ok(tid) = tid_str.parse() else { continue };
        let (Ok(name), Ok(cpu_s)) = (
            std::fs::read_to_string(entry.path().join("comm")),
            task_cpu_s(&tid_str),
        ) else {
            continue;
        };
        out.push(ThreadCpu {
            tid,
            name: name.trim_end().to_string(),
            cpu_s,
        });
    }
    out.sort_by_key(|t| t.tid);
    Ok(out)
}

/// Summed CPU seconds of the live threads whose name starts with
/// `prefix`.
pub fn threads_cpu_s(prefix: &str) -> io::Result<f64> {
    Ok(thread_cpu()?
        .iter()
        .filter(|t| t.name.starts_with(prefix))
        .map(|t| t.cpu_s)
        .sum())
}

/// CPU seconds of this process's main thread (tid = pid), read from any
/// thread.
pub fn main_thread_cpu_s() -> io::Result<f64> {
    task_cpu_s(&std::process::id().to_string())
}

/// The host's CPU time counters from the first line of `/proc/stat`
/// (user, nice, system, idle, iowait, irq, softirq, steal, ...), in ticks.
pub fn host_cpu_ticks() -> io::Result<Vec<u64>> {
    let text = std::fs::read_to_string("/proc/stat")?;
    let line = text
        .lines()
        .next()
        .filter(|l| l.starts_with("cpu "))
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no cpu line in /proc/stat"))?;
    Ok(line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect())
}

/// Share of all CPU time between two [`host_cpu_ticks`] readings that
/// the hypervisor gave to other guests (the `steal` column).
pub fn steal_frac(before: &[u64], after: &[u64]) -> f64 {
    let delta: Vec<u64> = before
        .iter()
        .zip(after)
        .map(|(a, b)| b.saturating_sub(*a))
        .collect();
    let total: u64 = delta.iter().take(8).sum();
    if total == 0 {
        return 0.0;
    }
    delta.get(7).copied().unwrap_or(0) as f64 / total as f64
}

/// Peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::{Duration, Instant};

    #[test]
    fn buckets_are_monotone_and_midpoints_inside() {
        let mut last = 0;
        for ns in [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1_000,
            123_456,
            1 << 40,
            u64::MAX,
        ] {
            let b = bucket(ns);
            assert!(b >= last && b < BUCKETS, "bucket({ns}) = {b}");
            last = b;
            if (16..(1 << 60)).contains(&ns) {
                let mid = bucket_mid(b);
                let rel = (mid - ns as f64).abs() / ns as f64;
                assert!(rel <= 1.0 / 16.0, "ns {ns} mid {mid}");
            }
        }
    }

    #[test]
    fn duration_quantiles_track_the_samples() {
        let mut h = DurHist::default();
        for ns in 1..=1000u64 {
            h.record(ns * 100);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.04, "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.04, "p99 {p99}");
        assert_eq!(DurHist::default().quantile(0.5), 0.0);
    }

    /// A spinning thread accrues CPU time; a parked one does not.
    #[test]
    fn per_thread_reader_sees_spinning_and_idle_threads() {
        let stop = Arc::new(AtomicBool::new(false));
        let (ready_tx, ready_rx) = mpsc::channel();
        let spin_stop = Arc::clone(&stop);
        let spin_ready = ready_tx.clone();
        let spinner = std::thread::Builder::new()
            .name("pb-test-spin".into())
            .spawn(move || {
                spin_ready.send(()).expect("test channel");
                let mut x = 0u64;
                while !spin_stop.load(Ordering::Relaxed) {
                    x = std::hint::black_box(x.wrapping_add(1));
                }
                x
            })
            .expect("spawn spinner");
        let (park_tx, park_rx) = mpsc::channel::<()>();
        let idler = std::thread::Builder::new()
            .name("pb-test-idle".into())
            .spawn(move || {
                ready_tx.send(()).expect("test channel");
                let _ = park_rx.recv();
            })
            .expect("spawn idler");
        ready_rx.recv().expect("spinner ready");
        ready_rx.recv().expect("idler ready");
        let t0 = Instant::now();
        let mut spin = 0.0;
        // Spin until the kernel has charged at least a few ticks.
        while t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(50));
            spin = threads_cpu_s("pb-test-spin").expect("read tasks");
            if spin >= 0.2 {
                break;
            }
        }
        let idle = threads_cpu_s("pb-test-idle").expect("read tasks");
        stop.store(true, Ordering::Relaxed);
        drop(park_tx);
        spinner.join().expect("spinner");
        idler.join().expect("idler");
        assert!(spin >= 0.2, "spinning thread read {spin} s of CPU");
        assert!(idle <= 0.02, "idle thread read {idle} s of CPU");
    }

    #[test]
    fn process_readers_return_plausible_values() {
        assert!(peak_rss_mb().expect("VmHWM") > 0.1);
        assert!(process_cpu_s().expect("stat") >= 0.0);
        assert!(main_thread_cpu_s().expect("task stat") >= 0.0);
        let (t0, p0) = (
            thread_cpu_s().expect("clock"),
            process_cpu_s().expect("clock"),
        );
        let mut x = 0u64;
        for i in 0..1_000_000u64 {
            x = std::hint::black_box(x ^ i);
        }
        assert!(
            thread_cpu_s().expect("clock") > t0,
            "a busy thread's CPU time advances"
        );
        assert!(process_cpu_s().expect("clock") > p0);
        let ticks = host_cpu_ticks().expect("/proc/stat");
        assert!(ticks.len() >= 8);
        assert_eq!(steal_frac(&ticks, &ticks), 0.0);
        assert!((steal_frac(&[0; 8], &[1, 0, 1, 1, 0, 0, 0, 1]) - 0.25).abs() < 1e-12);
    }
}
