//! Host speed: a fixed reference kernel timed between a workload's ops,
//! so that the shared host's drifting speed can be taken out of the
//! end-to-end timings.
//!
//! On the 2-vCPU host the benchmark was written on, the same wavelet
//! build of the same input took 230 ms in one ten-second stretch and
//! 400 ms in another, with almost no steal time and no other process in
//! the container: neighbours on the physical machine change how fast the
//! code runs, and short-op code (a loopback query, a stream frame) more
//! than the wavelet DP. Fixed kernels of the same kinds of work slow
//! with them ([`Kernel`]): filling and probing a hash table, as the
//! wavelet DP's memo does; and merging small min-max tables, as the
//! streaming DP does, followed by request round trips over loopback TCP
//! and a channel, as the server does. Over 30 s stretches of a noisy
//! seven minutes, the median of the build, the frame push and the query
//! moved 11, 18 and 26 % (interquartile range over median); divided op by
//! op by their kernel's time just before, they moved 3, 5 and 3 %.
//!
//! Each run samples its kernel about once a second between ops; every op
//! time is divided by [`HostSpeed::factor_around`] the op: the mean of
//! the kernel times just before and just after it, over the kernel's
//! reference time. Taking the sample after the op as well steadied the
//! op-time tails, which a single fast sample had inflated. The kernel is
//! the benchmark's own code, it never runs while the program does, and
//! it runs in a child process (the benchmark binary started with
//! [`KERNEL_FLAG`]). So a change to the program cannot move it, and its
//! memory reaches neither the program's allocator nor the phase's peak
//! RSS.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::stats::{median, ms, SplitMix};

/// A reference kernel: fixed work of the kinds a workload does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Kernel {
    /// Fill and probe a hash table of [`ENTRIES`] entries, about 30 MB
    /// (the wavelet DP's memo).
    #[default]
    Table,
    /// Min-max merges of small DP tables (the streaming DP), then
    /// request round trips over loopback TCP and a channel (the server).
    MergeLoopback,
}

impl Kernel {
    /// Every kernel.
    pub const ALL: [Kernel; 2] = [Kernel::Table, Kernel::MergeLoopback];

    /// Name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Table => "table",
            Kernel::MergeLoopback => "merge-loopback",
        }
    }

    /// The kernel named `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Kernel> {
        Kernel::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The kernel's median on the reference host (a 2.1 GHz Xeon vCPU,
    /// in a quiet stretch), so normalised timings read close to raw ones
    /// there.
    #[must_use]
    pub fn reference_ms(self) -> f64 {
        match self {
            Kernel::Table => 100.0,
            Kernel::MergeLoopback => 105.0,
        }
    }
}

/// The flag with which the benchmark binary runs the kernel named after
/// it once and prints its time in ms.
pub const KERNEL_FLAG: &str = "--host-kernel";

/// Least time between two samples.
const EVERY: Duration = Duration::from_secs(1);

/// Kernel timings of one run.
#[derive(Debug, Clone, Default)]
pub struct HostSpeed {
    kernel: Kernel,
    /// The benchmark binary; without it nothing is sampled.
    binary: Option<PathBuf>,
    samples_ms: Vec<f64>,
    spent: Duration,
    last: Option<Instant>,
    /// Why sampling stopped, if it failed.
    error: Option<String>,
}

impl HostSpeed {
    /// Samples `kernel` through `binary` (the benchmark binary), or
    /// never.
    #[must_use]
    pub fn new(kernel: Kernel, binary: Option<PathBuf>) -> HostSpeed {
        HostSpeed {
            kernel,
            binary,
            ..HostSpeed::default()
        }
    }

    /// The kernel this run samples.
    #[must_use]
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Times the kernel once, in a child process, and waits for it. A
    /// failure stops all later sampling and is kept for
    /// [`HostSpeed::error`].
    fn sample(&mut self) {
        let Some(binary) = &self.binary else {
            return;
        };
        let t0 = Instant::now();
        let child = Command::new(binary)
            .args([KERNEL_FLAG, self.kernel.name()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        self.spent += t0.elapsed();
        self.last = Some(Instant::now());
        let took = match &child {
            Ok(out) if out.status.success() => {
                String::from_utf8_lossy(&out.stdout).trim().parse().ok()
            }
            _ => None,
        };
        match took {
            Some(ms) => self.samples_ms.push(ms),
            None => {
                self.error = Some(match child {
                    Ok(out) => format!("host-speed kernel failed: {}", out.status),
                    Err(e) => format!("host-speed kernel did not start: {e}"),
                });
                self.binary = None;
            }
        }
    }

    /// Samples when nothing was sampled yet or the last sample is at
    /// least a second old.
    pub fn due(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= EVERY) {
            self.sample();
        }
    }

    /// Why sampling failed, if it did; the run's timings then cannot be
    /// normalised.
    #[must_use]
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// How much slower than the reference host the host was around an
    /// op made after the first `taken` samples: the mean of the samples
    /// just before and just after it (the one before alone when none
    /// came after), over the kernel's reference time; 1 when no sample
    /// came before it.
    #[must_use]
    pub fn factor_around(&self, taken: usize) -> f64 {
        let Some(before) = taken.checked_sub(1).and_then(|i| self.samples_ms.get(i)) else {
            return 1.0;
        };
        let after = self.samples_ms.get(taken).unwrap_or(before);
        (before + after) / 2.0 / self.kernel.reference_ms()
    }

    /// Time spent sampling, to keep out of a phase's busy time.
    #[must_use]
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// Takes in another thread's samples (and failure).
    pub fn absorb(&mut self, other: HostSpeed) {
        self.samples_ms.extend(other.samples_ms);
        self.spent += other.spent;
        self.error = self.error.take().or(other.error);
    }

    /// Median kernel time, ms; 0 before the first sample.
    #[must_use]
    pub fn kernel_ms(&self) -> f64 {
        median(&self.samples_ms)
    }

    /// Kernel samples taken.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }
}

/// Runs `kernel` twice and returns the second run's time in ms: the
/// first run finds a fresh process, the timed one finds it warm, as the
/// workloads' ops find theirs.
///
/// # Errors
/// The kernel failed its own check.
pub fn time_kernel(kernel: Kernel) -> Result<f64, String> {
    run_kernel(kernel)?;
    let t0 = Instant::now();
    run_kernel(kernel)?;
    Ok(ms(t0.elapsed()))
}

fn run_kernel(kernel: Kernel) -> Result<(), String> {
    match kernel {
        Kernel::Table => {
            let sum = table();
            let expected = ENTRIES * (ENTRIES - 1) / 2;
            if sum != expected {
                return Err(format!("table kernel summed to {sum}, not {expected}"));
            }
        }
        Kernel::MergeLoopback => {
            std::hint::black_box(merge());
            loopback()?;
        }
    }
    Ok(())
}

/// Entries the table kernel inserts and then looks up.
const ENTRIES: u64 = 300_000;

/// Fills a hash table with [`ENTRIES`] distinct keys, then looks every
/// one up; returns the sum of the values found. Fixed hasher keys, so
/// the work is the same in every process.
fn table() -> u64 {
    let mut table: HashMap<u64, [u64; 6], BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut keys = SplitMix::new(0x5eed);
    for i in 0..ENTRIES {
        table.insert(keys.next_u64(), [i; 6]);
    }
    let mut keys = SplitMix::new(0x5eed);
    (0..ENTRIES)
        .map(|_| table.get(&keys.next_u64()).map_or(0, |v| v[0]))
        .sum()
}

/// Budgets and grid points of a merge table, and merges per run: the
/// shape of `stream_ingest`'s tables (B = 8, ε = 0.25 at N = 2^16).
const MERGE_BUDGET: usize = 8;
const MERGE_GRID: usize = 161;
const MERGES: usize = 1800;

/// Merges pairs of `(budget + 1) × grid` tables the way the streaming
/// DP does: each cell of the parent is the least, over budget splits, of
/// the larger of the two children's cells. Returns the last table's sum.
fn merge() -> f64 {
    let mut rng = SplitMix::new(0x3e76e);
    let mut fill = || -> Vec<f64> {
        (0..(MERGE_BUDGET + 1) * MERGE_GRID)
            .map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
            .collect()
    };
    let (mut left, right) = (fill(), fill());
    for _ in 0..MERGES {
        let mut parent = Vec::with_capacity(left.len());
        for b in 0..=MERGE_BUDGET {
            for q in 0..MERGE_GRID {
                let mut best = f64::INFINITY;
                for split in 0..=b {
                    let v = left[split * MERGE_GRID + q].max(right[(b - split) * MERGE_GRID + q]);
                    best = best.min(v);
                }
                parent.push(best);
            }
        }
        left = parent;
    }
    left.iter().sum()
}

/// Request round trips per run, and bytes per request and reply.
const TRIPS: usize = 3000;
const MESSAGE: usize = 64;

/// A request and the channel its reply goes back on.
type Job = ([u8; MESSAGE], mpsc::SyncSender<[u8; MESSAGE]>);

/// Round trips shaped like a served query: the caller writes a request
/// to a loopback TCP connection; a connection thread reads it and hands
/// it over a channel to a worker thread, whose reply goes back the same
/// way. Every reply must equal its request.
fn loopback() -> Result<(), String> {
    let io = |e: std::io::Error| format!("loopback kernel: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let (to_worker, jobs) = mpsc::sync_channel::<Job>(1);
    let worker = std::thread::spawn(move || {
        for (message, reply) in jobs {
            if reply.send(message).is_err() {
                break;
            }
        }
    });
    let connection = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        let (reply_to, replies) = mpsc::sync_channel(1);
        let mut message = [0u8; MESSAGE];
        for _ in 0..TRIPS {
            stream.read_exact(&mut message)?;
            if to_worker.send((message, reply_to.clone())).is_err() {
                break;
            }
            let Ok(reply) = replies.recv() else { break };
            stream.write_all(&reply)?;
        }
        Ok(())
    });
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    let mut message = [7u8; MESSAGE];
    let mut mismatch = false;
    for trip in 0..TRIPS {
        message[0] = trip as u8;
        stream.write_all(&message).map_err(io)?;
        let mut reply = [0u8; MESSAGE];
        stream.read_exact(&mut reply).map_err(io)?;
        mismatch |= reply != message;
    }
    drop(stream);
    let served = connection.join();
    let worked = worker.join();
    match (served, worked) {
        (Ok(Ok(())), Ok(())) if !mismatch => Ok(()),
        (Ok(Err(e)), _) => Err(io(e)),
        _ => Err("loopback kernel: a thread failed or a reply differed".to_string()),
    }
}

/// Pins this process, and every thread it starts later, to the CPU it
/// runs on now, with `taskset`. Returns that CPU, or `None` when
/// `taskset` is missing or refused (the run then goes on unpinned).
///
/// One CPU holds the workload and the kernel alike, so the kernel
/// samples the speed of the CPU the ops ran on, and the server's
/// threads hand requests over on one CPU: spread over two vCPUs, the
/// same loopback round trip took either 0.040 or 0.062 ms, switching
/// every fraction of a second.
#[must_use]
pub fn pin_to_current_cpu() -> Option<usize> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // Fields after the parenthesised command name start at field 3;
    // field 39 is the CPU the thread last ran on.
    let fields = &stat[stat.rfind(')')? + 2..];
    let cpu: usize = fields.split_whitespace().nth(36)?.parse().ok()?;
    let status = Command::new("taskset")
        .args([
            "-a",
            "-p",
            "-c",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .ok()?;
    status.success().then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn without_a_binary_nothing_is_sampled() {
        let mut speed = HostSpeed::default();
        speed.due();
        assert_eq!(speed.error(), None);
        assert_eq!(speed.samples(), 0);
        assert_eq!(speed.factor_around(speed.samples()), 1.0);
    }

    #[test]
    fn every_kernel_runs_clean_and_is_named() {
        for kernel in Kernel::ALL {
            assert_eq!(Kernel::parse(kernel.name()), Some(kernel));
            assert!(time_kernel(kernel).unwrap() > 0.0, "{}", kernel.name());
        }
    }
}
