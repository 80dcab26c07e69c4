//! Host probes: CPU and memory counters from `/proc`, run metadata, and
//! a watchdog that turns a hang into a loud, bounded failure.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `/proc/*/stat` times (`USER_HZ`,
/// fixed at 100 on every Linux architecture this runs on).
const USER_HZ: u64 = 100;

/// Process CPU time (user + system, every thread including exited
/// ones) in nanoseconds, from `/proc/self/stat`. Tick resolution (10 ms).
pub fn process_cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name: state is field 3, so
    // utime (14) and stime (15) sit at offsets 11 and 12.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks * (1_000_000_000 / USER_HZ)
}

/// Time the hypervisor ran something else on this machine's CPUs
/// (`steal`, summed over CPUs) in nanoseconds, from `/proc/stat`.
pub fn steal_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("/proc/stat is readable");
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8)?.parse::<u64>().ok())
        .map_or(0, |ticks| ticks * (1_000_000_000 / USER_HZ))
}

/// On-CPU nanoseconds of one thread (`schedstat`), or `None` once the
/// thread has exited. A running thread's figure lags by up to a
/// scheduler tick (4 ms at 250 Hz).
pub fn thread_cpu_ns(tid: u32) -> Option<u64> {
    read_schedstat(&format!("/proc/self/task/{tid}/schedstat"))
}

/// On-CPU nanoseconds of the calling thread, to the nanosecond: the
/// kernel brings a running thread's `schedstat` up to date only at a tick
/// or a trip through the scheduler, so yield first.
pub fn own_thread_cpu_ns() -> u64 {
    std::thread::yield_now();
    read_schedstat("/proc/thread-self/schedstat").expect("/proc/thread-self/schedstat is readable")
}

/// A stopwatch on the calling thread's on-CPU time. It stands still while
/// the thread sleeps, waits for a CPU, or has its vCPU stolen by the
/// hypervisor (steal is excluded from `schedstat` run time).
pub struct CpuWatch(u64);

impl CpuWatch {
    pub fn start() -> CpuWatch {
        CpuWatch(own_thread_cpu_ns())
    }

    /// On-CPU seconds since `start`.
    pub fn secs(&self) -> f64 {
        (own_thread_cpu_ns() - self.0) as f64 / 1e9
    }
}

fn read_schedstat(path: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Thread ids of this process, ascending.
pub fn thread_ids() -> Vec<u32> {
    let mut tids: Vec<u32> = std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task is readable")
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .collect();
    tids.sort_unstable();
    tids
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .expect("VmHWM present");
    kb / 1024.0
}

/// `rustc -V` of the toolchain on `PATH`.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// (no `git` process, nothing read above the checkout); `unknown` when
/// the checkout is not a repository.
pub fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Kills the process (exit code 3) when no progress is reported for
/// `limit` — the bound on every blocking call the benchmark cannot
/// time out itself, such as a send into a wedged controller queue.
pub struct Watchdog {
    beat: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    epoch: Instant,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Start watching.
    pub fn start(limit: Duration) -> Watchdog {
        let beat = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let epoch = Instant::now();
        let thread = {
            let (beat, stop) = (beat.clone(), stop.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(100));
                    let last = Duration::from_millis(beat.load(Ordering::Relaxed));
                    if epoch.elapsed().saturating_sub(last) > limit {
                        eprintln!("watchdog: no progress for {limit:?}; the pipeline is wedged");
                        std::process::exit(3);
                    }
                }
            })
        };
        Watchdog {
            beat,
            stop,
            epoch,
            thread: Some(thread),
        }
    }

    /// A handle the workload calls to report progress.
    pub fn heart(&self) -> Heart {
        Heart {
            beat: self.beat.clone(),
            epoch: self.epoch,
        }
    }

    /// Stop and join the watchdog thread.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.join().expect("watchdog thread panicked");
        }
    }
}

/// Progress reporter for a [`Watchdog`].
#[derive(Clone)]
pub struct Heart {
    beat: Arc<AtomicU64>,
    epoch: Instant,
}

impl Heart {
    /// Record progress now.
    pub fn beat(&self) {
        self.beat
            .store(self.epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
    }
}
